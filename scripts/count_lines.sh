#!/bin/sh
# Prints the number of non-test source lines in the module, by the counting
# rule ROADMAP.md uses for "net change in non-test lines": every .go file that
# is not a _test.go file and every assembly (.s) file, outside bench/ (a
# module of its own), analyzer testdata included. Blank lines and comments
# count.
# Run from the repository root: scripts/count_lines.sh (or `make loc`).
set -eu

find . -path ./bench -prune -o \( -name '*.go' ! -name '*_test.go' -o -name '*.s' \) -type f -print0 |
    xargs -0 cat | wc -l | tr -d ' '
