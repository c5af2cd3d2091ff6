#!/bin/sh
# Docs-consistency gate: fail when the navigational docs reference repo
# paths that don't exist (stale file moves are how architecture docs rot).
# Checks two reference forms in README.md / ARCHITECTURE.md / PERFORMANCE.md:
#   - markdown links:  [text](path)        (http(s) and #anchors skipped)
#   - backticked repo paths rooted at a top-level directory or a root file
#     with an extension: `internal/core/pool.go`, `cmd/experiments`,
#     `BENCH_INFERENCE.json`. Bare filename shorthand (`pool.go` inside a
#     paragraph about internal/core) and non-path notation (`hash/maphash`,
#     `dR/2`) are deliberately not checked.
# It also checks the commands that README.md / ARCHITECTURE.md and the verify
# notes (.claude/skills/verify/SKILL.md) tell a reader to run:
#   - every `go run ./<dir>` names a directory holding Go files;
#   - every `costest <subcommand>` invoked as a command (after a `/`, a
#     backtick or at the start of a line) is one cmd/costest's main switch
#     accepts.
# And it checks that every examples/<dir> holds a _test.go: an example
# prints claims a reader takes on trust, so it carries a test of them.
# Run from the repository root: scripts/check_docs.sh
set -eu

status=0
for doc in README.md ARCHITECTURE.md PERFORMANCE.md; do
    [ -f "$doc" ] || { echo "check_docs: missing $doc"; status=1; continue; }

    refs=$(
        grep -oE '\]\([^)]+\)' "$doc" | sed -E 's/^\]\(//; s/\)$//'
        grep -oE '`[A-Za-z0-9_./-]+`' "$doc" | tr -d '`' |
            grep -E '^(internal|cmd|examples|scripts|\.github)(/|$)|^[A-Za-z0-9_.-]+\.(md|json|sh|yml|mod)$' || true
    )
    for ref in $refs; do
        case "$ref" in
        http://* | https://* | \#*) continue ;;
        esac
        path=${ref%%#*} # strip anchors from links like FILE.md#section
        # Strip trailing path globs/ellipses used in prose (cmd/, internal/...).
        case "$path" in
        */...) path=${path%/...} ;;
        esac
        case "$path" in
        */) path=${path%/} ;;
        esac
        if [ ! -e "$path" ]; then
            echo "$doc references missing path: $ref"
            status=1
        fi
    done
done

# Entry-point references: a deleted command or subcommand must leave the
# docs with it.
subcommands=" $(sed -n '/switch os.Args\[1\]/,/^	}/p' cmd/costest/main.go |
    grep -oE 'case "[^"]+"' | sed -E 's/case "(.*)"/\1/' | tr '\n' ' ')"
for doc in README.md ARCHITECTURE.md .claude/skills/verify/SKILL.md; do
    [ -f "$doc" ] || { echo "check_docs: missing $doc"; status=1; continue; }
    for dir in $(grep -oE 'go run +\./[A-Za-z0-9_./-]*[A-Za-z0-9_]' "$doc" |
        sed -E 's/^go run +//' | sort -u); do
        if ! ls "$dir"/*.go >/dev/null 2>&1; then
            echo "$doc runs a missing command: go run $dir"
            status=1
        fi
    done
    for sub in $(grep -oE '(^|[/`])costest [a-z][a-z-]*' "$doc" |
        sed -E 's/^.*costest //' | sort -u); do
        case "$subcommands" in
        *" $sub "*) ;;
        *)
            echo "$doc invokes an unknown subcommand: costest $sub (cmd/costest accepts:$subcommands)"
            status=1
            ;;
        esac
    done
done

# Examples earn a test: a directory under examples/ without one fails.
for dir in examples/*/; do
    [ -d "$dir" ] || continue
    if ! ls "$dir"*_test.go >/dev/null 2>&1; then
        echo "${dir%/} has no _test.go: an example needs a test of what it prints"
        status=1
    fi
done

# Required sections: each runtime layer documents itself under a stable
# heading; a rename or deletion silently orphans the cross-references the
# other docs and ROADMAP make to these sections.
require_section() {
    if ! grep -q "^#.*$2" "$1"; then
        echo "$1 missing required section: $2"
        status=1
    fi
}
require_section PERFORMANCE.md "Batched training runtime"
require_section PERFORMANCE.md "Hot-swap serving runtime"
require_section PERFORMANCE.md "Data-parallel training runtime"
require_section PERFORMANCE.md "Continuous train-and-serve loop"
require_section PERFORMANCE.md "Networked estimator daemon"
require_section PERFORMANCE.md "Fault tolerance layer"
require_section PERFORMANCE.md "Scale-out replication"
require_section ARCHITECTURE.md "Runtime layers"
require_section ARCHITECTURE.md "Static-analysis layer"
require_section ARCHITECTURE.md "Networked serving"
require_section ARCHITECTURE.md "Fault tolerance"
require_section ARCHITECTURE.md "Scale-out replication"
require_section README.md "A replicated cluster"
require_section README.md "Design ablations"

if [ "$status" -ne 0 ]; then
    echo "check_docs: FAILED — fix the stale references above"
else
    echo "check_docs: OK"
fi
exit $status
