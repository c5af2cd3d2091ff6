// Command costlint is the project's static-analysis gate: it runs the
// internal/analysis suite — noalloc, canonicaldot, atomichygiene — over the
// named packages and exits non-zero on any finding. `make lint` (part of
// `make check` and CI) runs it over ./....
//
// Usage:
//
//	costlint [packages...]
//
// With no arguments, ./... is assumed. The tree must build: the analyzers
// consume compiled export data produced by `go list -export`.
package main

import (
	"flag"
	"fmt"
	"os"

	"costest/internal/analysis"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: costlint [packages...]\n\nAnalyzers:\n")
		for _, a := range analysis.Analyzers() {
			fmt.Fprintf(os.Stderr, "  %-14s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	prog, err := analysis.Load(patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	diags := analysis.RunAnalyzers(prog, analysis.Analyzers())
	for _, d := range diags {
		fmt.Println(d.String())
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "costlint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}
