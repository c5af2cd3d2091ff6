// Package analysis is the project's static-analysis layer: three custom
// analyzers that prove, at build-gate time and over every call site, the
// serving invariants the dynamic test suites can only sample —
//
//   - noalloc: functions annotated `// costlint:noalloc` contain no
//     allocating constructs — the static, every-line complement to the
//     AllocsPerRun tests, which prove the warm path empirically but only at
//     the call sites they exercise;
//   - canonicaldot: no raw float64 reduction loops over slices outside
//     internal/tensor — every order-sensitive accumulation routes through
//     the canonical kernels (tensor.Dot, tensor.Sum, tensor.AddVecsInto)
//     that pin the bit-identical estimate contract;
//   - atomichygiene: no package-level sync/atomic function is used, so every
//     atomic word is a typed atomic whose plain access cannot compile (mixed
//     atomic/plain access is a data race the race detector only finds when a
//     test happens to interleave it).
//
// The fault-site registry needs no analyzer: fault.Site's name is unexported,
// so a hook point is named through the vars of internal/fault/sites.go and
// the compiler rejects one named by a string.
//
// The framework is deliberately dependency-free: the container that builds
// this repo has no module proxy access, so instead of
// golang.org/x/tools/go/analysis the package drives the same underlying
// substrate directly — `go list -export` for package metadata and compiled
// export data, go/parser + go/types for syntax and type information (see
// load.go). The Analyzer/Pass surface mirrors x/tools so the analyzers could
// be ported to a multichecker verbatim if the dependency ever lands.
//
// Test files are never analyzed: the loader reads only GoFiles (non-test
// sources), because tests intentionally allocate and touch shared state
// single-threaded. The contracts these analyzers prove are production serving
// contracts.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one static check; Run is invoked once per loaded package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(pass *Pass)
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Prog     *Program
	Pkg      *Package
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Prog.diags = append(p.Prog.diags, Diagnostic{
		Pos:      pos,
		Position: p.Prog.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding, resolved to a file position.
type Diagnostic struct {
	Pos      token.Pos
	Position token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s",
		d.Position.Filename, d.Position.Line, d.Position.Column, d.Analyzer, d.Message)
}

// Package is one type-checked target package.
type Package struct {
	PkgPath string
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
}

// Program is a set of loaded packages plus accumulated diagnostics.
type Program struct {
	Fset     *token.FileSet
	Packages []*Package

	diags []Diagnostic
}

// Analyzers returns the project's analyzer suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{NoAlloc, CanonicalDot, AtomicHygiene}
}

// RunAnalyzers applies every analyzer to prog and returns the diagnostics
// sorted by position.
func RunAnalyzers(prog *Program, analyzers []*Analyzer) []Diagnostic {
	for _, a := range analyzers {
		for _, pkg := range prog.Packages {
			a.Run(&Pass{Analyzer: a, Prog: prog, Pkg: pkg})
		}
	}
	sort.Slice(prog.diags, func(i, j int) bool {
		a, b := prog.diags[i].Position, prog.diags[j].Position
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return prog.diags[i].Message < prog.diags[j].Message
	})
	return prog.diags
}

// tensorPkgSuffix identifies the canonical-kernel package.
const tensorPkgSuffix = "internal/tensor"

// isPkgPath reports whether path is exactly suffix or ends with "/"+suffix.
func isPkgPath(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}
