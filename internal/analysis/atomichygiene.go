package analysis

import "go/types"

// AtomicHygiene keeps every atomic word a typed atomic: non-test code uses no
// package-level sync/atomic function (atomic.LoadUint64, atomic.AddInt32,
// atomic.CompareAndSwapPointer, ...). A typed atomic (atomic.Uint64,
// atomic.Pointer[T], ...) keeps its word unexported, so a plain read or
// write of it cannot compile; a word reached through the functions is a
// plain variable that any other line may touch without them, a data race
// the race detector only reports when a test happens to interleave the two.
var AtomicHygiene = &Analyzer{
	Name: "atomichygiene",
	Doc:  "use typed atomics, not the package-level sync/atomic functions",
	Run:  runAtomicHygiene,
}

func runAtomicHygiene(pass *Pass) {
	for id, obj := range pass.Pkg.Info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
			continue
		}
		if fn.Type().(*types.Signature).Recv() != nil {
			continue // a typed atomic's method
		}
		pass.Reportf(id.Pos(), "atomic.%s on a plain word: use a typed atomic (atomic.Uint64, atomic.Pointer[T], ...)", fn.Name())
	}
}
