// Package fixture exercises the atomichygiene analyzer: a package-level
// sync/atomic function is flagged wherever it is named, called or taken as a
// value; a typed atomic's methods stay silent.
package fixture

import "sync/atomic"

type counter struct {
	n     uint64        // reached through atomic.AddUint64: flagged
	typed atomic.Uint64 // typed atomic: plain access cannot compile, never flagged
}

func (c *counter) inc() {
	atomic.AddUint64(&c.n, 1) // want `atomic\.AddUint64 on a plain word: use a typed atomic`
	c.typed.Add(1)
}

func (c *counter) read() uint64 {
	return c.n + c.typed.Load()
}

var pkgFlag uint32

var store = atomic.StoreUint32 // want `atomic\.StoreUint32 on a plain word`

func raiseFlag() {
	store(&pkgFlag, 1)
}
