// Package slab is the request path's recycled storage. A request builds
// thousands of small objects — plan nodes, predicate atoms, feature vectors —
// that all die together when the response is written; carving them off a few
// slabs that the next request reuses turns that garbage into none.
package slab

import "reflect"

// Slab hands out zeroed slices of T carved off one backing array. It starts
// empty and grows on demand: when a request outgrows the current array a
// larger one replaces it (slices already handed out keep the old one alive),
// so after a request or two a Slab has the size its traffic needs and Carve
// no longer allocates. Reset recycles the array; everything carved before it
// is dead to the caller from then on. The zero value is ready to use.
type Slab[T any] struct {
	free  []T // unused tail of chunk
	chunk []T // the current backing array, whole
	used  int // elements carved since Reset
	bytes int // size of chunk in bytes
	// recycled is set once chunk has been handed out before: only then does
	// Carve have anything to zero.
	recycled bool
}

// Carve returns the next n elements, zeroed, capped so an append to one
// carving can never run into its neighbour. Recycled memory is zeroed here,
// where it is handed out, not in Reset: callers write into assumed zeros.
//
// costlint:noalloc
func (s *Slab[T]) Carve(n int) []T {
	if n > len(s.free) {
		s.grow(n)
	}
	v := s.free[:n:n]
	s.free = s.free[n:]
	s.used += n
	if s.recycled {
		clear(v)
	}
	return v
}

// One carves a single element.
//
// costlint:noalloc
func (s *Slab[T]) One() *T { return &s.Carve(1)[0] }

// grow replaces the backing array with one that has room for n more elements:
// at least double the old one, and at least what this cycle has used so far.
func (s *Slab[T]) grow(n int) {
	s.replace(max(2*len(s.chunk), s.used+n, 16))
}

func (s *Slab[T]) replace(size int) {
	s.chunk = make([]T, size)
	s.free = s.chunk
	s.bytes = size * int(reflect.TypeFor[T]().Size())
	s.recycled = false
}

// Reserve makes room for n elements up front, for a caller that knows its
// size and will not recycle the slab.
func (s *Slab[T]) Reserve(n int) {
	if n > len(s.free) {
		s.replace(n)
	}
}

// Reset recycles the backing array.
//
// costlint:noalloc
func (s *Slab[T]) Reset() {
	s.free = s.chunk
	s.used = 0
	s.recycled = true
}

// Bytes is the size of the backing array a Reset keeps.
func (s *Slab[T]) Bytes() int { return s.bytes }
