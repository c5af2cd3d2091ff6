package slab

import "testing"

// TestCarveZeroedAndDisjoint: carvings never overlap, cannot be appended into
// one another, survive the slab growing underneath them, and come back zeroed
// after a Reset whatever was written before it.
func TestCarveZeroedAndDisjoint(t *testing.T) {
	var s Slab[int]
	for cycle := 0; cycle < 3; cycle++ {
		var carved [][]int
		for n := 1; n <= 40; n++ { // 820 elements: several growths on cycle 0
			v := s.Carve(n)
			if len(v) != n || cap(v) != n {
				t.Fatalf("cycle %d: Carve(%d) has len %d cap %d", cycle, n, len(v), cap(v))
			}
			for i, x := range v {
				if x != 0 {
					t.Fatalf("cycle %d: Carve(%d)[%d] = %d, want 0", cycle, n, i, x)
				}
				v[i] = n
			}
			carved = append(carved, v)
		}
		for _, v := range carved {
			for i, x := range v {
				if x != len(v) {
					t.Fatalf("cycle %d: carving of %d overwritten at %d: %d", cycle, len(v), i, x)
				}
			}
		}
		s.Reset()
	}
	if got := s.Bytes(); got < 820*8 || got > 4*820*8 {
		t.Fatalf("Bytes() = %d after cycles of 820 ints", got)
	}
	*s.One() = 7
	s.Reset()
	if *s.One() != 0 {
		t.Fatal("One() returned a dirty element after Reset")
	}
}

// TestWarmCarveDoesNotAllocate: once a slab has seen its traffic, a cycle of
// the same size allocates nothing.
func TestWarmCarveDoesNotAllocate(t *testing.T) {
	var s Slab[[3]float64]
	cycle := func() {
		s.Reset()
		for n := 0; n < 100; n++ {
			s.Carve(n % 7)
		}
	}
	cycle()
	cycle() // a slab that grew mid-cycle fits the whole cycle from the next one on
	if avg := testing.AllocsPerRun(50, cycle); avg != 0 {
		t.Fatalf("warm cycle allocates %.1f times", avg)
	}
}
