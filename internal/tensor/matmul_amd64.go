package tensor

// hasAVX2 reports whether the CPU has AVX and AVX2 and the OS saves the YMM
// registers (XCR0 bits 1 and 2); it is checked once, at init. XGETBV runs
// only where CPUID reports OSXSAVE.
var hasAVX2 = func() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	_, _, ecx1, _ := cpuid(1, 0)
	_, ebx7, _, _ := cpuid(7, 0)
	const osxsaveAVX = 1<<27 | 1<<28
	return maxLeaf >= 7 && ecx1&osxsaveAVX == osxsaveAVX && ebx7&(1<<5) != 0 && xgetbv()&6 == 6
}()

// matMulTransBPanels computes the columns of dst = a * btᵀ that whole
// four-column panels cover, with the AVX2 kernel, and returns how many: 0
// without AVX2, for n < 4 or for an empty a. Go finishes each chain's last
// k mod 4 steps, in order, from the value the kernel stored.
//
// costlint:noalloc
func matMulTransBPanels(dst, a, bt *Mat) int {
	m, k, n := a.Rows, a.Cols, bt.Rows
	n4, k4 := n&^3, k&^3
	if !hasAVX2 || n4 == 0 || m == 0 || k == 0 {
		return 0
	}
	// The slicing bounds-checks the operands the kernel reads unchecked.
	d, av, bv := dst.Data[:m*n], a.Data[:m*k], bt.Data[:n*k]
	clear(d)
	matMulTransB4(&d[0], &av[0], &bv[0], m, n4, k, n)
	for i := 0; k4 < k && i < m; i++ {
		for j := 0; j < n4; j++ {
			s := d[i*n+j]
			for l := k4; l < k; l++ {
				s += av[i*k+l] * bv[j*k+l]
			}
			d[i*n+j] = s
		}
	}
	return n4
}

//go:noescape
func matMulTransB4(dst, a, bt *float64, m, n, k, ld int)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax uint32)
