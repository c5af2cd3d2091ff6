//go:build !amd64

package tensor

// matMulTransBPanels covers no columns: the portable kernel computes them all.
func matMulTransBPanels(dst, a, bt *Mat) int { return 0 }
