// Package tensor provides the small dense linear-algebra kernel that the
// neural-network stack is built on: vectors, row-major matrices, matrix-vector
// products, outer-product accumulation and elementwise operations.
//
// Everything is float64 and allocation-conscious: all hot-path functions take
// destination slices so training loops can preallocate buffers.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Vec is a dense float64 vector.
type Vec = []float64

// Mat is a dense row-major matrix: element (i, j) is Data[i*Cols+j].
type Mat struct {
	Rows, Cols int
	Data       []float64
}

// NewMat returns a zeroed Rows x Cols matrix.
func NewMat(rows, cols int) *Mat {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: invalid matrix shape %dx%d", rows, cols))
	}
	return &Mat{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// Row returns a view (not a copy) of row i.
func (m *Mat) Row(i int) Vec { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Zero resets all elements to zero.
func (m *Mat) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// XavierInit fills m with uniform Xavier/Glorot initialization using rng,
// which keeps forward/backward variance stable for tanh/sigmoid layers.
func (m *Mat) XavierInit(rng *rand.Rand) {
	limit := math.Sqrt(6.0 / float64(m.Rows+m.Cols))
	for i := range m.Data {
		m.Data[i] = (rng.Float64()*2 - 1) * limit
	}
}

// MatVec computes dst = m * x. dst must have length m.Rows and x length
// m.Cols; dst must not alias x.
//
// Rows are processed four at a time so each element of x is loaded once per
// row quad, with one sequential accumulator chain per row (dotKernel's
// canonical order — remainder rows call it directly), so every output
// element is bit-identical to a plain dotKernel over its row.
//
// costlint:noalloc
func MatVec(dst Vec, m *Mat, x Vec) {
	if len(dst) != m.Rows || len(x) != m.Cols {
		panic(fmt.Sprintf("tensor: MatVec shape mismatch: m %dx%d, x %d, dst %d", m.Rows, m.Cols, len(x), len(dst)))
	}
	c := m.Cols
	i := 0
	for ; i+4 <= m.Rows; i += 4 {
		r0 := m.Data[i*c : i*c+c]
		r1 := m.Data[(i+1)*c : (i+1)*c+c]
		r2 := m.Data[(i+2)*c : (i+2)*c+c]
		r3 := m.Data[(i+3)*c : (i+3)*c+c]
		var s0, s1, s2, s3 float64
		for j, xv := range x {
			s0 += r0[j] * xv
			s1 += r1[j] * xv
			s2 += r2[j] * xv
			s3 += r3[j] * xv
		}
		dst[i] = s0
		dst[i+1] = s1
		dst[i+2] = s2
		dst[i+3] = s3
	}
	for ; i < m.Rows; i++ {
		dst[i] = dotKernel(m.Data[i*c:i*c+c], x)
	}
}

// MatVecAdd computes dst = m*x + b.
func MatVecAdd(dst Vec, m *Mat, x, b Vec) {
	MatVec(dst, m, x)
	AddTo(dst, b)
}

// MatTVec computes dst = mᵀ * x (used for input gradients). dst must have
// length m.Cols and x length m.Rows; dst must not alias x.
func MatTVec(dst Vec, m *Mat, x Vec) {
	if len(dst) != m.Cols || len(x) != m.Rows {
		panic(fmt.Sprintf("tensor: MatTVec shape mismatch: m %dx%d, x %d, dst %d", m.Rows, m.Cols, len(x), len(dst)))
	}
	for j := range dst {
		dst[j] = 0
	}
	for i := 0; i < m.Rows; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		axpyKernel(xi, m.Data[i*m.Cols:(i+1)*m.Cols], dst)
	}
}

// AddOuter accumulates dst += a ⊗ b (outer product), the weight-gradient
// update for a linear layer with upstream gradient a and input b.
func AddOuter(dst *Mat, a, b Vec) {
	if len(a) != dst.Rows || len(b) != dst.Cols {
		panic(fmt.Sprintf("tensor: AddOuter shape mismatch: dst %dx%d, a %d, b %d", dst.Rows, dst.Cols, len(a), len(b)))
	}
	for i, ai := range a {
		if ai == 0 {
			continue
		}
		row := dst.Data[i*dst.Cols : (i+1)*dst.Cols]
		for j, bj := range b {
			row[j] += ai * bj
		}
	}
}

// AddTo computes dst += src elementwise.
//
// costlint:noalloc
func AddTo(dst, src Vec) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("tensor: AddTo length mismatch %d vs %d", len(dst), len(src)))
	}
	for i, v := range src {
		dst[i] += v
	}
}

// AddVecsInto accumulates dst += Σ srcs[k] elementwise. Each destination
// element is summed in strict left-to-right source order —
// ((dst[i] + srcs[0][i]) + srcs[1][i]) + … — so the result is a function of
// the argument order alone, never of how many goroutines produced the
// sources. This is the deterministic gradient-reduction kernel of the
// data-parallel trainer: per-shard gradient ParamSets are reduced into the
// shared optimizer state in fixed shard order, which is what makes training
// results invariant under the worker count. Sources are streamed in pairs so
// each destination element is loaded once per source pair.
//
// costlint:noalloc
func AddVecsInto(dst Vec, srcs ...Vec) {
	for _, s := range srcs {
		if len(s) != len(dst) {
			panic(fmt.Sprintf("tensor: AddVecsInto length mismatch %d vs %d", len(dst), len(s)))
		}
	}
	k := 0
	for ; k+2 <= len(srcs); k += 2 {
		s0, s1 := srcs[k], srcs[k+1]
		s1 = s1[:len(s0)]
		for i, v := range s0 {
			// Left-to-right: (dst + s0) + s1 — the canonical ordered sum.
			dst[i] = dst[i] + v + s1[i]
		}
	}
	if k < len(srcs) {
		AddTo(dst, srcs[k])
	}
}

// Scale computes dst *= alpha elementwise.
func Scale(dst Vec, alpha float64) {
	for i := range dst {
		dst[i] *= alpha
	}
}

// Copy copies src into dst.
func Copy(dst, src Vec) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("tensor: Copy length mismatch %d vs %d", len(dst), len(src)))
	}
	copy(dst, src)
}

// ZeroVec resets all elements of v to zero.
func ZeroVec(v Vec) {
	for i := range v {
		v[i] = 0
	}
}

// Dot returns the inner product of a and b.
//
// costlint:noalloc
func Dot(a, b Vec) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("tensor: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	return dotKernel(a, b)
}

// dotKernel is the canonical inner product: one accumulator summed in
// strictly ascending index order.
//
// Sequential order is the bit-level contract every forward-path kernel obeys
// for each output element: MatVec's row quads, MatMulTransBInto's portable
// 2×2 block and each lane of its AVX2 panels keep one sequential chain per
// output, rounding each multiply and each add (no FMA; their ILP comes from
// computing several outputs at once, not from splitting one sum), and
// remainder rows/columns call dotKernel directly. An output element
// therefore depends only on its two operand vectors — never on which kernel
// computed it, its position inside a level, or how a batch was composed.
// That determinism is what lets the representation memory pool share
// entries between batches of any size and composition, and what lets the
// hot-swap serving tests replay any served estimate single-threaded and
// compare bit for bit. Do not "optimize" this into multiple accumulator
// chains without restructuring every blocked kernel to match.
//
// costlint:noalloc
func dotKernel(a, b Vec) float64 {
	b = b[:len(a)]
	var s float64
	for i, av := range a {
		s += av * b[i]
	}
	return s
}

// Sum returns the sum of the elements of v, accumulated in strictly
// ascending index order — the same canonical single-chain order as
// dotKernel. Complete float64 reductions outside this package must route
// through Sum (or Dot) so that one accumulation order governs every
// order-sensitive result; the canonicaldot analyzer enforces this.
//
// costlint:noalloc
func Sum(v Vec) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// axpyKernel computes y += alpha*x with a 4-way unrolled loop.
//
// costlint:noalloc
func axpyKernel(alpha float64, x, y Vec) {
	y = y[:len(x)]
	n := len(x) &^ 3
	for i := 0; i < n; i += 4 {
		y[i] += alpha * x[i]
		y[i+1] += alpha * x[i+1]
		y[i+2] += alpha * x[i+2]
		y[i+3] += alpha * x[i+3]
	}
	for i := n; i < len(x); i++ {
		y[i] += alpha * x[i]
	}
}

// Mean computes dst = (a+b)/2 elementwise.
func Mean(dst, a, b Vec) {
	if len(dst) != len(a) || len(a) != len(b) {
		panic("tensor: Mean length mismatch")
	}
	for i := range dst {
		dst[i] = (a[i] + b[i]) / 2
	}
}

// MinInto computes dst = min(a, b) elementwise.
func MinInto(dst, a, b Vec) {
	if len(dst) != len(a) || len(a) != len(b) {
		panic("tensor: MinInto length mismatch")
	}
	for i := range dst {
		dst[i] = math.Min(a[i], b[i])
	}
}

// AddColumn accumulates dst += scale * column j of m (dst length m.Rows).
// Sparse inputs (one-hot and bitmap features) turn a dense MatVec into a few
// column adds.
func AddColumn(dst Vec, m *Mat, j int, scale float64) {
	for i := 0; i < m.Rows; i++ {
		dst[i] += scale * m.Data[i*m.Cols+j]
	}
}

// AddToColumn accumulates column j of m += scale * v (v length m.Rows) —
// the gradient-side mirror of AddColumn: a linear layer's weight gradient
// against a sparse input touches only the columns of the set bits.
func AddToColumn(m *Mat, j int, scale float64, v Vec) {
	for i := 0; i < m.Rows; i++ {
		m.Data[i*m.Cols+j] += scale * v[i]
	}
}

// MatMulTransBInto computes dst = a * bᵀ for row-major matrices
// (a: m×k, bt: n×k, dst: m×n). Both operands stream contiguous rows — the
// cache-friendly kernel for level-batched evaluation, where bt holds one
// node's input per row. Each element is dotKernel's chain over its operand
// rows: AVX2 panels of four columns on amd64 (one chain per lane, no FMA),
// the portable kernel for the n mod 4 last columns and everywhere else.
//
// costlint:noalloc
func MatMulTransBInto(dst, a, bt *Mat) {
	if a.Cols != bt.Cols || dst.Rows != a.Rows || dst.Cols != bt.Rows {
		panic(fmt.Sprintf("tensor: MatMulTransBInto shape mismatch: a %dx%d, bt %dx%d, dst %dx%d",
			a.Rows, a.Cols, bt.Rows, bt.Cols, dst.Rows, dst.Cols))
	}
	matMulTransBCols(dst, a, bt, matMulTransBPanels(dst, a, bt))
}

// matMulTransBCols is the portable kernel: it computes columns [j0, n) of
// dst = a * btᵀ. 2×2 register blocking makes each pass over k feed four dot
// products, so every loaded element of a and bt is used twice; an odd last
// column runs its two row chains in one loop. Each accumulator sums in
// dotKernel's canonical sequential order, so an element is bit-identical
// wherever it falls in the blocking and however large a level was.
//
// costlint:noalloc
func matMulTransBCols(dst, a, bt *Mat, j0 int) {
	k := a.Cols
	n := bt.Rows
	i := 0
	for ; i+2 <= a.Rows; i += 2 {
		a0 := a.Data[i*k : i*k+k]
		a1 := a.Data[(i+1)*k:][:len(a0)]
		d0 := dst.Data[i*dst.Cols : i*dst.Cols+n]
		d1 := dst.Data[(i+1)*dst.Cols : (i+1)*dst.Cols+n]
		j := j0
		for ; j+2 <= n; j += 2 {
			b0 := bt.Data[j*k:][:len(a0)]
			b1 := bt.Data[(j+1)*k:][:len(a0)]
			var s00, s01, s10, s11 float64
			for l, av0 := range a0 {
				av1 := a1[l]
				bv0 := b0[l]
				bv1 := b1[l]
				s00 += av0 * bv0
				s01 += av0 * bv1
				s10 += av1 * bv0
				s11 += av1 * bv1
			}
			d0[j] = s00
			d0[j+1] = s01
			d1[j] = s10
			d1[j+1] = s11
		}
		if j < n {
			b0 := bt.Data[j*k:][:len(a0)]
			var s0, s1 float64
			for l, av0 := range a0 {
				bv := b0[l]
				s0 += av0 * bv
				s1 += a1[l] * bv
			}
			d0[j], d1[j] = s0, s1
		}
	}
	if i < a.Rows {
		aRow := a.Data[i*k : i*k+k]
		dRow := dst.Data[i*dst.Cols : i*dst.Cols+n]
		for j := j0; j < n; j++ {
			dRow[j] = dotKernel(aRow, bt.Data[j*k:j*k+k])
		}
	}
}

// axpy2Kernel computes y += a0*x0 + a1*x1 with a 4-way unrolled loop — the
// shared inner kernel of the accumulate-GEMMs, which process two source rows
// per pass so every destination element is loaded once per row pair.
func axpy2Kernel(a0 float64, x0 Vec, a1 float64, x1 Vec, y Vec) {
	x1 = x1[:len(x0)]
	y = y[:len(x0)]
	n := len(x0) &^ 3
	for i := 0; i < n; i += 4 {
		y[i] += a0*x0[i] + a1*x1[i]
		y[i+1] += a0*x0[i+1] + a1*x1[i+1]
		y[i+2] += a0*x0[i+2] + a1*x1[i+2]
		y[i+3] += a0*x0[i+3] + a1*x1[i+3]
	}
	for i := n; i < len(x0); i++ {
		y[i] += a0*x0[i] + a1*x1[i]
	}
}

// AddMatMulInto accumulates dst += a * b for row-major matrices (a: m×k,
// b: k×n, dst: m×n). This is the input-gradient GEMM of the level-wise
// backward pass: dZ += dGates·W with one node per row of a and dst. The
// 2×2 blocking mirrors MatMulTransBInto — two rows of a advance together
// through k, so each streamed row of b feeds two destination rows.
func AddMatMulInto(dst, a, b *Mat) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: AddMatMulInto shape mismatch: a %dx%d, b %dx%d, dst %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	k := a.Cols
	i := 0
	for ; i+2 <= a.Rows; i += 2 {
		a0 := a.Data[i*k : i*k+k]
		a1 := a.Data[(i+1)*k : (i+1)*k+k]
		d0 := dst.Data[i*dst.Cols : (i+1)*dst.Cols]
		d1 := dst.Data[(i+1)*dst.Cols : (i+2)*dst.Cols]
		l := 0
		for ; l+2 <= k; l += 2 {
			b0 := b.Data[l*b.Cols : (l+1)*b.Cols]
			b1 := b.Data[(l+1)*b.Cols : (l+2)*b.Cols]
			axpy2Kernel(a0[l], b0, a0[l+1], b1, d0)
			axpy2Kernel(a1[l], b0, a1[l+1], b1, d1)
		}
		if l < k {
			bRow := b.Data[l*b.Cols : (l+1)*b.Cols]
			axpyKernel(a0[l], bRow, d0)
			axpyKernel(a1[l], bRow, d1)
		}
	}
	if i < a.Rows {
		aRow := a.Data[i*k : i*k+k]
		dRow := dst.Data[i*dst.Cols : (i+1)*dst.Cols]
		for l, av := range aRow {
			if av == 0 {
				continue
			}
			axpyKernel(av, b.Data[l*b.Cols:(l+1)*b.Cols], dRow)
		}
	}
}

// MatMulTransAInto accumulates dst += aᵀ * b for row-major matrices
// (a: k×m, b: k×n, dst: m×n). This is the weight-gradient GEMM of the
// level-wise backward pass: with one node per row of a (upstream gate
// gradients) and b (layer inputs), dW += dGᵀ·Z sums every node's outer
// product in a single cache-friendly sweep. Two rows of a/b are processed
// per pass (the 2×2 blocking of MatMulTransBInto transposed), and zero
// gradient pairs skip their row updates — sparse upstream gradients (ReLU
// kills, unsupervised heads) cost nothing.
func MatMulTransAInto(dst, a, b *Mat) {
	if a.Rows != b.Rows || dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulTransAInto shape mismatch: a %dx%d, b %dx%d, dst %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	m := a.Cols
	l := 0
	for ; l+2 <= a.Rows; l += 2 {
		aRow0 := a.Data[l*m : (l+1)*m]
		aRow1 := a.Data[(l+1)*m : (l+2)*m]
		bRow0 := b.Data[l*b.Cols : (l+1)*b.Cols]
		bRow1 := b.Data[(l+1)*b.Cols : (l+2)*b.Cols]
		for i := 0; i < m; i++ {
			a0, a1 := aRow0[i], aRow1[i]
			if a0 == 0 && a1 == 0 {
				continue
			}
			axpy2Kernel(a0, bRow0, a1, bRow1, dst.Data[i*dst.Cols:(i+1)*dst.Cols])
		}
	}
	if l < a.Rows {
		aRow := a.Data[l*m : (l+1)*m]
		bRow := b.Data[l*b.Cols : (l+1)*b.Cols]
		for i, av := range aRow {
			if av == 0 {
				continue
			}
			axpyKernel(av, bRow, dst.Data[i*dst.Cols:(i+1)*dst.Cols])
		}
	}
}

// AddColumnSums accumulates dst[j] += Σ_i m[i,j] — the bias-gradient
// companion of MatMulTransAInto (summing a level's per-node gate gradients).
func AddColumnSums(dst Vec, m *Mat) {
	if len(dst) != m.Cols {
		panic(fmt.Sprintf("tensor: AddColumnSums length mismatch: dst %d, m %dx%d", len(dst), m.Rows, m.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		AddTo(dst, m.Data[i*m.Cols:(i+1)*m.Cols])
	}
}

// MaxInto computes dst = max(a, b) elementwise.
func MaxInto(dst, a, b Vec) {
	if len(dst) != len(a) || len(a) != len(b) {
		panic("tensor: MaxInto length mismatch")
	}
	for i := range dst {
		dst[i] = math.Max(a[i], b[i])
	}
}
