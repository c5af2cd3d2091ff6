package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMatVec(t *testing.T) {
	m := NewMat(2, 3)
	copy(m.Data, []float64{1, 2, 3, 4, 5, 6})
	x := Vec{1, 0, -1}
	dst := NewVec(2)
	MatVec(dst, m, x)
	if !almostEqual(dst[0], -2) || !almostEqual(dst[1], -2) {
		t.Fatalf("MatVec = %v, want [-2 -2]", dst)
	}
}

func TestMatVecAdd(t *testing.T) {
	m := NewMat(2, 2)
	copy(m.Data, []float64{1, 0, 0, 1})
	dst := NewVec(2)
	MatVecAdd(dst, m, Vec{3, 4}, Vec{1, -1})
	if !almostEqual(dst[0], 4) || !almostEqual(dst[1], 3) {
		t.Fatalf("MatVecAdd = %v, want [4 3]", dst)
	}
}

func TestMatTVec(t *testing.T) {
	m := NewMat(2, 3)
	copy(m.Data, []float64{1, 2, 3, 4, 5, 6})
	x := Vec{1, 1}
	dst := NewVec(3)
	MatTVec(dst, m, x)
	want := Vec{5, 7, 9}
	for i := range want {
		if !almostEqual(dst[i], want[i]) {
			t.Fatalf("MatTVec = %v, want %v", dst, want)
		}
	}
}

// MatTVec must agree with an explicit transpose followed by MatVec.
func TestMatTVecMatchesExplicitTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := NewMat(5, 4)
	m.XavierInit(rng)
	x := NewVec(5)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	got := NewVec(4)
	MatTVec(got, m, x)

	mt := NewMat(4, 5)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			mt.Set(j, i, m.At(i, j))
		}
	}
	want := NewVec(4)
	MatVec(want, mt, x)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("MatTVec mismatch at %d: %g vs %g", i, got[i], want[i])
		}
	}
}

func TestAddOuter(t *testing.T) {
	m := NewMat(2, 2)
	AddOuter(m, Vec{1, 2}, Vec{3, 4})
	want := []float64{3, 4, 6, 8}
	for i := range want {
		if !almostEqual(m.Data[i], want[i]) {
			t.Fatalf("AddOuter = %v, want %v", m.Data, want)
		}
	}
	// Accumulation, not overwrite.
	AddOuter(m, Vec{1, 0}, Vec{1, 1})
	if !almostEqual(m.At(0, 0), 4) || !almostEqual(m.At(0, 1), 5) {
		t.Fatalf("AddOuter should accumulate, got %v", m.Data)
	}
}

func TestMinMaxMean(t *testing.T) {
	a, b := Vec{1, 5, -2}, Vec{3, 2, -2}
	dst := NewVec(3)
	MinInto(dst, a, b)
	if dst[0] != 1 || dst[1] != 2 || dst[2] != -2 {
		t.Fatalf("MinInto = %v", dst)
	}
	MaxInto(dst, a, b)
	if dst[0] != 3 || dst[1] != 5 || dst[2] != -2 {
		t.Fatalf("MaxInto = %v", dst)
	}
	Mean(dst, a, b)
	if dst[0] != 2 || dst[1] != 3.5 || dst[2] != -2 {
		t.Fatalf("Mean = %v", dst)
	}
}

// Property: dot(Mx, y) == dot(x, Mᵀy) (adjoint identity backprop relies on).
func TestAdjointProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 1+rng.Intn(8), 1+rng.Intn(8)
		m := NewMat(rows, cols)
		m.XavierInit(rng)
		x, y := NewVec(cols), NewVec(rows)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		for i := range y {
			y[i] = rng.NormFloat64()
		}
		mx := NewVec(rows)
		MatVec(mx, m, x)
		mty := NewVec(cols)
		MatTVec(mty, m, y)
		return math.Abs(Dot(mx, y)-Dot(x, mty)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: min(a,b) <= mean(a,b) <= max(a,b) elementwise.
func TestPoolingBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(16)
		a, b := NewVec(n), NewVec(n)
		for i := range a {
			a[i], b[i] = rng.NormFloat64(), rng.NormFloat64()
		}
		lo, mid, hi := NewVec(n), NewVec(n), NewVec(n)
		MinInto(lo, a, b)
		Mean(mid, a, b)
		MaxInto(hi, a, b)
		for i := range lo {
			if lo[i] > mid[i]+1e-12 || mid[i] > hi[i]+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestScaleAddScaled(t *testing.T) {
	v := Vec{1, 2, 3}
	Scale(v, 2)
	if v[0] != 2 || v[2] != 6 {
		t.Fatalf("Scale = %v", v)
	}
	AddScaled(v, -1, Vec{2, 4, 6})
	if Norm2(v) != 0 {
		t.Fatalf("AddScaled = %v, want zeros", v)
	}
}

// TestAddVecsInto pins the reduction kernel's ordered-sum contract: for any
// source count (covering the pair-blocked loop and its odd remainder), the
// result must be bit-identical to the strict left-to-right accumulation
// dst += s0; dst += s1; … — the order the data-parallel gradient reduction
// relies on for scheduling-invariant training.
func TestAddVecsInto(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n = 37
	for _, k := range []int{0, 1, 2, 3, 4, 5, 8} {
		srcs := make([]Vec, k)
		for s := range srcs {
			srcs[s] = NewVec(n)
			for i := range srcs[s] {
				srcs[s][i] = rng.NormFloat64()
			}
		}
		got := NewVec(n)
		want := NewVec(n)
		for i := 0; i < n; i++ {
			got[i] = rng.NormFloat64()
			want[i] = got[i]
		}
		AddVecsInto(got, srcs...)
		for _, s := range srcs {
			AddTo(want, s)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("k=%d: AddVecsInto[%d] = %g, ordered reference = %g", k, i, got[i], want[i])
			}
		}
	}
}

func BenchmarkAddVecsInto(b *testing.B) {
	const n = 4096
	srcs := make([]Vec, 4)
	for s := range srcs {
		srcs[s] = NewVec(n)
		for i := range srcs[s] {
			srcs[s][i] = float64(s*n + i)
		}
	}
	dst := NewVec(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AddVecsInto(dst, srcs...)
	}
}

func TestInitDistributions(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := NewMat(64, 64)
	m.XavierInit(rng)
	limit := math.Sqrt(6.0 / 128.0)
	for _, v := range m.Data {
		if v < -limit || v > limit {
			t.Fatalf("Xavier value %g outside [-%g, %g]", v, limit, limit)
		}
	}
	m.KaimingInit(rng)
	var mean float64
	for _, v := range m.Data {
		mean += v
	}
	mean /= float64(len(m.Data))
	if math.Abs(mean) > 0.05 {
		t.Fatalf("Kaiming mean = %g, want ~0", mean)
	}
}

func TestShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on shape mismatch")
		}
	}()
	MatVec(NewVec(3), NewMat(2, 2), NewVec(2))
}

// ---- Kernel microbenchmarks (hot-path trajectory tracked in BENCH_*.json) ----

func benchRng() *rand.Rand { return rand.New(rand.NewSource(7)) }

func randVec(rng *rand.Rand, n int) Vec {
	v := NewVec(n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func randMat(rng *rand.Rand, r, c int) *Mat {
	m := NewMat(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

var sinkF float64

func BenchmarkDot(b *testing.B) {
	rng := benchRng()
	x := randVec(rng, 256)
	y := randVec(rng, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkF = Dot(x, y)
	}
}

func BenchmarkMatVec(b *testing.B) {
	rng := benchRng()
	m := randMat(rng, 64, 128)
	x := randVec(rng, 128)
	dst := NewVec(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatVec(dst, m, x)
	}
}

func BenchmarkMatMulTransBInto(b *testing.B) {
	rng := benchRng()
	a := randMat(rng, 64, 96)
	bt := randMat(rng, 48, 96)
	dst := NewMat(64, 48)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulTransBInto(dst, a, bt)
	}
}

func BenchmarkMatMulInto(b *testing.B) {
	rng := benchRng()
	a := randMat(rng, 64, 96)
	bm := randMat(rng, 96, 48)
	dst := NewMat(64, 48)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulInto(dst, a, bm)
	}
}

// naiveAccum computes want += a(opA) * b(opB) elementwise for the accumulate
// GEMM tests.
func naiveAddMatMul(dst, a, b *Mat, transA bool) {
	for i := 0; i < dst.Rows; i++ {
		for j := 0; j < dst.Cols; j++ {
			var s float64
			if transA {
				for l := 0; l < a.Rows; l++ {
					s += a.At(l, i) * b.At(l, j)
				}
			} else {
				for l := 0; l < a.Cols; l++ {
					s += a.At(i, l) * b.At(l, j)
				}
			}
			dst.Data[i*dst.Cols+j] += s
		}
	}
}

func TestAddMatMulInto(t *testing.T) {
	rng := benchRng()
	for _, shape := range []struct{ m, k, n int }{{1, 1, 1}, {2, 3, 4}, {5, 7, 9}, {16, 48, 33}, {7, 2, 16}} {
		a := randMat(rng, shape.m, shape.k)
		bm := randMat(rng, shape.k, shape.n)
		dst := randMat(rng, shape.m, shape.n)
		want := dst.Clone()
		naiveAddMatMul(want, a, bm, false)
		AddMatMulInto(dst, a, bm)
		for i := range dst.Data {
			if math.Abs(dst.Data[i]-want.Data[i]) > 1e-10 {
				t.Fatalf("%dx%dx%d: dst[%d] = %g, want %g", shape.m, shape.k, shape.n, i, dst.Data[i], want.Data[i])
			}
		}
	}
}

func TestMatMulTransAInto(t *testing.T) {
	rng := benchRng()
	for _, shape := range []struct{ k, m, n int }{{1, 1, 1}, {3, 2, 4}, {7, 5, 9}, {48, 16, 33}, {2, 7, 16}} {
		a := randMat(rng, shape.k, shape.m)
		bm := randMat(rng, shape.k, shape.n)
		dst := randMat(rng, shape.m, shape.n)
		want := dst.Clone()
		naiveAddMatMul(want, a, bm, true)
		MatMulTransAInto(dst, a, bm)
		for i := range dst.Data {
			if math.Abs(dst.Data[i]-want.Data[i]) > 1e-10 {
				t.Fatalf("%dx%dx%d: dst[%d] = %g, want %g", shape.k, shape.m, shape.n, i, dst.Data[i], want.Data[i])
			}
		}
	}
}

// The weight-gradient GEMM must agree with a loop of per-node outer products
// (the per-sample backward it replaces).
func TestMatMulTransAIntoMatchesAddOuter(t *testing.T) {
	rng := benchRng()
	const nodes, dh, in = 11, 6, 14
	dG := randMat(rng, nodes, dh)
	z := randMat(rng, nodes, in)
	got := NewMat(dh, in)
	want := NewMat(dh, in)
	for j := 0; j < nodes; j++ {
		AddOuter(want, dG.Row(j), z.Row(j))
	}
	MatMulTransAInto(got, dG, z)
	for i := range got.Data {
		if math.Abs(got.Data[i]-want.Data[i]) > 1e-10 {
			t.Fatalf("got[%d] = %g, want %g", i, got.Data[i], want.Data[i])
		}
	}
}

func TestAddColumnSums(t *testing.T) {
	rng := benchRng()
	m := randMat(rng, 9, 5)
	dst := randVec(rng, 5)
	want := append(Vec(nil), dst...)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			want[j] += m.At(i, j)
		}
	}
	AddColumnSums(dst, m)
	for j := range dst {
		if math.Abs(dst[j]-want[j]) > 1e-12 {
			t.Fatalf("dst[%d] = %g, want %g", j, dst[j], want[j])
		}
	}
}

func BenchmarkAddMatMulInto(b *testing.B) {
	rng := benchRng()
	a := randMat(rng, 64, 96)
	bm := randMat(rng, 96, 48)
	dst := NewMat(64, 48)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AddMatMulInto(dst, a, bm)
	}
}

func BenchmarkMatMulTransAInto(b *testing.B) {
	rng := benchRng()
	a := randMat(rng, 96, 64)
	bm := randMat(rng, 96, 48)
	dst := NewMat(64, 48)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulTransAInto(dst, a, bm)
	}
}

// TestCanonicalDotOrder pins the bit-level contract the serving runtime
// depends on: every forward kernel that emits a dot product — Dot, MatVec
// and MatMulTransBInto (both its 2×2-blocked interior and its remainder
// rows/columns) — must produce bit-identical results for the same
// operand vectors, across odd and even shapes. Representations stored in the
// memory pool by one path and consumed by another, and the hot-swap test's
// single-threaded replays, all assume this equality is exact, not
// approximate.
func TestCanonicalDotOrder(t *testing.T) {
	rng := benchRng()
	for _, shape := range []struct{ m, k, n int }{
		{1, 1, 1}, {2, 2, 2}, {3, 5, 3}, {4, 7, 5}, {16, 48, 24}, {7, 33, 9}, {5, 8, 1},
	} {
		a := randMat(rng, shape.m, shape.k)
		bt := randMat(rng, shape.n, shape.k)
		gemm := NewMat(shape.m, shape.n)
		MatMulTransBInto(gemm, a, bt)

		mv := NewVec(shape.m)
		for j := 0; j < shape.n; j++ {
			x := bt.Row(j)
			MatVec(mv, a, x)
			for i := 0; i < shape.m; i++ {
				want := Dot(a.Row(i), x)
				if gemm.At(i, j) != want {
					t.Fatalf("%dx%dx%d: MatMulTransBInto[%d,%d] = %v, Dot = %v",
						shape.m, shape.k, shape.n, i, j, gemm.At(i, j), want)
				}
				if mv[i] != want {
					t.Fatalf("%dx%dx%d: MatVec[%d] = %v, Dot = %v",
						shape.m, shape.k, shape.n, i, mv[i], want)
				}
			}
		}
	}
}
