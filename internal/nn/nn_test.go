package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"costest/internal/tensor"
)

// numericalGrad estimates dOut/dParam[i] for a scalar-valued forward function
// by central finite differences.
func numericalGrad(f func() float64, param []float64, i int) float64 {
	const h = 1e-6
	orig := param[i]
	param[i] = orig + h
	up := f()
	param[i] = orig - h
	down := f()
	param[i] = orig
	return (up - down) / (2 * h)
}

func TestLinearGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ps := NewParamSet()
	l := NewLinear(ps, "l", 4, 3, rng)
	x := make(tensor.Vec, 4)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	y := make(tensor.Vec, 3)
	// Scalar objective: sum(Wx+b).
	obj := func() float64 {
		l.Forward(y, x)
		var s float64
		for _, v := range y {
			s += v
		}
		return s
	}
	obj()
	ps.ZeroGrad()
	dy := tensor.Vec{1, 1, 1}
	dx := make(tensor.Vec, 4)
	l.Backward(dx, dy, x)

	for i := range l.W.Value {
		want := numericalGrad(obj, l.W.Value, i)
		if math.Abs(l.W.Grad[i]-want) > 1e-5 {
			t.Fatalf("W grad[%d] = %g, want %g", i, l.W.Grad[i], want)
		}
	}
	for i := range l.B.Value {
		want := numericalGrad(obj, l.B.Value, i)
		if math.Abs(l.B.Grad[i]-want) > 1e-5 {
			t.Fatalf("B grad[%d] = %g, want %g", i, l.B.Grad[i], want)
		}
	}
	for i := range x {
		want := numericalGrad(obj, x, i)
		if math.Abs(dx[i]-want) > 1e-5 {
			t.Fatalf("input grad[%d] = %g, want %g", i, dx[i], want)
		}
	}
}

func TestMLPGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ps := NewParamSet()
	m := NewMLP(ps, "mlp", []int{3, 5, 2}, ActSigmoid, rng)
	x := tensor.Vec{0.3, -0.7, 1.1}
	out := make(tensor.Vec, 2)
	obj := func() float64 {
		m.Forward(out, x)
		return out[0]*2 + out[1]*-1
	}
	obj()
	ps.ZeroGrad()
	dx := make(tensor.Vec, 3)
	m.Backward(dx, tensor.Vec{2, -1})

	for _, p := range ps.Params() {
		for i := range p.Value {
			want := numericalGrad(obj, p.Value, i)
			if math.Abs(p.Grad[i]-want) > 1e-5 {
				t.Fatalf("%s grad[%d] = %g, want %g", p.Name, i, p.Grad[i], want)
			}
		}
	}
	for i := range x {
		want := numericalGrad(obj, x, i)
		if math.Abs(dx[i]-want) > 1e-5 {
			t.Fatalf("input grad[%d] = %g, want %g", i, dx[i], want)
		}
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	ps := NewParamSet()
	p := ps.NewParam("x", 2, 1)
	p.Value[0], p.Value[1] = 5, -3
	opt := NewAdam(0.05)
	for i := 0; i < 2000; i++ {
		ps.ZeroGrad()
		// f(x) = (x0-1)^2 + (x1-2)^2
		p.Grad[0] = 2 * (p.Value[0] - 1)
		p.Grad[1] = 2 * (p.Value[1] - 2)
		opt.Step(ps)
	}
	if math.Abs(p.Value[0]-1) > 1e-2 || math.Abs(p.Value[1]-2) > 1e-2 {
		t.Fatalf("Adam did not converge: %v", p.Value)
	}
}

func TestMLPLearnsXOR(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ps := NewParamSet()
	m := NewMLP(ps, "xor", []int{2, 8, 1}, ActSigmoid, rng)
	opt := NewAdam(0.05)
	inputs := [][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	targets := []float64{0, 1, 1, 0}
	out := make(tensor.Vec, 1)
	for epoch := 0; epoch < 2000; epoch++ {
		ps.ZeroGrad()
		for k, in := range inputs {
			m.Forward(out, in)
			d := out[0] - targets[k]
			m.Backward(nil, tensor.Vec{2 * d})
		}
		opt.Step(ps)
	}
	for k, in := range inputs {
		m.Forward(out, in)
		if math.Abs(out[0]-targets[k]) > 0.2 {
			t.Fatalf("XOR(%v) = %g, want %g", in, out[0], targets[k])
		}
	}
}

func TestNormalizerRoundTrip(t *testing.T) {
	n := NewNormalizer([]float64{1, 10, 100, 100000}, CardFloor)
	for _, v := range []float64{1, 5, 99, 12345} {
		s := n.Normalize(v)
		if s < 0 || s > 1 {
			t.Fatalf("Normalize(%g) = %g out of [0,1]", v, s)
		}
		back := n.Denormalize(s)
		if math.Abs(math.Log(back)-math.Log(v)) > 1e-9 {
			t.Fatalf("round trip %g -> %g", v, back)
		}
	}
}

// The normalizer floors its fitting values at the head's floor: a cost head
// keeps sub-millisecond targets inside its range, a card head maps zero rows
// to one.
func TestNormalizerFloors(t *testing.T) {
	costs := NewNormalizer([]float64{0.05, 0.3, 1e4}, CostFloor)
	if d := costs.Denormalize(0); d > 0.05 {
		t.Fatalf("cost range starts at %g ms, above the cheapest target 0.05 ms", d)
	}
	cards := NewNormalizer([]float64{0, 1, 1e4}, CardFloor)
	if d := cards.Denormalize(0); d > 1 || d < 0.5 {
		t.Fatalf("card range starts at %g rows, want just below the 1-row floor", d)
	}
}

func TestNormalizerDegenerate(t *testing.T) {
	n := NewNormalizer([]float64{42, 42, 42}, CardFloor)
	s := n.Normalize(42)
	if math.IsNaN(s) || s < 0 || s > 1 {
		t.Fatalf("degenerate Normalize = %g", s)
	}
	if NewNormalizer(nil, CardFloor).Span() <= 0 {
		t.Fatal("empty normalizer must have positive span")
	}
}

// Property: q-error is symmetric and >= 1 under either head's floor.
func TestQErrorProperties(t *testing.T) {
	f := func(a, b float64) bool {
		a, b = math.Abs(a), math.Abs(b)
		for _, floor := range []float64{CostFloor, CardFloor} {
			q := QError(a, b, floor)
			if q < 1 || math.Abs(q-QError(b, a, floor)) > 1e-12*q {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQErrorExact(t *testing.T) {
	if q := QError(10, 10, CardFloor); q != 1 {
		t.Fatalf("QError(10,10) = %g", q)
	}
	if q := QError(100, 10, CardFloor); q != 10 {
		t.Fatalf("QError(100,10) = %g", q)
	}
	if q := QError(0, 10, CardFloor); q != 10 { // zero rows floored to one
		t.Fatalf("QError(0,10) = %g", q)
	}
	// The cost floor keeps sub-millisecond plans apart.
	if q := QError(0.05, 0.5, CostFloor); math.Abs(q-10) > 1e-12 {
		t.Fatalf("QError(0.05 ms, 0.5 ms) = %g, want 10", q)
	}
	if q := QError(0, 0.5, CostFloor); math.Abs(q-50) > 1e-12 {
		t.Fatalf("QError(0 ms, 0.5 ms) = %g, want 50", q)
	}
}

func TestQErrorLossGradientDirection(t *testing.T) {
	for _, floor := range []float64{CostFloor, CardFloor} {
		norm := NewNormalizer([]float64{floor, floor * 1e6}, floor)
		l := QErrorLoss{Norm: norm, Floor: floor}
		truth := floor * 1000
		sTrue := norm.Normalize(truth)
		// Overestimate: positive gradient pushes s down.
		if _, g := l.Eval(sTrue+0.2, truth); g <= 0 {
			t.Fatalf("floor %g: overestimate gradient = %g, want > 0", floor, g)
		}
		// Underestimate: negative gradient pushes s up, below the floor too.
		for _, s := range []float64{sTrue - 0.2, 0} {
			if _, g := l.Eval(s, truth); g >= 0 {
				t.Fatalf("floor %g: underestimate gradient at s=%g is %g, want < 0", floor, s, g)
			}
		}
	}
}

// TestQErrorLossMatchesNumericalGradient checks Eval against finite
// differences of its own loss, for each head's floor, at estimates below, at
// and above the floor, with truths on both sides of it. Above the floor the
// gradient is the central difference. Below it the loss is flat (central
// difference 0): Eval returns 0 when the truth floors too, and otherwise the
// derivative just above the floor. At the floor it returns the documented
// one-sided derivative: from above when the truth is above the floor, from
// below (0, the loss's minimum) when the truth floors too.
func TestQErrorLossMatchesNumericalGradient(t *testing.T) {
	const h = 1e-7
	for _, floor := range []float64{CostFloor, CardFloor} {
		// s = 0 is the floor itself: the largest MinLog whose estimate does
		// not exceed the floor.
		minLog := math.Log(floor)
		for math.Exp(minLog) > floor {
			minLog = math.Nextafter(minLog, math.Inf(-1))
		}
		norm := Normalizer{MinLog: minLog, MaxLog: minLog + 16}
		l := QErrorLoss{Norm: norm, Floor: floor}
		span := norm.Span()
		f := func(s, truth float64) float64 { loss, _ := l.Eval(s, truth); return loss }
		for _, truth := range []float64{floor / 10, floor * 1000} {
			above := truth > floor
			for _, s := range []float64{-0.2, -0.01, 0, 0.05, 0.3, 0.6} {
				loss, grad := l.Eval(s, truth)
				if want := QError(norm.Denormalize(s), truth, floor); loss != want {
					t.Fatalf("floor %g truth %g s=%g: loss %g, want QError %g", floor, truth, s, loss, want)
				}
				var want float64
				switch {
				case s < 0 && above:
					want = -truth / floor * span
				case s < 0:
					want = 0
				case s == 0 && above:
					want = (f(h, truth) - f(0, truth)) / h
				case s == 0:
					want = (f(0, truth) - f(-h, truth)) / h
				default:
					want = (f(s+h, truth) - f(s-h, truth)) / (2 * h)
				}
				if s < 0 {
					if central := (f(s+h, truth) - f(s-h, truth)) / (2 * h); central != 0 {
						t.Fatalf("floor %g truth %g s=%g: loss not flat below the floor (%g)", floor, truth, s, central)
					}
				}
				if math.Abs(grad-want) > 1e-4*math.Max(1, math.Abs(want)) {
					t.Fatalf("floor %g truth %g s=%g: grad %g, want %g", floor, truth, s, grad, want)
				}
			}
		}
	}
}

func TestQErrorLossClipping(t *testing.T) {
	norm := NewNormalizer([]float64{1, 1e9}, CardFloor)
	l := QErrorLoss{Norm: norm, Floor: CardFloor, GradClip: 10}
	_, g := l.Eval(0.999, 2)
	if math.Abs(g) > 10 {
		t.Fatalf("clipped gradient = %g, |g| must be <= 10", g)
	}
}

func TestMSLELoss(t *testing.T) {
	norm := NewNormalizer([]float64{1, 1e6}, CardFloor)
	l := MSLELoss{Norm: norm}
	truth := 100.0
	loss, grad := l.Eval(norm.Normalize(truth), truth)
	if loss > 1e-12 || grad > 1e-6 {
		t.Fatalf("perfect prediction loss=%g grad=%g", loss, grad)
	}
}

func TestClipGradNorm(t *testing.T) {
	ps := NewParamSet()
	p := ps.NewParam("p", 2, 1)
	p.Grad[0], p.Grad[1] = 3, 4 // norm 5
	pre := ps.ClipGradNorm(1)
	if math.Abs(pre-5) > 1e-12 {
		t.Fatalf("pre-clip norm = %g, want 5", pre)
	}
	if math.Abs(ps.GradNorm()-1) > 1e-9 {
		t.Fatalf("post-clip norm = %g, want 1", ps.GradNorm())
	}
	// NaN gradients must be neutralized.
	p.Grad[0] = math.NaN()
	ps.ClipGradNorm(1)
	if math.IsNaN(p.Grad[0]) {
		t.Fatal("NaN gradient survived clipping")
	}
}

func TestDuplicateParamPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate parameter name")
		}
	}()
	ps := NewParamSet()
	ps.NewParam("x", 1, 1)
	ps.NewParam("x", 1, 1)
}

// TestAliasValues pins the gradient-shadow contract: after AliasValues the
// shadow reads the source's live weights (including later source mutations)
// while its gradients stay private, and mismatched sets panic.
func TestAliasValues(t *testing.T) {
	build := func() *ParamSet {
		ps := NewParamSet()
		ps.NewParam("w", 2, 3)
		ps.NewParam("b", 2, 1)
		return ps
	}
	src, shadow := build(), build()
	for i, p := range src.Params() {
		for j := range p.Value {
			p.Value[j] = float64(i*10 + j)
		}
	}
	shadow.AliasValues(src)
	src.Get("w").Value[4] = -7 // live mutation must be visible through the shadow
	if got := shadow.Get("w").Value[4]; got != -7 {
		t.Fatalf("shadow value = %g, want source's live -7", got)
	}
	shadow.Get("w").Grad[0] = 1
	if src.Get("w").Grad[0] != 0 {
		t.Fatal("shadow gradient leaked into source")
	}
	src.Get("b").Grad[1] = 2
	if shadow.Get("b").Grad[1] != 0 {
		t.Fatal("source gradient leaked into shadow")
	}
	if shadow.Get("w").m != nil || shadow.Get("w").v != nil {
		t.Fatal("shadow kept Adam moment buffers after aliasing")
	}
	if src.Get("w").m == nil || src.Get("w").v == nil {
		t.Fatal("aliasing released the source's Adam moments")
	}

	defer func() {
		if recover() == nil {
			t.Fatal("expected panic aliasing mismatched param sets")
		}
	}()
	other := NewParamSet()
	other.NewParam("w", 2, 3)
	other.AliasValues(src)
}

func TestActivations(t *testing.T) {
	x := tensor.Vec{-1, 0, 2}
	y := make(tensor.Vec, 3)
	ReLU(y, x)
	if y[0] != 0 || y[1] != 0 || y[2] != 2 {
		t.Fatalf("ReLU = %v", y)
	}
	Sigmoid(y, tensor.Vec{0, 100, -100})
	if math.Abs(y[0]-0.5) > 1e-12 || y[1] < 0.999 || y[2] > 0.001 {
		t.Fatalf("Sigmoid = %v", y)
	}
}

// TestDirtyStamps pins the delta-publication substrate: parameters are
// stamped at registration and re-stamped by every tracked mutation (Adam
// step, MarkAllUpdated), while parameters an optimizer
// step provably does not move keep their stamp.
func TestDirtyStamps(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ps := NewParamSet()
	la := NewLinear(ps, "a", 3, 2, rng)
	lb := NewLinear(ps, "b", 2, 2, rng)
	for _, p := range ps.Params() {
		if p.Stamp() == 0 {
			t.Fatalf("param %s unstamped at registration", p.Name)
		}
	}

	// An Adam step with gradients only on layer a must stamp exactly a's
	// parameters; b's update is an exact no-op and must stay clean.
	opt := NewAdam(0.01)
	stA := la.W.Stamp()
	stBW, stBB := lb.W.Stamp(), lb.B.Stamp()
	valB := append([]float64(nil), lb.W.Value...)
	ps.ZeroGrad()
	la.W.Grad[0] = 0.5
	la.B.Grad[1] = -0.25
	opt.Step(ps)
	if la.W.Stamp() <= stA || la.B.Stamp() <= stA {
		t.Fatal("Adam step did not stamp updated params")
	}
	if lb.W.Stamp() != stBW || lb.B.Stamp() != stBB {
		t.Fatal("Adam step stamped a parameter it provably did not move")
	}
	for i := range valB {
		if lb.W.Value[i] != valB[i] {
			t.Fatal("skipped parameter moved")
		}
	}

	// Once a parameter's moments are live, later zero-gradient steps keep
	// moving (and stamping) it: the moment decay changes values.
	valA0 := la.W.Value[0]
	st := la.W.Stamp()
	ps.ZeroGrad()
	opt.Step(ps)
	if la.W.Stamp() <= st {
		t.Fatal("live parameter not stamped on zero-gradient step")
	}
	if la.W.Value[0] == valA0 {
		t.Fatal("live parameter did not move on zero-gradient step (moment decay)")
	}

	st = lb.W.Stamp()
	ps.MarkAllUpdated()
	if lb.W.Stamp() <= st {
		t.Fatal("MarkAllUpdated did not stamp parameters")
	}
	if ps.Clock() < lb.W.Stamp() {
		t.Fatal("clock behind latest stamp")
	}
}

// TestAdamSkipIsBitExact drives two identical parameter sets through the
// same gradient schedule — one whose zero-gradient parameter is exercised
// through the skip path, one through a forced update (live flag set) — and
// checks the skipped parameter's values, moments and subsequent trajectory
// are bit-identical. The all-zero skip must be a provable no-op, not an
// approximation.
func TestAdamSkipIsBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	build := func() (*ParamSet, *Linear, *Linear) {
		ps := NewParamSet()
		a := NewLinear(ps, "a", 3, 2, rng)
		b := NewLinear(ps, "b", 2, 2, rng)
		return ps, a, b
	}
	psSkip, aSkip, bSkip := build()
	rng = rand.New(rand.NewSource(11)) // identical init draws
	psLive, aLive, bLive := build()
	for i := range aSkip.W.Value {
		aLive.W.Value[i] = aSkip.W.Value[i]
	}
	for i := range bSkip.W.Value {
		bLive.W.Value[i] = bSkip.W.Value[i]
	}
	bLive.W.live, bLive.B.live = true, true // force the update path

	optSkip, optLive := NewAdam(0.01), NewAdam(0.01)
	for step := 0; step < 5; step++ {
		psSkip.ZeroGrad()
		psLive.ZeroGrad()
		aSkip.W.Grad[step] = float64(step + 1)
		aLive.W.Grad[step] = float64(step + 1)
		optSkip.Step(psSkip)
		optLive.Step(psLive)
	}
	for i := range bSkip.W.Value {
		if bSkip.W.Value[i] != bLive.W.Value[i] {
			t.Fatalf("skip path diverged from update path at b.W[%d]", i)
		}
		if bSkip.W.m[i] != bLive.W.m[i] || bSkip.W.v[i] != bLive.W.v[i] {
			t.Fatalf("skip path moment mismatch at b.W[%d]", i)
		}
	}
}
