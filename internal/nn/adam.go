package nn

import "math"

// Adam implements the Adam optimizer (Kingma & Ba). The paper trains with
// Adam at learning rate 0.001 (Section 6.3.1).
type Adam struct {
	LR    float64
	Beta1 float64
	Beta2 float64
	Eps   float64
	steps int
}

// NewAdam returns an Adam optimizer with the paper's learning rate and the
// standard moment decay rates.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// Step applies one Adam update to every parameter in ps using the gradients
// currently accumulated, then the caller typically calls ps.ZeroGrad.
//
// Each updated parameter is stamped with a fresh ParamSet clock value, the
// per-param dirty tracking delta publication reads. A parameter whose
// gradient is all zero and whose moment estimates have never left zero is
// skipped entirely — the update would be an exact no-op (m, v and Value all
// bit-unchanged), so skipping preserves bit-identical training while
// leaving never-trained parameters (e.g. the unused head of a single-task
// model) clean for delta consumers.
//
// costlint:noalloc
func (a *Adam) Step(ps *ParamSet) {
	a.steps++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.steps))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.steps))
	t := ps.tick()
	for _, p := range ps.params {
		if !p.live && !anyNonZero(p.Grad) {
			continue
		}
		p.live = true
		for i, g := range p.Grad {
			p.m[i] = a.Beta1*p.m[i] + (1-a.Beta1)*g
			p.v[i] = a.Beta2*p.v[i] + (1-a.Beta2)*g*g
			mHat := p.m[i] / bc1
			vHat := p.v[i] / bc2
			p.Value[i] -= a.LR * mHat / (math.Sqrt(vHat) + a.Eps)
		}
		p.stamp = t
	}
}

// anyNonZero reports whether g has any non-zero entry (early exit: in dense
// training the first gradient element is almost always non-zero).
func anyNonZero(g []float64) bool {
	for _, v := range g {
		if v != 0 {
			return true
		}
	}
	return false
}
