package nn

import (
	"fmt"
	"math/rand"

	"costest/internal/tensor"
)

// Linear is a fully connected layer y = Wx + b with Out x In weights.
type Linear struct {
	In, Out int
	W, B    *Param
}

// NewLinear registers a linear layer's parameters in ps under name.W/name.B
// and initializes the weights with Xavier initialization.
func NewLinear(ps *ParamSet, name string, in, out int, rng *rand.Rand) *Linear {
	l := &Linear{
		In: in, Out: out,
		W: ps.NewParam(name+".W", out, in),
		B: ps.NewParam(name+".B", out, 1),
	}
	l.W.Mat().XavierInit(rng)
	return l
}

// Forward computes dst = Wx + b. dst must have length Out.
func (l *Linear) Forward(dst, x tensor.Vec) {
	tensor.MatVecAdd(dst, l.W.Mat(), x, l.B.Vec())
}

// Backward accumulates parameter gradients for upstream gradient dy and the
// input x used in the forward pass, and writes the input gradient into dx
// (set semantics). Pass dx == nil when the input needs no gradient.
func (l *Linear) Backward(dx, dy, x tensor.Vec) {
	tensor.AddOuter(l.W.GradMat(), dy, x)
	tensor.AddTo(l.B.GradVec(), dy)
	if dx != nil {
		tensor.MatTVec(dx, l.W.Mat(), dy)
	}
}

// MLP is a stack of Linear layers with ReLU between hidden layers. The final
// layer's activation is chosen by OutAct.
type MLP struct {
	Layers []*Linear
	OutAct Activation
	// scratch activations per layer, reused across calls; index 0 is the
	// input copy, index i the output of layer i-1.
	acts [][]float64
	pre  [][]float64 // pre-activation outputs for backward
	dtmp [][]float64
}

// Activation selects the output nonlinearity of an MLP.
type Activation int

// Supported output activations.
const (
	ActIdentity Activation = iota
	ActReLU
	ActSigmoid
)

// NewMLP builds an MLP with the given layer sizes, e.g. sizes = [in, h, out].
func NewMLP(ps *ParamSet, name string, sizes []int, outAct Activation, rng *rand.Rand) *MLP {
	if len(sizes) < 2 {
		panic(fmt.Sprintf("nn: MLP needs at least 2 sizes, got %v", sizes))
	}
	m := &MLP{OutAct: outAct}
	for i := 0; i+1 < len(sizes); i++ {
		m.Layers = append(m.Layers, NewLinear(ps, fmt.Sprintf("%s.%d", name, i), sizes[i], sizes[i+1], rng))
	}
	m.acts = make([][]float64, len(m.Layers)+1)
	m.pre = make([][]float64, len(m.Layers))
	m.dtmp = make([][]float64, len(m.Layers)+1)
	m.acts[0] = make([]float64, sizes[0])
	m.dtmp[0] = make([]float64, sizes[0])
	for i, l := range m.Layers {
		m.acts[i+1] = make([]float64, l.Out)
		m.pre[i] = make([]float64, l.Out)
		m.dtmp[i+1] = make([]float64, l.Out)
	}
	return m
}

// Forward runs the MLP and writes the result into dst. The internal
// activations are retained for a subsequent Backward call.
func (m *MLP) Forward(dst, x tensor.Vec) {
	tensor.Copy(m.acts[0], x)
	for i, l := range m.Layers {
		l.Forward(m.pre[i], m.acts[i])
		last := i == len(m.Layers)-1
		switch {
		case !last: // hidden layers always ReLU
			ReLU(m.acts[i+1], m.pre[i])
		case m.OutAct == ActReLU:
			ReLU(m.acts[i+1], m.pre[i])
		case m.OutAct == ActSigmoid:
			Sigmoid(m.acts[i+1], m.pre[i])
		default:
			tensor.Copy(m.acts[i+1], m.pre[i])
		}
	}
	tensor.Copy(dst, m.acts[len(m.Layers)])
}

// Backward propagates dy (gradient w.r.t. the MLP output of the most recent
// Forward) into parameter gradients, writing the input gradient into dx when
// dx is non-nil.
func (m *MLP) Backward(dx, dy tensor.Vec) {
	n := len(m.Layers)
	cur := m.dtmp[n]
	tensor.Copy(cur, dy)
	for i := n - 1; i >= 0; i-- {
		last := i == n-1
		switch {
		case !last:
			ReLUBackwardInPlace(cur, m.acts[i+1])
		case m.OutAct == ActReLU:
			ReLUBackwardInPlace(cur, m.acts[i+1])
		case m.OutAct == ActSigmoid:
			SigmoidBackwardInPlace(cur, m.acts[i+1])
		}
		var down tensor.Vec
		if i > 0 {
			down = m.dtmp[i]
		} else if dx != nil {
			down = dx
		}
		m.Layers[i].Backward(down, cur, m.acts[i])
		if i > 0 {
			cur = m.dtmp[i]
		}
	}
}
