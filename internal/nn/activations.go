package nn

import (
	"math"

	"costest/internal/tensor"
)

// ReLU computes dst = max(0, x) elementwise.
func ReLU(dst, x tensor.Vec) {
	for i, v := range x {
		if v > 0 {
			dst[i] = v
		} else {
			dst[i] = 0
		}
	}
}

// ReLUBackwardInPlace masks the upstream gradient d by the activation output
// y: d[i] = 0 where y[i] <= 0.
func ReLUBackwardInPlace(d, y tensor.Vec) {
	for i := range d {
		if y[i] <= 0 {
			d[i] = 0
		}
	}
}

// Sigmoid computes dst = 1/(1+e^-x) elementwise.
func Sigmoid(dst, x tensor.Vec) {
	for i, v := range x {
		dst[i] = 1 / (1 + math.Exp(-v))
	}
}

// SigmoidBackwardInPlace converts the upstream gradient d (w.r.t. the sigmoid
// output y) into the gradient w.r.t. the pre-activation: d *= y*(1-y).
func SigmoidBackwardInPlace(d, y tensor.Vec) {
	for i := range d {
		d[i] *= y[i] * (1 - y[i])
	}
}

// Tanh computes dst = tanh(x) elementwise.
func Tanh(dst, x tensor.Vec) {
	for i, v := range x {
		dst[i] = math.Tanh(v)
	}
}
