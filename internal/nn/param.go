// Package nn implements the neural-network substrate the estimator is built
// on: trainable parameters, linear layers, activations, the Adam optimizer,
// q-error / MSLE losses and min-max log normalization. The paper trains its
// model with a deep-learning framework; no such framework exists in the Go
// standard library, so this package provides the minimal equivalent with
// explicit (manual) backpropagation.
package nn

import (
	"encoding/gob"
	"fmt"
	"math"

	"costest/internal/tensor"
)

// Param is a trainable tensor with its gradient accumulator and Adam moments.
// A vector parameter is stored as Rows x 1.
type Param struct {
	Name       string
	Rows, Cols int
	Value      []float64
	Grad       []float64
	m, v       []float64 // Adam first/second moment estimates

	// stamp is the owning ParamSet's clock value at the last mutation of
	// Value through a tracked path (registration, Adam step, DecodeGob,
	// MarkAllUpdated) — the substrate of delta publication:
	// a consumer that recorded a param's stamp can tell whether the values
	// moved since. Code that writes Value directly (tests, ad-hoc surgery)
	// must call ParamSet.MarkAllUpdated afterwards or delta consumers will
	// treat the param as clean.
	stamp uint64
	// live records that Adam has ever applied a non-zero gradient: once the
	// moment estimates are non-zero the parameter keeps moving every step
	// (the moments decay geometrically but never reach zero), so the
	// all-zero-gradient skip in Adam.Step is only exact while !live.
	live bool
}

// Stamp returns the ParamSet clock value at which Value last changed.
func (p *Param) Stamp() uint64 { return p.stamp }

// Mat returns a matrix view over the parameter values.
func (p *Param) Mat() *tensor.Mat {
	return &tensor.Mat{Rows: p.Rows, Cols: p.Cols, Data: p.Value}
}

// GradMat returns a matrix view over the parameter gradient.
func (p *Param) GradMat() *tensor.Mat {
	return &tensor.Mat{Rows: p.Rows, Cols: p.Cols, Data: p.Grad}
}

// Vec returns the parameter values as a vector (for bias parameters).
func (p *Param) Vec() tensor.Vec { return p.Value }

// GradVec returns the parameter gradient as a vector.
func (p *Param) GradVec() tensor.Vec { return p.Grad }

// ParamSet owns every trainable parameter of a model, so optimizers,
// clipping and serialization can treat the model uniformly.
type ParamSet struct {
	params []*Param
	byName map[string]*Param

	// clock is a logical mutation counter: every tracked write to parameter
	// values (registration, an Adam step, DecodeGob, MarkAllUpdated)
	// advances it once and stamps the touched parameters
	// with the new value. Delta publication compares stamps against a
	// recorded clock to copy only the parameters that moved.
	clock uint64
}

// tick advances the mutation counter and returns its new value.
func (ps *ParamSet) tick() uint64 {
	ps.clock++
	return ps.clock
}

// MarkAllUpdated stamps every parameter as mutated at a fresh clock value.
// Call it after writing parameter values directly (bypassing Adam and
// DecodeGob) so delta consumers see the change.
func (ps *ParamSet) MarkAllUpdated() {
	t := ps.tick()
	for _, p := range ps.params {
		p.stamp = t
	}
}

// MarkParamsUpdated stamps exactly the given parameters as mutated at one
// fresh clock value — the targeted form of MarkAllUpdated for writers that
// know which parameters they touched (a replication follower applying a
// delta frame writes a handful of parameters and must not force delta
// publication to re-copy the rest). The parameters must belong to this set;
// stamping a foreign parameter would desynchronize its owner's clock.
func (ps *ParamSet) MarkParamsUpdated(params []*Param) {
	if len(params) == 0 {
		return
	}
	t := ps.tick()
	for _, p := range params {
		p.stamp = t
	}
}

// NewParamSet returns an empty parameter set.
func NewParamSet() *ParamSet {
	return &ParamSet{byName: make(map[string]*Param)}
}

// NewParam allocates and registers a rows x cols parameter. Names must be
// unique within the set; duplicates panic since they indicate a wiring bug.
func (ps *ParamSet) NewParam(name string, rows, cols int) *Param {
	if _, dup := ps.byName[name]; dup {
		panic(fmt.Sprintf("nn: duplicate parameter %q", name))
	}
	n := rows * cols
	p := &Param{
		Name: name, Rows: rows, Cols: cols,
		Value: make([]float64, n),
		Grad:  make([]float64, n),
		m:     make([]float64, n),
		v:     make([]float64, n),
		// Registration stamps the param as mutated: constructors initialize
		// values (e.g. NewLinear's Xavier init) right after registering, and
		// a non-zero stamp means a fresh delta consumer (recorded stamp 0)
		// always copies the initial values.
		stamp: ps.tick(),
	}
	ps.params = append(ps.params, p)
	ps.byName[name] = p
	return p
}

// Params returns all registered parameters in registration order.
func (ps *ParamSet) Params() []*Param { return ps.params }

// NumParams returns the total number of scalar parameters.
func (ps *ParamSet) NumParams() int {
	n := 0
	for _, p := range ps.params {
		n += len(p.Value)
	}
	return n
}

// ZeroGrad clears all gradient accumulators.
func (ps *ParamSet) ZeroGrad() {
	for _, p := range ps.params {
		for i := range p.Grad {
			p.Grad[i] = 0
		}
	}
}

// GradNorm returns the global L2 norm across all parameter gradients.
func (ps *ParamSet) GradNorm() float64 {
	var s float64
	for _, p := range ps.params {
		s += tensor.Dot(p.Grad, p.Grad)
	}
	return math.Sqrt(s)
}

// ClipGradNorm rescales all gradients so their global L2 norm is at most max.
// It returns the pre-clipping norm. Non-finite gradients are zeroed first so a
// single diverged sample cannot poison the step.
func (ps *ParamSet) ClipGradNorm(max float64) float64 {
	for _, p := range ps.params {
		for i, g := range p.Grad {
			if math.IsNaN(g) || math.IsInf(g, 0) {
				p.Grad[i] = 0
			}
		}
	}
	norm := ps.GradNorm()
	if norm > max && norm > 0 {
		scale := max / norm
		for _, p := range ps.params {
			tensor.Scale(p.Grad, scale)
		}
	}
	return norm
}

// AliasValues re-points every parameter's value storage at the matching
// parameter of src, making ps a gradient shadow of src: forward passes
// through ps read src's live weights with no copying, while gradients stay
// private to ps. This is the substrate of data-parallel training — each
// worker accumulates into its own shadow ParamSet and the shards are
// reduced deterministically into the real optimizer state.
//
// A shadow accumulates gradients but is never stepped, so its Adam moment
// buffers (and its discarded initial values) are released — after aliasing,
// each parameter keeps only its Grad live. Stepping an aliased set panics.
//
// Both sets must have been built by the same construction path: parameters
// are matched positionally and must agree in name and shape (a mismatch
// panics, since it indicates a wiring bug, mirroring snapshot copying).
// Callers own the synchronization: shadow readers must not overlap writes to
// src's values (the parallel trainer steps the optimizer only between
// worker joins).
func (ps *ParamSet) AliasValues(src *ParamSet) {
	if len(ps.params) != len(src.params) {
		panic(fmt.Sprintf("nn: AliasValues parameter count mismatch: %d vs %d", len(ps.params), len(src.params)))
	}
	for i, p := range ps.params {
		sp := src.params[i]
		if p.Name != sp.Name || p.Rows != sp.Rows || p.Cols != sp.Cols {
			panic(fmt.Sprintf("nn: AliasValues parameter mismatch: %q %dx%d vs %q %dx%d",
				p.Name, p.Rows, p.Cols, sp.Name, sp.Rows, sp.Cols))
		}
		p.Value = sp.Value
		p.m, p.v = nil, nil
	}
}

// paramBlob is the gob wire format for a parameter.
type paramBlob struct {
	Name       string
	Rows, Cols int
	Value      []float64
}

// EncodeGob writes all parameter values (not optimizer state) through an
// existing gob encoder, so callers can embed the payload in a larger
// single-stream format (core.Model.Save's versioned checkpoint does).
func (ps *ParamSet) EncodeGob(enc *gob.Encoder) error {
	blobs := make([]paramBlob, len(ps.params))
	for i, p := range ps.params {
		blobs[i] = paramBlob{Name: p.Name, Rows: p.Rows, Cols: p.Cols, Value: p.Value}
	}
	return enc.Encode(blobs)
}

// DecodeGob restores parameter values previously written by EncodeGob. The
// snapshot must cover the receiving set exactly: every registered parameter
// present once, no unknown or duplicate names, shapes and value lengths
// matching. On any mismatch DecodeGob returns a descriptive error before
// writing a single value, so a failed load never leaves the set partially
// overwritten.
func (ps *ParamSet) DecodeGob(dec *gob.Decoder) error {
	var blobs []paramBlob
	if err := dec.Decode(&blobs); err != nil {
		return fmt.Errorf("nn: decode params: %w", err)
	}
	return ps.loadBlobs(blobs)
}

// loadBlobs validates blobs against the registered parameters and then
// copies the values in (validate-then-commit, so errors are side-effect
// free).
func (ps *ParamSet) loadBlobs(blobs []paramBlob) error {
	if len(blobs) != len(ps.params) {
		return fmt.Errorf("nn: parameter count mismatch: model has %d parameters, snapshot has %d",
			len(ps.params), len(blobs))
	}
	seen := make(map[string]bool, len(blobs))
	for _, b := range blobs {
		p := ps.byName[b.Name]
		if p == nil {
			return fmt.Errorf("nn: unknown parameter %q in snapshot", b.Name)
		}
		if seen[b.Name] {
			return fmt.Errorf("nn: duplicate parameter %q in snapshot", b.Name)
		}
		seen[b.Name] = true
		if p.Rows != b.Rows || p.Cols != b.Cols {
			return fmt.Errorf("nn: parameter %q shape mismatch: model %dx%d, snapshot %dx%d",
				b.Name, p.Rows, p.Cols, b.Rows, b.Cols)
		}
		if len(b.Value) != b.Rows*b.Cols {
			return fmt.Errorf("nn: parameter %q has %d values, want %d (%dx%d); snapshot corrupt",
				b.Name, len(b.Value), b.Rows*b.Cols, b.Rows, b.Cols)
		}
	}
	t := ps.tick()
	for _, b := range blobs {
		p := ps.byName[b.Name]
		copy(p.Value, b.Value)
		p.stamp = t
	}
	return nil
}
