// Package core implements the paper's primary contribution: the
// tree-structured learning model for end-to-end cost and cardinality
// estimation (Section 4). The model has three layers — an embedding layer
// condensing node features (with min-max pooling or tree-LSTM predicate
// embedding), a representation layer whose LSTM-style cell mirrors the plan
// tree, and a multitask estimation layer predicting normalized cost and
// cardinality — trained with the q-error loss of Section 4.3. It also
// provides level-wise batched inference and the Representation Memory Pool
// of Section 3.
//
// Two runtime layers wrap the model for production serving: the batch
// runtime with its reusable zero-allocation arenas (BatchSession — a single
// plan is a batch of one — and the ParallelTrainer that trains through it),
// and the hot-swap serving runtime (Server, ModelSnapshot,
// Server.PublishDelta) — atomic weight publication with
// generation-tagged pool invalidation, so a long-lived service retrains in
// place while concurrent requests keep serving immutable snapshots. See
// ARCHITECTURE.md and PERFORMANCE.md at the repository root.
package core

// PredModel selects the predicate embedding model (Section 4.2.1).
type PredModel int

// Predicate embedding variants: min-max pooling (AND→min, OR→max), a
// tree-LSTM over the predicate tree, or mean pooling for both connectives
// (an ablation showing the semantic pooling choice matters — mean pooling
// discards the AND/OR distinction).
const (
	PredPool PredModel = iota
	PredLSTM
	PredPoolMean
)

func (p PredModel) String() string {
	switch p {
	case PredPool:
		return "Pool"
	case PredLSTM:
		return "LSTM"
	default:
		return "MeanPool"
	}
}

// RepModel selects the representation-layer unit (Section 4.2.2).
type RepModel int

// Representation variants: the paper's LSTM-style cell or the naive fully
// connected network (the TNN ablation).
const (
	RepLSTM RepModel = iota
	RepNN
)

func (r RepModel) String() string {
	if r == RepLSTM {
		return "LSTM"
	}
	return "NN"
}

// Target selects what a single-task model trains on; multitask models train
// both heads jointly.
type Target int

// Training targets.
const (
	TargetBoth Target = iota // multitask (cost + cardinality)
	TargetCost
	TargetCard
)

// Config holds model hyperparameters.
type Config struct {
	// Embedding output widths per feature family.
	OpEmbed     int
	MetaEmbed   int
	BitmapEmbed int
	PredEmbed   int
	// Hidden is the representation dimension of G and R.
	Hidden int
	// EstHidden is the estimation layer's hidden width.
	EstHidden int

	Pred PredModel
	Rep  RepModel
	// Target selects multitask vs single-task training (Table 6's
	// SING/MULT column).
	Target Target
	// LossWeight is ω, the cost-loss weight in the multitask loss.
	LossWeight float64
	// LearnRate for Adam (the paper uses 0.001).
	LearnRate float64
	// GradClip bounds the global gradient norm per batch.
	GradClip float64
	// UseQError selects the paper's q-error loss; false uses MSLE (the
	// loss-function ablation).
	UseQError bool
	// SubplanLoss adds supervision at every plan node, not only the root;
	// the estimation layer must evaluate any sub-plan (Section 4.2.3), and
	// per-node supervision trains exactly that.
	SubplanLoss bool
	Seed        int64
}

// DefaultConfig returns full-size hyperparameters.
func DefaultConfig() Config {
	return Config{
		OpEmbed:     16,
		MetaEmbed:   32,
		BitmapEmbed: 32,
		PredEmbed:   32,
		Hidden:      64,
		EstHidden:   32,
		Pred:        PredPool,
		Rep:         RepLSTM,
		Target:      TargetBoth,
		LossWeight:  1.0,
		LearnRate:   0.001,
		GradClip:    5.0,
		UseQError:   true,
		SubplanLoss: true,
		Seed:        1,
	}
}

// TestConfig returns small dimensions for unit tests and benches.
func TestConfig() Config {
	c := DefaultConfig()
	c.OpEmbed, c.MetaEmbed, c.BitmapEmbed, c.PredEmbed = 8, 8, 8, 8
	c.Hidden, c.EstHidden = 16, 8
	c.LearnRate = 0.005
	return c
}

// embedDim is the concatenated embedding width E.
func (c Config) embedDim() int {
	return c.OpEmbed + c.MetaEmbed + c.BitmapEmbed + c.PredEmbed
}
