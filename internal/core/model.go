package core

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"io"
	"math/rand"
	"sync"

	"costest/internal/feature"
	"costest/internal/nn"
)

// Model is the tree-structured cost/cardinality estimator.
type Model struct {
	Cfg Config
	Enc *feature.Encoder
	PS  *nn.ParamSet

	// Actual embedding segment widths (bitmap may be absent).
	eOp, eMeta, eBm, ePred int

	// Embedding layer (Section 4.2.1): one FC+ReLU per simple feature.
	opL, metaL, bmL *nn.Linear
	// Predicate embedding: leaf FC for the pooling variant, or a tree-LSTM.
	predLeaf *nn.Linear
	predCell *lstmCell

	// Representation layer (Section 4.2.2).
	repCell *lstmCell
	repNN   *nn.Linear

	// Estimation layer (Section 4.2.3): two heads sharing the trunk.
	costH, costO, cardH, cardO *nn.Linear

	// Target normalizers (min-max in log space, Section 4.3).
	CostNorm nn.Normalizer
	CardNorm nn.Normalizer

	// batchSessions recycles BatchSessions for the Estimate/EstimateBatch
	// convenience API, keeping the steady-state path allocation-free even
	// under concurrent callers.
	batchSessions sync.Pool
}

// New builds a model wired to the encoder's feature dimensions.
func New(cfg Config, enc *feature.Encoder) *Model {
	rng := rand.New(rand.NewSource(cfg.Seed))
	ps := nn.NewParamSet()
	m := &Model{Cfg: cfg, Enc: enc, PS: ps}

	m.eOp, m.eMeta, m.ePred = cfg.OpEmbed, cfg.MetaEmbed, cfg.PredEmbed
	m.opL = nn.NewLinear(ps, "embed.op", enc.OpDim(), cfg.OpEmbed, rng)
	m.metaL = nn.NewLinear(ps, "embed.meta", enc.MetaDim(), cfg.MetaEmbed, rng)
	if enc.BitmapDim() > 0 {
		m.eBm = cfg.BitmapEmbed
		m.bmL = nn.NewLinear(ps, "embed.bitmap", enc.BitmapDim(), cfg.BitmapEmbed, rng)
	}
	switch cfg.Pred {
	case PredPool, PredPoolMean:
		m.predLeaf = nn.NewLinear(ps, "embed.predleaf", enc.AtomDim(), cfg.PredEmbed, rng)
	case PredLSTM:
		m.predCell = newLSTMCell(ps, "embed.predlstm", cfg.PredEmbed, enc.AtomDim(), rng)
	}

	switch cfg.Rep {
	case RepLSTM:
		m.repCell = newLSTMCell(ps, "rep", cfg.Hidden, m.embedDim(), rng)
	case RepNN:
		m.repNN = nn.NewLinear(ps, "rep.nn", m.embedDim()+2*cfg.Hidden, cfg.Hidden, rng)
	}

	m.costH = nn.NewLinear(ps, "est.cost.h", cfg.Hidden, cfg.EstHidden, rng)
	m.costO = nn.NewLinear(ps, "est.cost.o", cfg.EstHidden, 1, rng)
	m.cardH = nn.NewLinear(ps, "est.card.h", cfg.Hidden, cfg.EstHidden, rng)
	m.cardO = nn.NewLinear(ps, "est.card.o", cfg.EstHidden, 1, rng)

	// Default normalizers; ParallelTrainer.Fit replaces them from training
	// targets.
	m.CostNorm = nn.NewNormalizer([]float64{1, 1e6}, nn.CostFloor)
	m.CardNorm = nn.NewNormalizer([]float64{1, 1e8}, nn.CardFloor)
	return m
}

// embedDim returns the concatenated embedding width E for this model.
func (m *Model) embedDim() int { return m.eOp + m.eMeta + m.eBm + m.ePred }

// NumParams returns the number of scalar parameters.
func (m *Model) NumParams() int { return m.PS.NumParams() }

// modelMagic prefixes versioned checkpoint files. Legacy files (written
// before checkpoints carried a header) start directly with the gob stream of
// the parameter payload; LoadModel rejects them.
const modelMagic = "COSTESTM"

// modelCheckpointVersion is the current checkpoint format version. Version 3
// made checkpoints self-describing: the header carries the model Config and
// the encoder feature dimensions, so a cold process (costestd loading a
// checkpoint at startup) can reconstruct the model without out-of-band
// hyperparameters and verify its encoder is shape-compatible before touching
// any weights. Version 2 added the header itself with the cost/cardinality
// target normalizers; version 1 is the headerless legacy format.
const modelCheckpointVersion = 3

// EncoderMeta records the feature-space dimensions a model was built
// against — the encoder facts a checkpoint needs to be loadable cold. The
// encoder itself (catalog, string embedder) is reconstructed by the loading
// process from its own substrate; the metadata makes a mismatch a descriptive
// error instead of silently mis-shaped estimates.
type EncoderMeta struct {
	OpDim           int
	MetaDim         int
	BitmapDim       int
	AtomDim         int
	UseSampleBitmap bool
}

// encoderMetaOf captures enc's dimensions for a checkpoint header.
func encoderMetaOf(enc *feature.Encoder) EncoderMeta {
	return EncoderMeta{
		OpDim:           enc.OpDim(),
		MetaDim:         enc.MetaDim(),
		BitmapDim:       enc.BitmapDim(),
		AtomDim:         enc.AtomDim(),
		UseSampleBitmap: enc.UseSampleBitmap,
	}
}

// check reports the first dimension on which enc differs from the recorded
// metadata, or "" when compatible.
func (em EncoderMeta) check(enc *feature.Encoder) string {
	got := encoderMetaOf(enc)
	switch {
	case got.OpDim != em.OpDim:
		return fmt.Sprintf("operation one-hot width %d, checkpoint built against %d", got.OpDim, em.OpDim)
	case got.MetaDim != em.MetaDim:
		return fmt.Sprintf("metadata bitmap width %d, checkpoint built against %d", got.MetaDim, em.MetaDim)
	case got.BitmapDim != em.BitmapDim:
		return fmt.Sprintf("sample bitmap width %d, checkpoint built against %d", got.BitmapDim, em.BitmapDim)
	case got.AtomDim != em.AtomDim:
		return fmt.Sprintf("predicate atom width %d, checkpoint built against %d", got.AtomDim, em.AtomDim)
	case got.UseSampleBitmap != em.UseSampleBitmap:
		return fmt.Sprintf("sample bitmap enabled=%v, checkpoint built with %v", got.UseSampleBitmap, em.UseSampleBitmap)
	}
	return ""
}

// modelHeader is the versioned checkpoint header: everything a round-tripped
// model needs beyond the weights to reproduce bit-identical estimates. The
// target normalizers used to be silently dropped, leaving a loaded model
// misestimating until FitNormalizers was re-run. Since version 3 the header
// also carries the Config and encoder dimensions (gob leaves them zero when
// decoding older files).
type modelHeader struct {
	Version  int
	CostNorm nn.Normalizer
	CardNorm nn.Normalizer
	Config   Config
	Encoder  EncoderMeta
}

// Save serializes a versioned checkpoint: a magic prefix, a header carrying
// the target normalizers, the model Config and the encoder dimensions, then
// the parameter values. The checkpoint is self-describing: LoadModel can
// rebuild an identically configured model from it with nothing but a
// shape-compatible encoder — no out-of-band hyperparameters. (The encoder's
// own state — catalog, string embedder — is still the loader's to provide; a
// synthetic-substrate process reconstructs it from its generation seed.)
func (m *Model) Save(w io.Writer) error {
	if _, err := io.WriteString(w, modelMagic); err != nil {
		return fmt.Errorf("core: write checkpoint magic: %w", err)
	}
	enc := gob.NewEncoder(w)
	hdr := modelHeader{
		Version:  modelCheckpointVersion,
		CostNorm: m.CostNorm,
		CardNorm: m.CardNorm,
		Config:   m.Cfg,
		Encoder:  encoderMetaOf(m.Enc),
	}
	if err := enc.Encode(hdr); err != nil {
		return fmt.Errorf("core: encode checkpoint header: %w", err)
	}
	return m.PS.EncodeGob(enc)
}

// maxCheckpointDim bounds each persisted Config dimension LoadModel will
// construct a model from. The guard is against corrupt or hostile
// checkpoint headers, not real models: the paper's full-size configuration
// peaks at Hidden=64, so four orders of magnitude of headroom loses nothing,
// while an unchecked header dimension would size New's parameter
// allocations directly (a single flipped high byte turns a 64-wide layer
// into a multi-gigabyte allocation).
const maxCheckpointDim = 1 << 14

// checkLoadable rejects persisted Config values that would make New allocate
// absurdly (dimensions) or build a half-wired model (enums outside their
// defined range).
func (c Config) checkLoadable() error {
	dims := [...]struct {
		name string
		v    int
	}{
		{"OpEmbed", c.OpEmbed}, {"MetaEmbed", c.MetaEmbed},
		{"BitmapEmbed", c.BitmapEmbed}, {"PredEmbed", c.PredEmbed},
		{"Hidden", c.Hidden}, {"EstHidden", c.EstHidden},
	}
	for _, d := range dims {
		if d.v < 1 || d.v > maxCheckpointDim {
			return fmt.Errorf("dimension %s=%d outside [1, %d]", d.name, d.v, maxCheckpointDim)
		}
	}
	if c.Pred < PredPool || c.Pred > PredPoolMean {
		return fmt.Errorf("unknown predicate model %d", c.Pred)
	}
	if c.Rep < RepLSTM || c.Rep > RepNN {
		return fmt.Errorf("unknown representation model %d", c.Rep)
	}
	if c.Target < TargetBoth || c.Target > TargetCard {
		return fmt.Errorf("unknown training target %d", c.Target)
	}
	return nil
}

// LoadModel reads a self-describing (version >= 3) checkpoint and rebuilds
// the model it was saved from: the persisted Config constructs the network,
// enc supplies the feature encoder, and the weights and normalizers load
// into it — the cold-start path for a serving process handed nothing but a
// checkpoint file and a substrate to rebuild the encoder on. The encoder is
// validated against the persisted dimensions before any weight is touched,
// so a checkpoint from a different schema or embedding width fails with a
// descriptive error instead of shape panics (or, worse, silently wrong
// estimates). Older checkpoints (version 2 and the headerless legacy format)
// do not carry a Config and are rejected with a descriptive error.
func LoadModel(r io.Reader, enc *feature.Encoder) (*Model, error) {
	br := bufio.NewReader(r)
	prefix, err := br.Peek(len(modelMagic))
	if err != nil || string(prefix) != modelMagic {
		return nil, fmt.Errorf("core: checkpoint is not self-describing (legacy headerless format?); retrain and save a current checkpoint")
	}
	if _, err := br.Discard(len(modelMagic)); err != nil {
		return nil, fmt.Errorf("core: read checkpoint magic: %w", err)
	}
	dec := gob.NewDecoder(br)
	var hdr modelHeader
	if err := dec.Decode(&hdr); err != nil {
		return nil, fmt.Errorf("core: decode checkpoint header: %w", err)
	}
	if hdr.Version < 3 || hdr.Version > modelCheckpointVersion {
		return nil, fmt.Errorf("core: checkpoint version %d is not self-describing (supported: 3..%d); retrain and save a current checkpoint",
			hdr.Version, modelCheckpointVersion)
	}
	if diff := hdr.Encoder.check(enc); diff != "" {
		return nil, fmt.Errorf("core: encoder incompatible with checkpoint: %s", diff)
	}
	if err := hdr.Config.checkLoadable(); err != nil {
		return nil, fmt.Errorf("core: checkpoint config rejected: %w", err)
	}
	m := New(hdr.Config, enc)
	if err := m.PS.DecodeGob(dec); err != nil {
		return nil, err
	}
	m.CostNorm, m.CardNorm = hdr.CostNorm, hdr.CardNorm
	return m, nil
}
