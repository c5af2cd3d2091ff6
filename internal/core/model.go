package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
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

// Checkpoint layout (little-endian):
//
//	magic "COSTESTM" (8) | version (4) | headerLen (4)
//	gob modelHeader (headerLen)
//	model payload over every parameter (see AppendModelPayload)
//	crc32c over everything before it (4)
//
// The weights and normalizers travel in the same payload replication
// streams, so a checkpoint load is the same validate-then-commit apply a
// follower runs, behind a checksum that catches every single-bit error.
const modelMagic = "COSTESTM"

// modelCheckpointVersion is the current checkpoint format version. Version 4
// replaced the gob parameter stream with the checksummed model payload.
// Version 3 made checkpoints self-describing (the header carries the Config
// and the encoder dimensions), version 2 added the header with the target
// normalizers, version 1 is the headerless legacy format. LoadModel reads
// version 4 only.
const modelCheckpointVersion = 4

// maxCheckpointBytes bounds the bytes LoadModel reads, against a corrupt or
// hostile file: a DefaultConfig model saves about 0.5 MB.
const maxCheckpointBytes = 64 << 20

var crcTable = crc32.MakeTable(crc32.Castagnoli)

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

// modelHeader is the checkpoint header: what LoadModel needs to rebuild the
// model the payload belongs to, and to check that it does.
type modelHeader struct {
	Config  Config
	Encoder EncoderMeta
	Schema  uint64 // SchemaHash of the saved model
}

// Save serializes a checkpoint: magic, version, a header carrying the model
// Config, the encoder dimensions and the schema hash, the model payload over
// every parameter (weights and target normalizers), and a CRC-32C over all
// of it. The checkpoint is self-describing: LoadModel can rebuild an
// identically configured model from it with nothing but a shape-compatible
// encoder — no out-of-band hyperparameters. (The encoder's own state —
// catalog, string embedder — is still the loader's to provide; a
// synthetic-substrate process reconstructs it from its generation seed.)
func (m *Model) Save(w io.Writer) error {
	all := make([]int, len(m.PS.Params()))
	for i := range all {
		all[i] = i
	}
	hdr := modelHeader{Config: m.Cfg, Encoder: encoderMetaOf(m.Enc), Schema: SchemaHash(m)}
	b, err := encodeCheckpoint(hdr, AppendModelPayload(nil, m, all))
	if err != nil {
		return err
	}
	if _, err := w.Write(b); err != nil {
		return fmt.Errorf("core: write checkpoint: %w", err)
	}
	return nil
}

// encodeCheckpoint lays out a checkpoint file around hdr and payload.
func encodeCheckpoint(hdr modelHeader, payload []byte) ([]byte, error) {
	var h bytes.Buffer
	if err := gob.NewEncoder(&h).Encode(hdr); err != nil {
		return nil, fmt.Errorf("core: encode checkpoint header: %w", err)
	}
	b := binary.LittleEndian.AppendUint32([]byte(modelMagic), modelCheckpointVersion)
	b = binary.LittleEndian.AppendUint32(b, uint32(h.Len()))
	b = append(append(b, h.Bytes()...), payload...)
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, crcTable)), nil
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

// LoadModel reads a checkpoint and rebuilds the model it was saved from:
// the persisted Config constructs the network, enc supplies the feature
// encoder, and the payload applies the weights and normalizers — the
// cold-start path for a serving process handed nothing but a checkpoint file
// and a substrate to rebuild the encoder on. Nothing is trusted before the
// checksum verifies; the encoder is validated against the persisted
// dimensions and the rebuilt model against the saved schema hash before any
// weight is applied, so a checkpoint from a different schema or embedding
// width fails with a descriptive error instead of shape panics (or, worse,
// silently wrong estimates). The payload apply refuses NaN and infinite
// values. Checkpoints of any other format version are rejected with a
// descriptive error.
func LoadModel(r io.Reader, enc *feature.Encoder) (*Model, error) {
	data, err := io.ReadAll(io.LimitReader(r, maxCheckpointBytes+1))
	if err != nil {
		return nil, fmt.Errorf("core: read checkpoint: %w", err)
	}
	if len(data) > maxCheckpointBytes {
		return nil, fmt.Errorf("core: checkpoint exceeds %d bytes", maxCheckpointBytes)
	}
	const prefix = len(modelMagic) + 8
	if !bytes.HasPrefix(data, []byte(modelMagic)) {
		return nil, fmt.Errorf("core: checkpoint is not self-describing (legacy headerless format?); retrain and save a current checkpoint")
	}
	if len(data) < prefix+4 {
		return nil, fmt.Errorf("core: checkpoint truncated at %d bytes", len(data))
	}
	if v := binary.LittleEndian.Uint32(data[len(modelMagic):]); v != modelCheckpointVersion {
		return nil, fmt.Errorf("core: checkpoint format version %d is not supported (want %d); retrain and save a current checkpoint",
			v, modelCheckpointVersion)
	}
	body := data[:len(data)-4]
	if crc32.Checksum(body, crcTable) != binary.LittleEndian.Uint32(data[len(body):]) {
		return nil, fmt.Errorf("core: checkpoint checksum mismatch (corrupt or truncated file)")
	}
	hlen := binary.LittleEndian.Uint32(data[len(modelMagic)+4:])
	if uint64(hlen) > uint64(len(body)-prefix) {
		return nil, fmt.Errorf("core: checkpoint header length %d exceeds the file", hlen)
	}
	var hdr modelHeader
	if err := gob.NewDecoder(bytes.NewReader(body[prefix : prefix+int(hlen)])).Decode(&hdr); err != nil {
		return nil, fmt.Errorf("core: decode checkpoint header: %w", err)
	}
	if diff := hdr.Encoder.check(enc); diff != "" {
		return nil, fmt.Errorf("core: encoder incompatible with checkpoint: %s", diff)
	}
	if err := hdr.Config.checkLoadable(); err != nil {
		return nil, fmt.Errorf("core: checkpoint config rejected: %w", err)
	}
	m := New(hdr.Config, enc)
	if SchemaHash(m) != hdr.Schema {
		return nil, fmt.Errorf("core: checkpoint parameter schema does not match the model its Config builds")
	}
	touched, err := ApplyModelPayload(m, body[prefix+int(hlen):], true, nil)
	if err != nil {
		return nil, err
	}
	m.PS.MarkParamsUpdated(touched)
	return m, nil
}
