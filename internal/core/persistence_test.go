package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"strings"
	"testing"

	"costest/internal/feature"
	"costest/internal/nn"
	"costest/internal/strembed"
)

// TestModelCheckpointRoundTrip is the persistence acceptance gate: for every
// architecture variant, a trained model saved and cold-loaded must produce
// bit-identical estimates — the versioned checkpoint header carries the
// target normalizers, so no FitNormalizers re-run is needed.
func TestModelCheckpointRoundTrip(t *testing.T) {
	eps := benchCorpus(t, 10)
	for _, variant := range sessionVariants {
		cfg := TestConfig()
		variant.mod(&cfg)
		m := New(cfg, testEnc)
		tr := NewParallelTrainer(m, 1)
		defer tr.Close()
		tr.FitNormalizers(eps)
		tr.TrainEpochParallel(eps, 4)

		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatalf("%s: save: %v", variant.name, err)
		}
		m2, err := LoadModel(&buf, testEnc)
		if err != nil {
			t.Fatalf("%s: load: %v", variant.name, err)
		}
		if m2.CostNorm != m.CostNorm || m2.CardNorm != m.CardNorm {
			t.Fatalf("%s: normalizers did not round-trip: cost %+v vs %+v, card %+v vs %+v",
				variant.name, m2.CostNorm, m.CostNorm, m2.CardNorm, m.CardNorm)
		}
		for i, ep := range eps {
			c1, d1 := m.Estimate(ep)
			c2, d2 := m2.Estimate(ep)
			if c1 != c2 || d1 != d2 {
				t.Fatalf("%s plan %d: loaded model estimates (%g,%g), original (%g,%g)",
					variant.name, i, c2, d2, c1, d1)
			}
		}
	}
}

// TestModelLoadLegacyFormat pins what happens to checkpoint files of older
// formats now that the checksummed payload format (version 4) is the only
// one: the headerless gob parameter stream (v1) and the gob headers of
// versions 2 and 3 are all refused with the descriptive "retrain and save"
// error, never decoded into a model, and so is a file from a later version.
// The legacy files hold only what the loader reads before it refuses: the
// magic (absent in v1) and the start of a gob stream like the one that
// followed it.
func TestModelLoadLegacyFormat(t *testing.T) {
	// The leading fields of the v2 and v3 gob headers.
	type legacyHeader struct {
		Version            int
		CostNorm, CardNorm nn.Normalizer
	}
	gobStream := func(prefix string, v any) []byte {
		var b bytes.Buffer
		b.WriteString(prefix)
		if err := gob.NewEncoder(&b).Encode(v); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	files := map[string][]byte{
		"v1 headerless": gobStream("", []struct{ Name string }{{"op.W"}}),
		"v2 header":     gobStream(modelMagic, legacyHeader{Version: 2}),
		"v3 header":     gobStream(modelMagic, legacyHeader{Version: 3}),
	}
	future := savedModelBytes(t) // a current file relabeled as the next version
	binary.LittleEndian.PutUint32(future[len(modelMagic):], modelCheckpointVersion+1)
	files["v5 (future)"] = reseal(future)
	for name, data := range files {
		_, err := LoadModel(bytes.NewReader(data), testEnc)
		if err == nil || !strings.Contains(err.Error(), "retrain and save a current checkpoint") {
			t.Fatalf("%s: LoadModel error = %v, want the descriptive retrain-and-save rejection", name, err)
		}
	}
}

// fullPayload is the payload Save writes for m: every parameter.
func fullPayload(m *Model) []byte {
	all := make([]int, len(m.PS.Params()))
	for i := range all {
		all[i] = i
	}
	return AppendModelPayload(nil, m, all)
}

// TestModelLoadErrors drives the corrupt-input paths of the cold loader:
// truncated headers, truncated parameter payloads, garbage bytes and a
// header whose Config disagrees with the parameter payload behind it must
// all fail with an error, and a good checkpoint still loads afterwards.
func TestModelLoadErrors(t *testing.T) {
	eps := benchCorpus(t, 6)
	cfg := TestConfig()
	src := New(cfg, testEnc)
	tr := NewParallelTrainer(src, 1)
	defer tr.Close()
	tr.FitNormalizers(eps)
	tr.TrainEpochParallel(eps, 4)
	var good bytes.Buffer
	if err := src.Save(&good); err != nil {
		t.Fatal(err)
	}
	full := good.Bytes()

	// A header describing a wider model than the valid payload behind it,
	// sealed with a valid checksum: with the saved model's schema hash the
	// schema check refuses it, with the wider model's the payload's value
	// lengths do.
	bigCfg := cfg
	bigCfg.Hidden *= 2
	wider := modelHeader{Config: bigCfg, Encoder: encoderMetaOf(testEnc), Schema: SchemaHash(src)}
	staleSchema, err := encodeCheckpoint(wider, fullPayload(src))
	if err != nil {
		t.Fatal(err)
	}
	wider.Schema = SchemaHash(New(bigCfg, testEnc))
	shortValues, err := encodeCheckpoint(wider, fullPayload(src))
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name, errLike string
		data          []byte
	}{
		{"empty", "", nil},
		{"truncated-magic", "", full[:4]},
		{"truncated-header", "", full[:len(modelMagic)+3]},
		{"truncated-params", "", full[:len(full)*3/4]},
		{"garbage", "", []byte("COSTESTMnot a gob stream at all....")},
		{"config-schema-mismatch", "schema", staleSchema},
		{"config-payload-mismatch", "values", shortValues},
	}
	for _, tc := range cases {
		_, err := LoadModel(bytes.NewReader(tc.data), testEnc)
		if err == nil {
			t.Fatalf("%s: LoadModel succeeded on corrupt input", tc.name)
		}
		if !strings.Contains(err.Error(), tc.errLike) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.errLike)
		}
	}

	// After all the failures, the good checkpoint still loads.
	loaded, err := LoadModel(bytes.NewReader(full), testEnc)
	if err != nil {
		t.Fatalf("good checkpoint failed after corrupt attempts: %v", err)
	}
	for i, ep := range eps {
		c, d := loaded.Estimate(ep)
		sc, sd := src.Estimate(ep)
		if c != sc || d != sd {
			t.Fatalf("plan %d: recovered load disagrees with source", i)
		}
	}
}

// TestLoadModelSelfDescribing exercises the cold-start path: a checkpoint
// written by Save carries the Config and encoder dimensions, so LoadModel
// rebuilds the trained model from nothing but the file and a compatible
// encoder — no out-of-band hyperparameters — and estimates bit-identically.
func TestLoadModelSelfDescribing(t *testing.T) {
	eps := benchCorpus(t, 8)
	for _, variant := range sessionVariants {
		cfg := TestConfig()
		variant.mod(&cfg)
		m := New(cfg, testEnc)
		tr := NewParallelTrainer(m, 1)
		defer tr.Close()
		tr.FitNormalizers(eps)
		tr.TrainEpochParallel(eps, 4)

		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatalf("%s: save: %v", variant.name, err)
		}
		m2, err := LoadModel(&buf, testEnc)
		if err != nil {
			t.Fatalf("%s: LoadModel: %v", variant.name, err)
		}
		if m2.Cfg != cfg {
			t.Fatalf("%s: persisted config did not round-trip: %+v vs %+v", variant.name, m2.Cfg, cfg)
		}
		for i, ep := range eps {
			c1, d1 := m.Estimate(ep)
			c2, d2 := m2.Estimate(ep)
			if c1 != c2 || d1 != d2 {
				t.Fatalf("%s plan %d: cold-loaded model estimates (%g,%g), original (%g,%g)",
					variant.name, i, c2, d2, c1, d1)
			}
		}
	}
}

// TestLoadModelRejectsIncompatible pins LoadModel's validation: encoders
// whose feature dimensions differ from the checkpoint's fail with
// descriptive errors instead of shape panics.
func TestLoadModelRejectsIncompatible(t *testing.T) {
	eps := benchCorpus(t, 6)
	cfg := TestConfig()
	m := New(cfg, testEnc)
	tr := NewParallelTrainer(m, 1)
	defer tr.Close()
	tr.FitNormalizers(eps)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	// A different string-embedding width changes AtomDim.
	narrowEnc := feature.NewEncoder(testCat, strembed.HashEmbedder{DimN: 6}, true)
	if _, err := LoadModel(bytes.NewReader(good), narrowEnc); err == nil {
		t.Fatal("LoadModel accepted an encoder with a mismatched atom width")
	}
	// Disabling the sample bitmap changes BitmapDim.
	noBmEnc := feature.NewEncoder(testCat, strembed.HashEmbedder{DimN: 12}, false)
	if _, err := LoadModel(bytes.NewReader(good), noBmEnc); err == nil {
		t.Fatal("LoadModel accepted an encoder without the checkpoint's sample bitmap")
	}

	// The good checkpoint still cold-loads after all the failures.
	if _, err := LoadModel(bytes.NewReader(good), testEnc); err != nil {
		t.Fatalf("good checkpoint failed to cold-load: %v", err)
	}
}
