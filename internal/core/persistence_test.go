package core

import (
	"bytes"
	"encoding/gob"
	"strings"
	"testing"

	"costest/internal/feature"
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

// TestModelLoadLegacyFormat pins what happens to pre-v3 checkpoint files now
// that the self-describing format is the only one: the headerless
// parameter-only stream (v1) and the normalizer-only header (v2) are both
// refused with the descriptive "not self-describing" error, never decoded
// into a half-configured model.
func TestModelLoadLegacyFormat(t *testing.T) {
	m := New(TestConfig(), testEnc)

	var v1 bytes.Buffer
	if err := m.PS.EncodeGob(gob.NewEncoder(&v1)); err != nil { // the pre-header wire format
		t.Fatal(err)
	}
	// A version-2 header (pre-config): hand-built the way Save used to write.
	var v2 bytes.Buffer
	v2.WriteString(modelMagic)
	enc := gob.NewEncoder(&v2)
	if err := enc.Encode(modelHeader{Version: 2, CostNorm: m.CostNorm, CardNorm: m.CardNorm}); err != nil {
		t.Fatal(err)
	}
	if err := m.PS.EncodeGob(enc); err != nil {
		t.Fatal(err)
	}

	for name, data := range map[string][]byte{"v1 headerless": v1.Bytes(), "v2 header": v2.Bytes()} {
		_, err := LoadModel(bytes.NewReader(data), testEnc)
		if err == nil || !strings.Contains(err.Error(), "not self-describing") {
			t.Fatalf("%s: LoadModel error = %v, want the descriptive not-self-describing rejection", name, err)
		}
	}
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

	// A header describing a wider model than the payload that follows it:
	// the shape check must refuse the weights.
	var mismatched bytes.Buffer
	mismatched.WriteString(modelMagic)
	enc := gob.NewEncoder(&mismatched)
	bigCfg := cfg
	bigCfg.Hidden *= 2
	hdr := modelHeader{Version: modelCheckpointVersion, CostNorm: src.CostNorm, CardNorm: src.CardNorm,
		Config: bigCfg, Encoder: encoderMetaOf(testEnc)}
	if err := enc.Encode(hdr); err != nil {
		t.Fatal(err)
	}
	if err := src.PS.EncodeGob(enc); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"truncated-magic", full[:4]},
		{"truncated-header", full[:len(modelMagic)+3]},
		{"truncated-params", full[:len(full)*3/4]},
		{"garbage", []byte("COSTESTMnot a gob stream at all....")},
		{"config-payload-mismatch", mismatched.Bytes()},
	}
	for _, tc := range cases {
		if _, err := LoadModel(bytes.NewReader(tc.data), testEnc); err == nil {
			t.Fatalf("%s: LoadModel succeeded on corrupt input", tc.name)
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
