package core

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"costest/internal/fault"
)

// trainedCheckpointModel builds a small trained model for checkpoint tests.
func trainedCheckpointModel(t *testing.T) *Model {
	t.Helper()
	eps := benchCorpus(t, 8)
	m := New(TestConfig(), testEnc)
	tr := NewParallelTrainer(m, 1)
	defer tr.Close()
	tr.FitNormalizers(eps)
	tr.TrainEpochParallel(eps, 4, 1)
	return m
}

// sameEstimates fails the test unless a and b estimate the corpus
// bit-identically.
func sameEstimates(t *testing.T, a, b *Model) {
	t.Helper()
	for i, ep := range benchCorpus(t, 8) {
		c1, d1 := a.Estimate(ep)
		c2, d2 := b.Estimate(ep)
		if c1 != c2 || d1 != d2 {
			t.Fatalf("plan %d: estimates (%g,%g) vs (%g,%g)", i, c2, d2, c1, d1)
		}
	}
}

// TestSaveCheckpointAtomicRoundTrip: the happy path writes path (and, on the
// second save, path+".prev"), leaves no temp file behind, and LoadCheckpoint
// reproduces the saved model bit for bit.
func TestSaveCheckpointAtomicRoundTrip(t *testing.T) {
	m := trainedCheckpointModel(t)
	path := filepath.Join(t.TempDir(), "model.ckpt")

	if err := SaveCheckpoint(path, m); err != nil {
		t.Fatalf("first save: %v", err)
	}
	if _, err := os.Stat(path + ".prev"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("first save created .prev: %v", err)
	}
	if err := SaveCheckpoint(path, m); err != nil {
		t.Fatalf("second save: %v", err)
	}
	if _, err := os.Stat(path + ".prev"); err != nil {
		t.Fatalf("second save kept no last-good copy: %v", err)
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("temp file left behind: %v", err)
	}

	got, src, err := LoadCheckpoint(path, testEnc)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if src != path {
		t.Fatalf("loaded from %s, want primary %s", src, path)
	}
	sameEstimates(t, m, got)
}

// TestLoadCheckpointMissing: with neither file present the error matches
// fs.ErrNotExist — the "train fresh, nothing to be loud about" signal.
func TestLoadCheckpointMissing(t *testing.T) {
	_, _, err := LoadCheckpoint(filepath.Join(t.TempDir(), "none.ckpt"), testEnc)
	if !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing checkpoint error = %v, want fs.ErrNotExist", err)
	}
}

// TestLoadCheckpointFallsBackToPrev simulates the crash windows around the
// rename dance: a corrupt or truncated primary (or a primary missing
// entirely, as between the two renames) must fall back to the last-good
// .prev file; a stray .tmp from a killed writer is ignored.
func TestLoadCheckpointFallsBackToPrev(t *testing.T) {
	m := trainedCheckpointModel(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "model.ckpt")
	if err := SaveCheckpoint(path, m); err != nil {
		t.Fatal(err)
	}

	// Kill between rename(path -> .prev) and rename(tmp -> path): primary
	// gone, .prev good, tmp holds the unrenamed new checkpoint.
	if err := os.Rename(path, path+".prev"); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path+".tmp", []byte("COSTESTM torn mid-write"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, src, err := LoadCheckpoint(path, testEnc)
	if err != nil {
		t.Fatalf("load after simulated mid-rename kill: %v", err)
	}
	if src != path+".prev" {
		t.Fatalf("loaded from %s, want .prev fallback", src)
	}
	sameEstimates(t, m, got)

	// Corrupt primary (torn in-place write, disk fault): .prev still wins.
	if err := os.WriteFile(path, []byte("COSTESTM garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, src, err = LoadCheckpoint(path, testEnc)
	if err != nil {
		t.Fatalf("load with corrupt primary: %v", err)
	}
	if src != path+".prev" {
		t.Fatalf("loaded from %s, want .prev fallback", src)
	}
	sameEstimates(t, m, got)

	// Both corrupt: a descriptive error that is NOT fs.ErrNotExist, naming
	// every rejected file.
	if err := os.WriteFile(path+".prev", []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = LoadCheckpoint(path, testEnc)
	if err == nil || errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("both-corrupt error = %v, want corruption report", err)
	}
}

// TestSaveCheckpointInjectedIOError: a fault-injected write failure leaves
// the existing checkpoint (and its .prev) byte-for-byte untouched — a failed
// save can never eat the last-good state.
func TestSaveCheckpointInjectedIOError(t *testing.T) {
	m := trainedCheckpointModel(t)
	path := filepath.Join(t.TempDir(), "model.ckpt")
	if err := SaveCheckpoint(path, m); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for _, site := range []string{"checkpoint.write", "checkpoint.sync", "checkpoint.rename"} {
		fault.Enable(fault.New(1).Add(fault.Rule{Site: site, Kind: fault.Error, Count: 1}))
		err := SaveCheckpoint(path, m)
		fault.Disable()
		if err == nil {
			t.Fatalf("%s: injected error did not surface", site)
		}
		after, rerr := os.ReadFile(path)
		if rerr != nil {
			t.Fatalf("%s: checkpoint unreadable after failed save: %v", site, rerr)
		}
		if string(after) != string(before) {
			t.Fatalf("%s: failed save modified the checkpoint", site)
		}
		if _, err := os.Stat(path + ".tmp"); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("%s: failed save left a temp file", site)
		}
	}
}

// TestLoadCheckpointInjectedReadError: an injected read failure on the
// primary falls back to .prev; failing both reads reports corruption. This
// is the I/O-fault version of the corrupt-file fallback.
func TestLoadCheckpointInjectedReadError(t *testing.T) {
	m := trainedCheckpointModel(t)
	path := filepath.Join(t.TempDir(), "model.ckpt")
	if err := SaveCheckpoint(path, m); err != nil {
		t.Fatal(err)
	}
	if err := SaveCheckpoint(path, m); err != nil { // creates .prev
		t.Fatal(err)
	}

	fault.Enable(fault.New(1).Add(fault.Rule{Site: "checkpoint.read", Kind: fault.Error, Count: 1}))
	got, src, err := LoadCheckpoint(path, testEnc)
	fault.Disable()
	if err != nil {
		t.Fatalf("load with failing primary read: %v", err)
	}
	if src != path+".prev" {
		t.Fatalf("loaded from %s, want .prev fallback", src)
	}
	sameEstimates(t, m, got)

	fault.Enable(fault.New(1).Add(fault.Rule{Site: "checkpoint.read", Kind: fault.Error}))
	_, _, err = LoadCheckpoint(path, testEnc)
	fault.Disable()
	if err == nil || errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("both reads failing = %v, want corruption report", err)
	}
}
