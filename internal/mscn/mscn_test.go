package mscn

import (
	"math"
	"testing"

	"costest/internal/dataset"
	"costest/internal/exec"
	"costest/internal/nn"
	"costest/internal/pg"
	"costest/internal/planner"
	"costest/internal/stats"
	"costest/internal/workload"
)

var (
	testDB  = dataset.GenerateIMDB(dataset.Config{Seed: 1, Scale: 0.02})
	testCat = stats.Collect(testDB, stats.Options{Buckets: 30, SampleSize: 48, Seed: 1})
	testEng = exec.NewEngine(testDB)
	testPl  = planner.New(pg.New(testCat), testDB.Schema)
)

func trainingSamples(t *testing.T, m *Model, n int) []*Sample {
	t.Helper()
	qs := workload.TrainingNumeric(testDB, 17, n)
	lab := &workload.Labeler{Planner: testPl, Engine: testEng}
	labeled := lab.Label(qs)
	var out []*Sample
	for _, l := range labeled {
		f, err := m.Featurize(l.Query)
		if err != nil {
			t.Fatalf("featurize: %v", err)
		}
		out = append(out, &Sample{F: f, Target: l.Card})
	}
	if len(out) < n/2 {
		t.Fatalf("only %d samples", len(out))
	}
	return out
}

func TestFeaturizeShapes(t *testing.T) {
	m := New(Config{Hidden: 16, SampleBitmap: true, Seed: 1}, testCat)
	qs := workload.TrainingNumeric(testDB, 3, 10)
	for _, q := range qs {
		f, err := m.Featurize(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(f.Tables) != len(q.Tables) {
			t.Fatalf("table set size %d, want %d", len(f.Tables), len(q.Tables))
		}
		if len(f.Joins) == 0 || len(f.Preds) == 0 {
			t.Fatal("empty sets must be zero-padded")
		}
		for _, v := range f.Tables {
			if len(v) != m.tableDim {
				t.Fatal("table vector dim wrong")
			}
		}
	}
}

func TestSampleBitmapChangesDim(t *testing.T) {
	with := New(Config{Hidden: 8, SampleBitmap: true, Seed: 1}, testCat)
	without := New(Config{Hidden: 8, SampleBitmap: false, Seed: 1}, testCat)
	if with.tableDim != without.tableDim+testCat.SampleSize {
		t.Fatalf("dims %d vs %d", with.tableDim, without.tableDim)
	}
}

func TestTrainingImprovesCardEstimates(t *testing.T) {
	m := New(Config{Hidden: 24, SampleBitmap: true, Seed: 2}, testCat)
	samples := trainingSamples(t, m, 60)
	cut := len(samples) * 8 / 10
	tr := NewTrainer(m, nn.CardFloor)
	hist := tr.Fit(samples[:cut], samples[cut:], 15, 16)
	if hist[len(hist)-1].TrainLoss >= hist[0].TrainLoss {
		t.Fatalf("loss did not decrease: %g -> %g", hist[0].TrainLoss, hist[len(hist)-1].TrainLoss)
	}
	final := hist[len(hist)-1].ValidQ
	if math.IsNaN(final) || final <= 0 {
		t.Fatalf("invalid validation error %g", final)
	}
}

func TestEstimatePositive(t *testing.T) {
	m := New(Config{Hidden: 8, SampleBitmap: true, Seed: 3}, testCat)
	qs := workload.TrainingNumeric(testDB, 5, 5)
	for _, q := range qs {
		est, err := m.Estimate(q)
		if err != nil {
			t.Fatal(err)
		}
		if est <= 0 || math.IsNaN(est) {
			t.Fatalf("estimate %g", est)
		}
	}
}

func TestBatchMatchesSequential(t *testing.T) {
	m := New(Config{Hidden: 16, SampleBitmap: true, Seed: 4}, testCat)
	qs := workload.TrainingNumeric(testDB, 7, 12)
	var fs []*Features
	for _, q := range qs {
		f, err := m.Featurize(q)
		if err != nil {
			t.Fatal(err)
		}
		fs = append(fs, f)
	}
	batch := m.EstimateBatch(fs)
	for i, f := range fs {
		seq := m.EstimateFeatures(f)
		if math.Abs(batch[i]-seq) > 1e-9*math.Max(1, seq) {
			t.Fatalf("batch[%d]=%g, sequential=%g", i, batch[i], seq)
		}
	}
}

// MSCN gradient check through pooling.
func TestMSCNGradCheck(t *testing.T) {
	m := New(Config{Hidden: 6, SampleBitmap: false, Seed: 5}, testCat)
	qs := workload.TrainingNumeric(testDB, 9, 4)
	f, err := m.Featurize(qs[0])
	if err != nil {
		t.Fatal(err)
	}
	s := &Sample{F: f, Target: 1234}
	tr := NewTrainer(m, nn.CostFloor)
	tr.FitNormalizer([]*Sample{s, {F: f, Target: 1}})
	// The training loss without its per-sample clip, which finite
	// differences cannot see.
	tr.loss = nn.QErrorLoss{Norm: m.Norm, Floor: nn.CostFloor}

	objective := func() float64 {
		l, _ := tr.loss.Eval(m.forward(f), s.Target)
		return l
	}
	m.PS.ZeroGrad()
	tr.step(s)
	checked, failed := 0, 0
	for _, p := range m.PS.Params() {
		stride := len(p.Value)/5 + 1
		for i := 0; i < len(p.Value); i += stride {
			orig := p.Value[i]
			const h = 1e-6
			p.Value[i] = orig + h
			up := objective()
			p.Value[i] = orig - h
			down := objective()
			p.Value[i] = orig
			want := (up - down) / (2 * h)
			if math.Abs(p.Grad[i]-want) > 1e-4*math.Max(1, math.Abs(want)) {
				failed++
			}
			checked++
		}
	}
	if failed > checked/30 {
		t.Fatalf("%d/%d MSCN gradient checks failed", failed, checked)
	}
}

func TestStatelessForwardMatchesStateful(t *testing.T) {
	m := New(Config{Hidden: 12, SampleBitmap: true, Seed: 6}, testCat)
	qs := workload.TrainingNumeric(testDB, 11, 5)
	for _, q := range qs {
		f, err := m.Featurize(q)
		if err != nil {
			t.Fatal(err)
		}
		a := m.forward(f)
		b := m.forwardStateless(f)
		if math.Abs(a-b) > 1e-12 {
			t.Fatalf("stateless %g != stateful %g", b, a)
		}
	}
}
