package core

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"costest/internal/dataset"
	"costest/internal/exec"
	"costest/internal/feature"
	"costest/internal/pg"
	"costest/internal/planner"
	"costest/internal/stats"
	"costest/internal/strembed"
	"costest/internal/workload"
)

var (
	testDB  = dataset.GenerateIMDB(dataset.Config{Seed: 1, Scale: 0.02})
	testCat = stats.Collect(testDB, stats.Options{Buckets: 30, SampleSize: 48, Seed: 1})
	testEng = exec.NewEngine(testDB)
	testPl  = planner.New(pg.New(testCat), testDB.Schema)
	testEnc = feature.NewEncoder(testCat, strembed.HashEmbedder{DimN: 12}, true)
)

// labeledPlans builds a small encoded training corpus, cached per test run.
func labeledPlans(t testing.TB, seed int64, n int, strings bool) []*feature.EncodedPlan {
	t.Helper()
	var queries = workload.TrainingNumeric(testDB, seed, n)
	if strings {
		queries = workload.TrainingStrings(testDB, seed, n)
	}
	lab := &workload.Labeler{Planner: testPl, Engine: testEng}
	samples := lab.Label(queries)
	eps := make([]*feature.EncodedPlan, 0, len(samples))
	for _, s := range samples {
		ep, err := testEnc.Encode(s.Plan)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		eps = append(eps, ep)
	}
	if len(eps) < n/2 {
		t.Fatalf("only %d/%d samples labeled", len(eps), n)
	}
	return eps
}

func TestModelForwardShapes(t *testing.T) {
	eps := labeledPlans(t, 101, 8, false)
	for _, cfgMod := range []func(*Config){
		func(c *Config) {},
		func(c *Config) { c.Pred = PredLSTM },
		func(c *Config) { c.Rep = RepNN },
	} {
		cfg := TestConfig()
		cfgMod(&cfg)
		m := New(cfg, testEnc)
		for _, ep := range eps {
			cost, card := m.Estimate(ep)
			if math.IsNaN(cost) || math.IsNaN(card) || cost <= 0 || card <= 0 {
				t.Fatalf("cfg %v/%v: estimate (%g, %g)", cfg.Pred, cfg.Rep, cost, card)
			}
		}
	}
}

// TestModelGradCheck pins the level-wise backward to central finite
// differences: for every architecture variant and both supervision modes,
// the parameter gradients BatchSession.run(train)+backward accumulate for a
// multi-plan batch must match the numerical derivative of the summed batch
// loss. The loss is the smooth MSLE surrogate — the q-error loss clips its
// gradient, which finite differences cannot see (nn's own tests cover it).
func TestModelGradCheck(t *testing.T) {
	eps := labeledPlans(t, 202, 6, true)[:3]
	for _, variant := range sessionVariants {
		for _, subplan := range []bool{true, false} {
			cfg := TestConfig()
			variant.mod(&cfg)
			cfg.SubplanLoss = subplan
			cfg.UseQError = false
			m := New(cfg, testEnc)
			// Jitter every parameter (biases init at 0) so no ReLU sits
			// exactly at its kink, where finite differences and subgradients
			// disagree.
			jitter := rand.New(rand.NewSource(99))
			for _, p := range m.PS.Params() {
				for i := range p.Value {
					p.Value[i] += (jitter.Float64() - 0.5) * 0.02
				}
			}
			pt := NewParallelTrainer(m, 1)
			pt.FitNormalizers(eps)
			bs := NewBatchSession(m)
			objective := func() float64 {
				bs.run(eps, nil, true)
				return pt.batchLossAndGrads(bs)
			}
			m.PS.ZeroGrad()
			objective()
			bs.backward()

			// Compare on a deterministic subset of parameters.
			checked, failures := 0, 0
			for _, p := range m.PS.Params() {
				stride := len(p.Value)/7 + 1
				for i := 0; i < len(p.Value); i += stride {
					orig := p.Value[i]
					const h = 1e-6
					p.Value[i] = orig + h
					up := objective()
					p.Value[i] = orig - h
					down := objective()
					p.Value[i] = orig
					want := (up - down) / (2 * h)
					got := p.Grad[i]
					// Central differences at h=1e-6 carry ~1e-10 of roundoff
					// on gradients of order 1e-1 and below.
					if math.Abs(got-want) > 1e-8+1e-6*math.Abs(want) {
						failures++
						if failures < 4 {
							t.Logf("%s/subplan=%v: %s[%d] grad %g, want %g", variant.name, subplan, p.Name, i, got, want)
						}
					}
					checked++
				}
			}
			if failures > checked/50 {
				t.Fatalf("%s/subplan=%v: %d/%d gradient checks failed", variant.name, subplan, failures, checked)
			}
		}
	}
}

func TestTrainingReducesLoss(t *testing.T) {
	eps := labeledPlans(t, 303, 60, false)
	train, valid := eps[:len(eps)*8/10], eps[len(eps)*8/10:]
	cfg := TestConfig()
	m := New(cfg, testEnc)
	tr := NewParallelTrainer(m, 1)
	defer tr.Close()
	hist := tr.Fit(train, valid, 12, 16, 1, nil)
	first, last := hist[0], hist[len(hist)-1]
	if last.TrainLoss >= first.TrainLoss {
		t.Fatalf("training loss did not decrease: %g -> %g", first.TrainLoss, last.TrainLoss)
	}
	if last.ValidCard > first.ValidCard*1.5 {
		t.Fatalf("validation card error diverged: %g -> %g", first.ValidCard, last.ValidCard)
	}
}

func TestOverfitTinySet(t *testing.T) {
	eps := labeledPlans(t, 404, 10, false)[:6]
	cfg := TestConfig()
	cfg.LearnRate = 0.01
	m := New(cfg, testEnc)
	tr := NewParallelTrainer(m, 1)
	defer tr.Close()
	tr.FitNormalizers(eps)
	for e := 0; e < 150; e++ {
		tr.TrainEpochParallel(eps, 6, 1)
	}
	costQ, cardQ := m.ValidationError(eps)
	if cardQ > 4 {
		t.Errorf("failed to overfit 6 samples: card q-error %g", cardQ)
	}
	if costQ > 4 {
		t.Errorf("failed to overfit 6 samples: cost q-error %g", costQ)
	}
}

func TestMemoryPool(t *testing.T) {
	eps := labeledPlans(t, 606, 10, false)
	cfg := TestConfig()
	m := New(cfg, testEnc)
	pool := NewMemoryPool()

	cost1, card1 := m.EstimateWithPool(eps[0], pool)
	if pool.Len() == 0 {
		t.Fatal("pool empty after first estimate")
	}
	// Second evaluation of the same plan must hit the pool and agree.
	cost2, card2 := m.EstimateWithPool(eps[0], pool)
	if cost1 != cost2 || card1 != card2 {
		t.Fatalf("pooled estimate differs: (%g,%g) vs (%g,%g)", cost1, card1, cost2, card2)
	}
	if pool.HitRate() == 0 {
		t.Fatal("no pool hits on repeated plan")
	}
	// Pooled estimates must equal non-pooled ones.
	for _, ep := range eps {
		c1, d1 := m.Estimate(ep)
		c2, d2 := m.EstimateWithPool(ep, pool)
		if math.Abs(c1-c2) > 1e-9*math.Max(1, c1) || math.Abs(d1-d2) > 1e-9*math.Max(1, d1) {
			t.Fatalf("pool changed estimate: (%g,%g) vs (%g,%g)", c1, d1, c2, d2)
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	eps := labeledPlans(t, 707, 6, false)
	cfg := TestConfig()
	m := New(cfg, testEnc)
	tr := NewParallelTrainer(m, 1)
	defer tr.Close()
	tr.FitNormalizers(eps)
	tr.TrainEpochParallel(eps, 4, 1)

	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := LoadModel(&buf, testEnc)
	if err != nil {
		t.Fatal(err)
	}
	for _, ep := range eps {
		c1, d1 := m.Estimate(ep)
		c2, d2 := m2.Estimate(ep)
		if c1 != c2 || d1 != d2 {
			t.Fatal("loaded model disagrees with original")
		}
	}
}

func TestSingleTaskTargets(t *testing.T) {
	eps := labeledPlans(t, 808, 20, false)
	for _, target := range []Target{TargetCost, TargetCard} {
		cfg := TestConfig()
		cfg.Target = target
		m := New(cfg, testEnc)
		tr := NewParallelTrainer(m, 1)
		hist := tr.Fit(eps[:15], eps[15:], 6, 8, 1, nil)
		tr.Close()
		if hist[len(hist)-1].TrainLoss >= hist[0].TrainLoss {
			t.Errorf("target %v: loss did not decrease", target)
		}
	}
}

func TestPredVariantsDiffer(t *testing.T) {
	eps := labeledPlans(t, 909, 6, true)
	cfgA := TestConfig()
	cfgB := TestConfig()
	cfgB.Pred = PredLSTM
	a, b := New(cfgA, testEnc), New(cfgB, testEnc)
	ca, _ := a.Estimate(eps[0])
	cb, _ := b.Estimate(eps[0])
	if ca == cb {
		t.Fatal("pool and LSTM predicate variants produced identical output (suspicious wiring)")
	}
	if a.NumParams() <= 0 || b.NumParams() <= 0 {
		t.Fatal("no parameters registered")
	}
	// The pooling variant should be smaller: pooling has no internal-node
	// parameters (the paper's efficiency argument in Table 12).
	if a.NumParams() >= b.NumParams() {
		t.Errorf("pool params %d >= lstm params %d", a.NumParams(), b.NumParams())
	}
}

func TestEpochStatsHistory(t *testing.T) {
	eps := labeledPlans(t, 1010, 12, false)
	cfg := TestConfig()
	m := New(cfg, testEnc)
	tr := NewParallelTrainer(m, 1)
	defer tr.Close()
	var calls int
	hist := tr.Fit(eps[:9], eps[9:], 3, 4, 1, func(EpochStats) { calls++ })
	if len(hist) != 3 || calls != 3 {
		t.Fatalf("history %d entries, %d callbacks", len(hist), calls)
	}
	for i, h := range hist {
		if h.Epoch != i {
			t.Fatal("epoch numbering wrong")
		}
	}
}
