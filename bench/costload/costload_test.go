package main

import (
	"context"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkJSON reads the metric and workload names the contract file
// declares.
func benchmarkJSON(t *testing.T) (endToEnd, perLayer, workloads []string) {
	t.Helper()
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	for _, w := range spec.Workloads {
		workloads = append(workloads, w.Name)
	}
	return endToEnd, perLayer, workloads
}

func sameNames(t *testing.T, what string, got map[string]metric, want []string) {
	t.Helper()
	for _, name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: BENCHMARK.json names %q, the run did not report it", what, name)
		}
	}
	if len(got) != len(want) {
		t.Errorf("%s: run reported %d metrics, BENCHMARK.json names %d", what, len(got), len(want))
	}
}

// TestSmoke runs every workload end to end against a real costestd for 200
// requests, and one traced run, and holds their output to BENCHMARK.json.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and starts costestd")
	}
	endToEnd, perLayer, workloads := benchmarkJSON(t)
	if strings.Join(workloads, ",") != strings.Join(workloadNames, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, costload has %v", workloads, workloadNames)
	}
	bdir, err := benchDir()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	env := &environment{outDir: filepath.Join(bdir, "out"), client: newHTTPClient(), logf: t.Logf}
	if env.bin, err = buildDaemon(ctx, bdir); err != nil {
		t.Fatal(err)
	}
	env.sub = newSubstrate()
	t.Cleanup(killFleet)

	t.Run("workloads", func(t *testing.T) {
		for _, name := range workloadNames {
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				res, err := runEndToEnd(ctx, env, runConfig{workload: name, seed: 7, perClient: 100, sizeDiv: 32, oneLifetime: true})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 200 {
					t.Errorf("correct %v, %d of %d failed", res.Correct, res.Failed, res.Attempted)
				}
				sameNames(t, "end_to_end", res.Metrics, endToEnd)
				for name, m := range res.Metrics {
					if !(m.Value > 0) {
						t.Errorf("%s = %v, end-to-end metrics are never 0", name, m.Value)
					}
				}
			})
		}
		t.Run("traced", func(t *testing.T) {
			t.Parallel()
			res, err := runTraced(ctx, env, runConfig{workload: replicaChurn, seed: 7, perClient: 100, sizeDiv: 32})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Errorf("%d of %d failed", res.Failed, res.Attempted)
			}
			sameNames(t, "per_layer", res.Metrics, perLayer)
			m := res.Metrics
			if sum := m["serve.http_floor_us"].Value + m["serve.handler_us"].Value + m["serve.sched_wait_us"].Value; !near(sum, m["trace.latency_p50_ms"].Value*1e3) {
				t.Errorf("floor + handler + sched_wait = %v us, latency_p50 = %v ms", sum, m["trace.latency_p50_ms"].Value)
			}
		})
	})
}

func near(a, b float64) bool { return a-b < 1e-6 && b-a < 1e-6 }

// TestSurfaceIsTheOnlyImporter keeps the repository's API behind surface.go.
func TestSurfaceIsTheOnlyImporter(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range files {
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if strings.HasPrefix(imp.Path.Value, `"costest/`) && file != "surface.go" {
				t.Errorf("%s imports %s; only surface.go may import the repository", file, imp.Path.Value)
			}
		}
	}
}

// TestQuartiles pins the quartile definition to Python's
// statistics.quantiles(v, n=4), which the driver's spread check uses.
func TestQuartiles(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles(1, 2) = %v %v %v, want 0.75 1.5 2.25", q1, q2, q3)
	}
}

func TestJudge(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(by float64) []float64 {
		out := make([]float64, len(steady))
		for i, v := range steady {
			out[i] = v + by
		}
		return out
	}
	noisy := []float64{60, 140, 70, 130, 80, 120, 90, 110, 100, 100}
	for _, tc := range []struct {
		name           string
		parent, change []float64
		lowerIsBetter  bool
		want           string
	}{
		{"same", steady, steady, true, verdictNoChange},
		{"lower is better, lower", steady, shift(-20), true, verdictGain},
		{"lower is better, higher", steady, shift(20), true, verdictRegression},
		{"higher is better, higher", steady, shift(20), false, verdictGain},
		{"higher is better, lower", steady, shift(-20), false, verdictRegression},
		{"inside the bound", steady, shift(5), true, verdictNoChange},
		{"parent spread beyond the bound", noisy, shift(0), true, verdictUnresolved},
		{"noisy parent, every run better", noisy, shift(-60), true, verdictGain},
		{"noisy parent, every run worse", noisy, shift(60), true, verdictRegression},
		{"too few pairs for a gain", steady[:5], shift(-20)[:5], true, verdictNoChange},
		{"one run", steady[:1], steady[:1], true, verdictTooFew},
	} {
		if got, _, _, _, _ := judge(tc.parent, tc.change, tc.lowerIsBetter, 0.10); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestEnumVariantsDistinct holds enum_batch64 to its definition: the eight
// candidates of a query are pairwise different plans over the same scans.
func TestEnumVariantsDistinct(t *testing.T) {
	sub := newSubstrate()
	c, err := buildCorpus(sub, enumBatch64, 7, 32)
	if err != nil {
		t.Fatal(err)
	}
	for _, req := range c.requests {
		if len(req.plans) != enumQueriesPer*enumVariants {
			t.Fatalf("%d plans in a request, want %d", len(req.plans), enumQueriesPer*enumVariants)
		}
		for q := 0; q < len(req.plans); q += enumVariants {
			sigs := map[string]bool{}
			for _, wp := range req.plans[q : q+enumVariants] {
				root, err := wp.Decode()
				if err != nil {
					t.Fatal(err)
				}
				sigs[root.Signature()] = true
			}
			if len(sigs) != enumVariants {
				t.Errorf("query %d: %d distinct candidates, want %d", q/enumVariants, len(sigs), enumVariants)
			}
		}
	}
}
