package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"text/tabwriter"
)

// benchmarkSpec is the part of BENCHMARK.json the program reads: workloads
// and metrics in order, the gated metrics with direction and bound.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
	} `json:"per_layer"`
}

func loadSpec() (*benchmarkSpec, error) {
	bdir, err := benchDir()
	if err != nil {
		return nil, err
	}
	b, err := os.ReadFile(filepath.Join(filepath.Dir(bdir), "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var spec benchmarkSpec
	return &spec, json.Unmarshal(b, &spec)
}

// loadRuns reads an -out file into metric values keyed by workload then
// metric, in run order. Traced runs are skipped: only end-to-end metrics are
// compared.
func loadRuns(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	runs := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var rec runRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if rec.Trace != 0 {
			continue
		}
		if runs[rec.Workload] == nil {
			runs[rec.Workload] = map[string][]float64{}
		}
		for name, m := range rec.Metrics {
			runs[rec.Workload][name] = append(runs[rec.Workload][name], m.Value)
		}
	}
	return runs, sc.Err()
}

// Verdicts of one (metric, workload) row.
const (
	verdictGain       = "gain"
	verdictNoChange   = "within bound"
	verdictRegression = "REGRESSION"
	verdictUnresolved = "unresolved"
	verdictTooFew     = "too few runs"
)

const minPairs = 10

// judge applies the choosing-metrics guide's rules to one metric on one
// workload. The i-th parent run pairs with the i-th change run (run them
// alternating which side goes first).
//
//   - regression: the change's median is worse than the parent's by more
//     than the bound;
//   - unresolved: the parent's own inter-quartile spread, as a share of its
//     median, exceeds the bound — unless every change run beats, or every
//     change run loses to, every parent run;
//   - gain: at least ten pairs, the change wins nine tenths of them (ties
//     count for neither side), and the medians differ by more than the
//     parent's inter-quartile spread.
func judge(parent, change []float64, lowerIsBetter bool, bound float64) (verdict string, wins, pairs int, pq, cq [3]float64) {
	pairs = min(len(parent), len(change))
	if pairs < 2 {
		return verdictTooFew, 0, pairs, pq, cq
	}
	better := func(a, b float64) bool {
		if lowerIsBetter {
			return a < b
		}
		return a > b
	}
	for i := 0; i < pairs; i++ {
		if better(change[i], parent[i]) {
			wins++
		}
	}
	allBetter, allWorse := true, true
	for _, c := range change {
		for _, p := range parent {
			allBetter = allBetter && better(c, p)
			allWorse = allWorse && better(p, c)
		}
	}
	ps, cs := append([]float64(nil), parent...), append([]float64(nil), change...)
	pq[0], pq[1], pq[2] = quartiles(ps)
	cq[0], cq[1], cq[2] = quartiles(cs)
	spread := pq[2] - pq[0]
	gap := cq[1] - pq[1]
	if !lowerIsBetter {
		gap = -gap
	}
	// gap > 0 means the change is worse.
	switch {
	case spread > bound*pq[1] && !allBetter && !allWorse:
		return verdictUnresolved, wins, pairs, pq, cq
	case gap > bound*pq[1]:
		return verdictRegression, wins, pairs, pq, cq
	case pairs >= minPairs && wins*10 >= pairs*9 && -gap > spread:
		return verdictGain, wins, pairs, pq, cq
	}
	return verdictNoChange, wins, pairs, pq, cq
}

// compareFiles prints one row per (metric, workload) and returns 1 if any
// row is a regression.
func compareFiles(parentPath, changePath string, stdout, stderr io.Writer) int {
	fail := func(err error) int {
		fmt.Fprintf(stderr, "costload: %v\n", err)
		return 2
	}
	spec, err := loadSpec()
	if err != nil {
		return fail(err)
	}
	parent, err := loadRuns(parentPath)
	if err != nil {
		return fail(err)
	}
	change, err := loadRuns(changePath)
	if err != nil {
		return fail(err)
	}
	code := 0
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tworkload\tunit\tparent median [q1, q3]\tchange median [q1, q3]\tchange\tbound\twins\tverdict")
	for _, m := range spec.EndToEnd {
		for _, w := range spec.Workloads {
			if len(parent[w.Name][m.Name])+len(change[w.Name][m.Name]) == 0 {
				continue // workload not run on either side
			}
			verdict, wins, pairs, pq, cq := judge(parent[w.Name][m.Name], change[w.Name][m.Name], m.Better == "lower", m.Bound)
			if verdict == verdictRegression {
				code = 1
			}
			delta := 0.0
			if pq[1] != 0 {
				delta = (cq[1] - pq[1]) / pq[1] * 100
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g [%.4g, %.4g]\t%.4g [%.4g, %.4g]\t%+.1f%%\t%.0f%%\t%d/%d\t%s\n",
				m.Name, w.Name, m.Unit, pq[1], pq[0], pq[2], cq[1], cq[0], cq[2], delta, m.Bound*100, wins, pairs, verdict)
		}
	}
	tw.Flush()
	fmt.Fprintf(stdout, "a gain needs >= %d pairs; unresolved rows need longer or more runs, not a verdict\n", minPairs)
	return code
}
