// Command costload is the repository's end-to-end benchmark: it builds
// cmd/costestd, starts it at shipped default flags on loopback, drives
// /estimate over HTTP from two closed-loop clients, checks every answer, and
// prints the metrics BENCHMARK.json names. See ../README.md.
//
//	go run -C bench ./costload -workload single_cold -seed 7 -seconds 15 -trace 0
//	go run -C bench ./costload -workload all -out out/parent.jsonl
//	go run -C bench ./costload -compare out/parent.jsonl out/change.jsonl
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"syscall"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// runRecord is one line of an -out file: a run's result with what produced
// it, the input of -compare.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Seconds  int    `json:"seconds"`
	Trace    int    `json:"trace"`
	Commit   string `json:"commit"`
	result
}

func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("costload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload to run: "+strings.Join(workloadNames, ", ")+", or all")
	seed := fs.Int64("seed", 7, "corpus seed; the daemon never sees it, only the request bodies")
	seconds := fs.Int("seconds", 15, "length of the timed phase")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	out := fs.String("out", "", "append each run's record to this JSON-lines file (the input of -compare)")
	compare := fs.Bool("compare", false, "compare two -out files: costload -compare parent.jsonl change.jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: costload -compare parent.jsonl change.jsonl")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloadNames
	} else if !slices.Contains(workloadNames, *workload) {
		fmt.Fprintf(stderr, "costload: unknown workload %q (have %s)\n", *workload, strings.Join(workloadNames, ", "))
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "costload: -seconds must be at least 1 and -trace 0 or 1")
		return 2
	}

	// No daemon outlives this process: the fleet dies on return, on panic
	// (re-raised after the kill) and on SIGINT/SIGTERM via the context.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	defer func() {
		killFleet()
		if p := recover(); p != nil {
			panic(p)
		}
	}()

	fail := func(err error) int {
		fmt.Fprintf(stderr, "costload: %v\n", err)
		return 1
	}
	bdir, err := benchDir()
	if err != nil {
		return fail(err)
	}
	env := &environment{
		outDir: filepath.Join(bdir, "out"),
		client: newHTTPClient(),
		logf:   func(format string, args ...any) { fmt.Fprintf(stdout, "# "+format+"\n", args...) },
	}
	if env.bin, err = buildDaemon(ctx, bdir); err != nil {
		return fail(err)
	}
	env.sub = newSubstrate()
	commit := gitCommit(bdir)
	for _, name := range names {
		cfg := runConfig{workload: name, seed: *seed, seconds: *seconds}
		env.logf("costload workload=%s seed=%d seconds=%d trace=%d clients=%d (closed loop) commit=%s nproc=%d %s",
			name, *seed, *seconds, *trace, clients, commit, runtime.NumCPU(), runtime.Version())
		runFn := runEndToEnd
		if *trace == 1 {
			runFn = runTraced
		}
		res, err := runFn(ctx, env, cfg)
		if err != nil {
			return fail(fmt.Errorf("%s: %w", name, err))
		}
		printMetrics(stdout, res)
		if *out != "" {
			if err := appendRecord(*out, runRecord{name, *seed, *seconds, *trace, commit, *res}); err != nil {
				return fail(err)
			}
		}
		line, err := json.Marshal(res)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "%s\n", line)
		if !res.Correct {
			code = 1
		}
	}
	return code
}

// printMetrics prints every metric by name with its unit, one per line.
func printMetrics(w io.Writer, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(w, "# %-32s %14.4f %s\n", name, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "# attempted %d failed %d correct %v\n", res.Attempted, res.Failed, res.Correct)
}

func appendRecord(path string, rec runRecord) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(rec); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// gitCommit names the checkout for the run header; the driver's checkouts are
// not git repositories, so "unknown" is a normal answer.
func gitCommit(dir string) string {
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
