package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"
)

// Workload names. Each is one traffic mix; README.md records why it exists.
const (
	singleCold   = "single_cold"
	singleHot    = "single_hot"
	enumBatch64  = "enum_batch64"
	replicaChurn = "replica_churn"
)

var workloadNames = []string{singleCold, singleHot, enumBatch64, replicaChurn}

// Corpus sizes. single_cold's working set (8,192 plans, ≈50k sub-plan
// signatures) must dwarf the daemon's 4,096-entry pool; single_hot's (64
// plans) must fit in it whole. They differ in nothing else.
const (
	coldPlans       = 8192
	hotPlans        = 64
	hotPoolPlans    = 1024
	enumQueries     = 2000
	enumVariants    = 8
	enumQueriesPer  = 8
	crossCheckPlans = 256
)

// substrate is the database side of the corpus: the same synthetic IMDB
// instance and catalog the daemon builds for itself, so every generated plan
// names tables and columns the daemon's encoder knows.
type substrate struct {
	db         *database
	cat        *catalog
	generateNS int64
	collectNS  int64
}

func newSubstrate() *substrate {
	t0 := time.Now()
	db := generateDB()
	t1 := time.Now()
	cat := collectStats(db)
	return &substrate{db: db, cat: cat, generateNS: int64(t1.Sub(t0)), collectNS: int64(time.Since(t1))}
}

// request is one /estimate call: its body, the plans inside it (kept for the
// in-process replay) and the index of its first plan in the corpus-wide plan
// numbering the output check keys on.
type request struct {
	body      []byte
	plans     []*wirePlan
	firstPlan int
}

// corpus is a workload's request set and the order clients walk it in.
type corpus struct {
	requests []request
	// order is a seeded permutation of the requests; client c starts at
	// c·len/clients and walks it cyclically, so the clients never send the
	// same request at the same time and a run is a function of the seed.
	// cursor is each client's position, kept across load phases: a timed
	// phase goes on where the warm-up stopped instead of replaying it.
	order  []int
	cursor [clients]int
	// crossCheck is replica_churn's post-run primary-vs-follower set.
	crossCheck []request
}

func (c *corpus) plansPerRequest() int { return len(c.requests[0].plans) }

// estimateRequest mirrors the daemon's /estimate body.
type estimateRequest struct {
	Plan      *wirePlan   `json:"plan,omitempty"`
	Plans     []*wirePlan `json:"plans,omitempty"`
	TimeoutMS int         `json:"timeout_ms,omitempty"`
}

// subSeed derives the generator seed of one query stream from the run seed.
// The multiplier keeps every stream's seed away from the daemon's training
// seed (42) whatever -seed is, so the daemon never serves its training set.
func subSeed(seed int64, stream int64) int64 { return seed*1_000_003 + stream }

// buildCorpus generates the workload's requests from the seed. sizeDiv > 1
// shrinks the distinct-plan counts (the smoke test's knob; runs use 1).
func buildCorpus(sub *substrate, workload string, seed int64, sizeDiv int) (*corpus, error) {
	c := &corpus{}
	pl := newPlanner(sub.db, sub.cat)
	// mixed returns n distinct plans, alternating the numeric Scale spec
	// (0–4 joins) and the string-predicate JOBFull spec (2–5 joins).
	mixed := func(n int) ([]*planNode, error) {
		numeric, err := distinctPlans(pl, (n+1)/2, func(round int64, k int) []*queryT {
			return scaleQueries(sub.db, subSeed(seed, 1+2*round), k)
		})
		if err != nil {
			return nil, err
		}
		strs, err := distinctPlans(pl, n/2, func(round int64, k int) []*queryT {
			return jobFullQueries(sub.db, subSeed(seed, 2+2*round), k)
		})
		if err != nil {
			return nil, err
		}
		return interleave(numeric, strs), nil
	}
	single := func(roots []*planNode) ([]request, error) {
		reqs := make([]request, len(roots))
		for i, root := range roots {
			wp := encodeWire(root)
			body, err := json.Marshal(estimateRequest{Plan: wp})
			if err != nil {
				return nil, err
			}
			reqs[i] = request{body: body, plans: []*wirePlan{wp}, firstPlan: i}
		}
		return reqs, nil
	}

	var err error
	switch workload {
	case singleCold:
		roots, e := mixed(max(coldPlans/sizeDiv, 2))
		if e != nil {
			return nil, e
		}
		c.requests, err = single(roots)
	case singleHot, replicaChurn:
		pool, e := mixed(max(hotPoolPlans/sizeDiv, crossCheckPlans))
		if e != nil {
			return nil, e
		}
		if c.requests, err = single(pool); err != nil {
			return nil, err
		}
		if workload == replicaChurn {
			c.crossCheck = c.requests[:max(crossCheckPlans/sizeDiv, 8)]
		}
		c.requests = hotSet(c.requests)
	case enumBatch64:
		c.requests, err = enumRequests(sub, pl, seed, max(enumQueries/sizeDiv, enumQueriesPer))
	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", workload, workloadNames)
	}
	if err != nil {
		return nil, err
	}
	c.order = rand.New(rand.NewSource(subSeed(seed, 0))).Perm(len(c.requests))
	for cl := range c.cursor {
		c.cursor[cl] = cl * len(c.order) / clients
	}
	return c, nil
}

// interleave alternates the two plan streams, a first.
func interleave(a, b []*planNode) []*planNode {
	out := make([]*planNode, 0, len(a)+len(b))
	for i := range a {
		out = append(out, a[i])
		if i < len(b) {
			out = append(out, b[i])
		}
	}
	return out
}

// hotSet picks the 64-plan hot working set out of a 1,024-plan pool of the
// same mix: from each half of the mix (numeric at even positions, string
// predicates at odd), the plans at 32 evenly spaced quantiles of request
// size. Sixty-four plans drawn at random would make a seed's hot set
// lighter or heavier than another's by more than any bound; taken at fixed
// quantiles, every seed's hot set has the cold mix's size distribution.
func hotSet(pool []request) []request {
	out := make([]request, 0, hotPlans)
	for half := 0; half < 2; half++ {
		var part []request
		for i := half; i < len(pool); i += 2 {
			part = append(part, pool[i])
		}
		sort.SliceStable(part, func(i, j int) bool { return len(part[i].body) < len(part[j].body) })
		const picks = hotPlans / 2
		for k := 0; k < picks; k++ {
			out = append(out, part[(2*k+1)*len(part)/(2*picks)])
		}
	}
	return out
}

// distinctPlans returns n plans with pairwise different signatures. gen
// yields about k queries of one stream for a round; further rounds make up
// for duplicates.
func distinctPlans(pl *queryPlanner, n int, gen func(round int64, k int) []*queryT) ([]*planNode, error) {
	seen := make(map[string]bool, n)
	out := make([]*planNode, 0, n)
	for round := int64(0); len(out) < n; round++ {
		want := n - len(out)
		planned, err := planAll(pl, gen(round, want+want/8+8))
		if err != nil {
			return nil, err
		}
		for _, root := range planned {
			if sig := root.Signature(); !seen[sig] && len(out) < n {
				seen[sig] = true
				out = append(out, root)
			}
		}
	}
	return out, nil
}

// planAll plans the queries on every core: the planner's join-order search,
// not query generation, dominates corpus time (≈2 ms per 5-join query).
func planAll(pl *queryPlanner, qs []*queryT) ([]*planNode, error) {
	roots := make([]*planNode, len(qs))
	errs := make([]error, len(qs))
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(qs); i += workers {
				roots[i], errs[i] = pl.Plan(qs[i])
			}
		}(w)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, fmt.Errorf("planning corpus queries: %w", err)
	}
	return roots, nil
}

// enumRequests builds the plan-enumeration traffic: each request prices 8
// queries × 8 join-operator variants, the candidates of one query sharing
// every scan — what an optimizer's enumeration loop sends.
func enumRequests(sub *substrate, pl *queryPlanner, seed int64, nQueries int) ([]request, error) {
	roots, err := distinctPlans(pl, nQueries, func(round int64, k int) []*queryT {
		var qs []*queryT
		for _, q := range scaleQueries(sub.db, subSeed(seed, 101+round), 2*k) {
			if len(q.Joins) >= 2 {
				qs = append(qs, q)
			}
		}
		return qs
	})
	if err != nil {
		return nil, err
	}
	reqs := make([]request, 0, nQueries/enumQueriesPer)
	for q := 0; q+enumQueriesPer <= len(roots); q += enumQueriesPer {
		var plans []*wirePlan
		for _, root := range roots[q : q+enumQueriesPer] {
			for v := 0; v < enumVariants; v++ {
				plans = append(plans, encodeWire(joinVariant(root, v)))
			}
		}
		body, err := json.Marshal(estimateRequest{Plans: plans})
		if err != nil {
			return nil, err
		}
		reqs = append(reqs, request{body: body, plans: plans, firstPlan: len(reqs) * enumQueriesPer * enumVariants})
	}
	return reqs, nil
}

// joinVariant clones the plan and rewrites its join operators from the
// base-3 digits of v, so variants 0..7 of a plan with two or more joins are
// pairwise distinct and share every scan.
func joinVariant(root *planNode, v int) *planNode {
	c := root.Clone()
	c.Walk(func(n *planNode) {
		if n.Type.IsJoin() {
			n.Type = joinOperators[v%len(joinOperators)]
			v /= len(joinOperators)
		}
	})
	return c
}
