// Package fault is a deterministic, seedable fault injector for robustness
// testing. Production code consults named hook points (Point) at the places
// where real systems break — I/O, model dispatch, retrain cycles — and an
// installed Injector decides per call whether to inject an error, a latency
// spike, a panic, or a process crash. With no injector installed (the
// production default) a hook point is a single atomic pointer load: zero
// allocations, sub-nanosecond, nothing on the hot path to pay for.
//
// Triggering is deterministic and seedable so every chaos test is
// reproducible: nth-call windows (After/Count) fire on exact call numbers,
// and probabilistic rules (P) draw from a per-rule rand.Rand seeded at
// construction — the same seed and call sequence always injects the same
// faults.
//
//	inj := fault.New(7).
//		Add(fault.Rule{Site: fault.SiteServeBatch, Kind: fault.Error, After: 5, Count: 4}).
//		Add(fault.Rule{Site: fault.SiteDaemonRetrain, Kind: fault.Panic, Count: 2})
//	fault.Enable(inj)
//	defer fault.Disable()
package fault

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Kind selects what an injected fault does at its hook point.
type Kind uint8

const (
	// Error makes Point return the rule's error — an injected I/O or
	// estimator failure the caller must handle.
	Error Kind = iota
	// Panic makes Point panic — an injected crash the caller's recovery
	// (supervisor, scheduler run) must contain.
	Panic
	// Latency makes Point sleep for the rule's Delay, then continue — an
	// injected spike; other rules at the site still apply.
	Latency
	// Crash terminates the process immediately (exit status 3) — the
	// kill-mid-operation case no in-process recovery can mask. Tests can
	// intercept it via Injector.Exit.
	Crash
)

// String returns the spec-format name of the kind.
func (k Kind) String() string {
	switch k {
	case Error:
		return "error"
	case Panic:
		return "panic"
	case Latency:
		return "latency"
	case Crash:
		return "crash"
	}
	return fmt.Sprintf("kind(%d)", k)
}

// crashExitCode is the process exit status of a Crash fault — distinct from
// clean exits (0) and log.Fatal (1) so harnesses can tell an injected kill
// from an organic failure.
const crashExitCode = 3

// Rule is one injected fault at one hook point. Triggering, evaluated
// against the site's 1-based call counter:
//
//   - the first After calls never fire (After = n-1, Count = 1 is "exactly
//     the nth call");
//   - at most Count calls fire (0 = unlimited);
//   - P > 0 additionally gates each firing on a seeded coin flip.
type Rule struct {
	// Site is the hook point this rule applies to (e.g. SiteServeBatch).
	Site Site
	// Kind selects the injected behavior.
	Kind Kind
	// P is the per-call firing probability; 0 fires deterministically.
	P float64
	// After skips the site's first After calls.
	After uint64
	// Count caps how many calls fire; 0 is unlimited.
	Count uint64
	// Err overrides the injected error for Error rules.
	Err error
	// Delay is the injected sleep for Latency rules.
	Delay time.Duration
}

// rule is a compiled Rule with its firing state.
type rule struct {
	Rule
	err   error
	mu    sync.Mutex // guards rng and fired
	rng   *rand.Rand
	fired uint64
}

// triggers reports whether this rule fires on the site's nth call.
func (r *rule) triggers(n uint64) bool {
	if n <= r.After {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.Count > 0 && r.fired >= r.Count {
		return false
	}
	if r.P > 0 && r.rng.Float64() >= r.P {
		return false
	}
	r.fired++
	return true
}

// site is one hook point's compiled state: a call counter and its rules in
// registration order.
type site struct {
	calls atomic.Uint64
	rules []*rule
}

// Injector is a compiled set of fault rules. Build with New + Add, install
// with Enable. Safe for concurrent hook points once installed; Add is not
// safe after Enable.
type Injector struct {
	seed  int64
	n     int
	sites map[Site]*site
	// Exit intercepts Crash faults (nil uses os.Exit) — a test hook; the
	// production daemon leaves it nil so a Crash is a real kill.
	Exit func(code int)
}

// New returns an empty injector whose probabilistic rules derive from seed.
func New(seed int64) *Injector {
	return &Injector{seed: seed, sites: make(map[Site]*site)}
}

// Add compiles one rule into the injector and returns it for chaining.
func (in *Injector) Add(r Rule) *Injector {
	st := in.sites[r.Site]
	if st == nil {
		st = &site{}
		in.sites[r.Site] = st
	}
	in.n++
	cr := &rule{Rule: r, err: r.Err, rng: rand.New(rand.NewSource(in.seed + int64(in.n)*7919))}
	if cr.err == nil {
		cr.err = errors.New("fault: injected error at " + r.Site.name)
	}
	st.rules = append(st.rules, cr)
	return in
}

// point evaluates the site's rules against its next call number.
func (in *Injector) point(s Site) error {
	st := in.sites[s]
	if st == nil {
		return nil
	}
	n := st.calls.Add(1)
	for _, r := range st.rules {
		if !r.triggers(n) {
			continue
		}
		switch r.Kind {
		case Latency:
			time.Sleep(r.Delay)
			// A spike delays the call but does not fail it; later rules at
			// the site still apply.
		case Error:
			return r.err
		case Panic:
			panic(fmt.Sprintf("fault: injected panic at %s (call %d)", s.name, n))
		case Crash:
			exit := in.Exit
			if exit == nil {
				exit = os.Exit
			}
			fmt.Fprintf(os.Stderr, "fault: injected crash at %s (call %d)\n", s.name, n)
			exit(crashExitCode)
		}
	}
	return nil
}

// active is the process-wide installed injector; nil means every hook point
// is a no-op costing one atomic load.
var active atomic.Pointer[Injector]

// Enable installs inj as the process-wide injector consulted by Point.
func Enable(inj *Injector) { active.Store(inj) }

// Disable removes the installed injector; hook points return to no-ops.
func Disable() { active.Store(nil) }

// Point is the hook production code places at a failure-prone operation:
// it returns an injected error, sleeps, panics, or crashes when an installed
// rule fires, and is a single atomic load returning nil when no injector is
// installed (the production default).
//
// costlint:noalloc
func Point(s Site) error {
	inj := active.Load()
	if inj == nil {
		return nil
	}
	return inj.point(s)
}

// Calls reports how many times site s has been consulted on the
// installed injector (0 when disabled or the site has no rules) — test
// observability for "did the code path actually run".
func Calls(s Site) uint64 {
	inj := active.Load()
	if inj == nil {
		return 0
	}
	st := inj.sites[s]
	if st == nil {
		return 0
	}
	return st.calls.Load()
}

// ParseSpec compiles a command-line fault specification, rules separated by
// ';', each rule "site:kind[:key=value...]":
//
//	checkpoint.rename:crash:count=1
//	serve.batch:error:after=5:count=4
//	daemon.retrain:panic:p=0.1;serve.batch:latency:delay=50ms
//
// Kinds: error, panic, latency, crash. Keys: p (probability), after, count,
// delay (Go duration). A site must be registered in sites.go. Probabilistic
// rules draw from seed.
func ParseSpec(spec string, seed int64) (*Injector, error) {
	inj := New(seed)
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		fields := strings.Split(part, ":")
		if len(fields) < 2 {
			return nil, fmt.Errorf("fault: rule %q: want site:kind[:key=value...]", part)
		}
		site, ok := registry[fields[0]]
		if !ok {
			return nil, fmt.Errorf("fault: rule %q: unknown site %q", part, fields[0])
		}
		r := Rule{Site: site}
		switch fields[1] {
		case "error":
			r.Kind = Error
		case "panic":
			r.Kind = Panic
		case "latency":
			r.Kind = Latency
		case "crash":
			r.Kind = Crash
		default:
			return nil, fmt.Errorf("fault: rule %q: unknown kind %q", part, fields[1])
		}
		for _, kv := range fields[2:] {
			key, val, ok := strings.Cut(kv, "=")
			if !ok {
				return nil, fmt.Errorf("fault: rule %q: option %q is not key=value", part, kv)
			}
			var err error
			switch key {
			case "p":
				r.P, err = strconv.ParseFloat(val, 64)
				if err == nil && (math.IsNaN(r.P) || r.P < 0 || r.P > 1) {
					err = fmt.Errorf("probability %v outside [0, 1]", val)
				}
			case "after":
				r.After, err = strconv.ParseUint(val, 10, 64)
			case "count":
				r.Count, err = strconv.ParseUint(val, 10, 64)
			case "delay":
				r.Delay, err = time.ParseDuration(val)
				if err == nil && r.Delay < 0 {
					err = fmt.Errorf("negative delay %v", val)
				}
			default:
				return nil, fmt.Errorf("fault: rule %q: unknown option %q", part, key)
			}
			if err != nil {
				return nil, fmt.Errorf("fault: rule %q: option %q: %v", part, kv, err)
			}
		}
		inj.Add(r)
	}
	return inj, nil
}
