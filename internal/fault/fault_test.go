package fault

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestDisabledIsNoOp: with no injector installed, Point is nil-error,
// Calls is zero, and the hot path performs zero heap allocations — the
// production cost of carrying the hooks.
func TestDisabledIsNoOp(t *testing.T) {
	Disable()
	if err := Point(Site{"anything"}); err != nil {
		t.Fatalf("disabled Point returned %v", err)
	}
	if Calls(Site{"anything"}) != 0 {
		t.Fatal("disabled Calls nonzero")
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		if Point(SiteServeBatch) != nil {
			t.Fatal("fired")
		}
	}); allocs != 0 {
		t.Fatalf("disabled Point allocates %.1f per call, want 0", allocs)
	}
}

// TestNthCallWindow: After/Count windows fire on exact call numbers — the
// deterministic triggering chaos tests are built on.
func TestNthCallWindow(t *testing.T) {
	Enable(New(1).Add(Rule{Site: Site{"s"}, Kind: Error, After: 1, Count: 2}))
	defer Disable()
	var got []bool
	for i := 0; i < 5; i++ {
		got = append(got, Point(Site{"s"}) != nil)
	}
	want := []bool{false, true, true, false, false}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("call %d fired=%v, want %v (pattern %v)", i+1, got[i], want[i], got)
		}
	}
	if Calls(Site{"s"}) != 5 {
		t.Fatalf("Calls = %d, want 5", Calls(Site{"s"}))
	}
}

// TestErrorIdentity: a rule's custom error is returned as-is so callers can
// match it with errors.Is.
func TestErrorIdentity(t *testing.T) {
	sentinel := errors.New("disk on fire")
	Enable(New(1).Add(Rule{Site: Site{"io"}, Kind: Error, Count: 1, Err: sentinel}))
	defer Disable()
	if err := Point(Site{"io"}); !errors.Is(err, sentinel) {
		t.Fatalf("Point returned %v, want sentinel", err)
	}
	if err := Point(Site{"io"}); err != nil {
		t.Fatalf("count-exhausted rule still fired: %v", err)
	}
}

// TestProbabilisticDeterminism: two injectors with the same seed inject the
// same fault sequence; a different seed diverges (reproducibility contract).
func TestProbabilisticDeterminism(t *testing.T) {
	pattern := func(seed int64) string {
		Enable(New(seed).Add(Rule{Site: Site{"p"}, Kind: Error, P: 0.5}))
		defer Disable()
		var b strings.Builder
		for i := 0; i < 64; i++ {
			if Point(Site{"p"}) != nil {
				b.WriteByte('x')
			} else {
				b.WriteByte('.')
			}
		}
		return b.String()
	}
	a, b := pattern(42), pattern(42)
	if a != b {
		t.Fatalf("same seed, different fault sequences:\n%s\n%s", a, b)
	}
	if c := pattern(43); c == a {
		t.Fatalf("different seeds produced identical sequences: %s", a)
	}
	if !strings.Contains(a, "x") || !strings.Contains(a, ".") {
		t.Fatalf("p=0.5 over 64 calls should mix hits and misses: %s", a)
	}
}

// TestPanicAndLatencyKinds: Panic panics with a descriptive message; Latency
// sleeps at least the configured delay and does not fail the call.
func TestPanicAndLatencyKinds(t *testing.T) {
	Enable(New(1).
		Add(Rule{Site: Site{"boom"}, Kind: Panic, Count: 1}).
		Add(Rule{Site: Site{"slow"}, Kind: Latency, Count: 1, Delay: 20 * time.Millisecond}))
	defer Disable()

	func() {
		defer func() {
			p := recover()
			if p == nil {
				t.Fatal("Panic rule did not panic")
			}
			if !strings.Contains(p.(string), "boom") {
				t.Fatalf("panic message %q does not name the site", p)
			}
		}()
		Point(Site{"boom"})
	}()

	start := time.Now()
	if err := Point(Site{"slow"}); err != nil {
		t.Fatalf("Latency rule failed the call: %v", err)
	}
	if d := time.Since(start); d < 20*time.Millisecond {
		t.Fatalf("Latency rule slept %v, want >= 20ms", d)
	}
}

// TestCrashUsesExitHook: Crash routes through Injector.Exit with the
// dedicated exit code (tests intercept; production leaves it nil = os.Exit).
func TestCrashUsesExitHook(t *testing.T) {
	var code int
	inj := New(1).Add(Rule{Site: Site{"kill"}, Kind: Crash, Count: 1})
	inj.Exit = func(c int) { code = c }
	Enable(inj)
	defer Disable()
	if err := Point(Site{"kill"}); err != nil {
		t.Fatalf("Crash returned error %v", err)
	}
	if code != crashExitCode {
		t.Fatalf("exit code %d, want %d", code, crashExitCode)
	}
}

// TestConcurrentPoints: concurrent hook-point traffic respects Count caps
// exactly (run under -race in CI).
func TestConcurrentPoints(t *testing.T) {
	Enable(New(1).Add(Rule{Site: Site{"c"}, Kind: Error, Count: 10}))
	defer Disable()
	var wg sync.WaitGroup
	var fired sync.Map
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			n := 0
			for i := 0; i < 100; i++ {
				if Point(Site{"c"}) != nil {
					n++
				}
			}
			fired.Store(g, n)
		}(g)
	}
	wg.Wait()
	total := 0
	fired.Range(func(_, v any) bool { total += v.(int); return true })
	if total != 10 {
		t.Fatalf("Count=10 rule fired %d times under concurrency", total)
	}
	if Calls(Site{"c"}) != 800 {
		t.Fatalf("Calls = %d, want 800", Calls(Site{"c"}))
	}
}

// TestParseSpec: the daemon's -faults flag format round-trips into working
// rules, and malformed specs are descriptive errors.
func TestParseSpec(t *testing.T) {
	inj, err := ParseSpec("checkpoint.write:error:after=1:count=2; serve.batch:latency:delay=5ms;checkpoint.rename:crash:count=1", 9)
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	inj.Exit = func(int) {}
	Enable(inj)
	defer Disable()
	if err := Point(SiteCheckpointWrite); err != nil {
		t.Fatalf("checkpoint.write call 1 fired early: %v", err)
	}
	if err := Point(SiteCheckpointWrite); err == nil {
		t.Fatal("checkpoint.write call 2 did not fire")
	}
	if err := Point(SiteServeBatch); err != nil {
		t.Fatalf("latency rule errored: %v", err)
	}

	for _, bad := range []string{
		"siteonly",
		"serve.batch:explode",
		"serve.batch:error:count",
		"serve.batch:error:count=x",
		"serve.batch:error:weird=1",
		"serve.batch:latency:delay=fast",
	} {
		if _, err := ParseSpec(bad, 1); err == nil {
			t.Fatalf("ParseSpec(%q) accepted a malformed spec", bad)
		}
	}
}

// TestParseSpecErrors pins every rejection branch of the spec grammar to a
// descriptive error naming the offending rule — the -faults flag is operator
// input, and "which rule, which option, why" is the difference between a
// typo fixed in seconds and one debugged from injector behavior.
func TestParseSpecErrors(t *testing.T) {
	cases := []struct {
		name, spec, want string
	}{
		{"missing kind", "siteonly", "want site:kind"},
		{"empty site", ":error:p=1", `unknown site ""`},
		{"blank site", "  :error", `unknown site ""`},
		{"unregistered site", "serve.bach:error:count=1", `unknown site "serve.bach"`},
		{"unknown kind", "serve.batch:explode", `unknown kind "explode"`},
		{"option without value", "serve.batch:error:count", "not key=value"},
		{"unknown option", "serve.batch:error:weird=1", `unknown option "weird"`},
		{"bad probability syntax", "serve.batch:error:p=often", `option "p=often"`},
		{"probability above one", "serve.batch:error:p=1.5", "outside [0, 1]"},
		{"negative probability", "serve.batch:error:p=-0.1", "outside [0, 1]"},
		{"NaN probability", "serve.batch:error:p=NaN", "outside [0, 1]"},
		{"bad after", "serve.batch:error:after=-1", `option "after=-1"`},
		{"bad count", "serve.batch:error:count=x", `option "count=x"`},
		{"bad delay syntax", "serve.batch:latency:delay=fast", `option "delay=fast"`},
		{"negative delay", "serve.batch:latency:delay=-5ms", "negative delay"},
		{"later rule fails", "daemon.retrain:error:p=0.5;serve.batch:latency:delay=oops", `option "delay=oops"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			inj, err := ParseSpec(tc.spec, 1)
			if err == nil {
				t.Fatalf("ParseSpec(%q) accepted a malformed spec: %+v", tc.spec, inj)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("ParseSpec(%q) error %q does not mention %q", tc.spec, err, tc.want)
			}
		})
	}

	// Boundary values that must parse: the probability endpoints, a zero
	// delay, empty rules from stray separators, and surrounding whitespace.
	for _, good := range []string{
		"",
		";;",
		" serve.batch:error:p=0 ; daemon.retrain:error:p=1 ",
		"serve.batch:latency:delay=0s",
		"serve.batch:error:after=0:count=0",
	} {
		if _, err := ParseSpec(good, 1); err != nil {
			t.Fatalf("ParseSpec(%q) rejected a valid spec: %v", good, err)
		}
	}
}

// BenchmarkPointDisabled measures the production cost of a hook point with
// no injector installed — the number PERFORMANCE.md quotes for "fault hooks
// are free when disabled".
func BenchmarkPointDisabled(b *testing.B) {
	Disable()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if Point(SiteServeBatch) != nil {
			b.Fatal("fired")
		}
	}
}

// BenchmarkPointEnabledMiss measures an installed injector whose rules never
// fire at the probed site — the cost when chaos testing is on but this site
// is quiet.
func BenchmarkPointEnabledMiss(b *testing.B) {
	Enable(New(1).Add(Rule{Site: Site{"other"}, Kind: Error}))
	defer Disable()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if Point(SiteServeBatch) != nil {
			b.Fatal("fired")
		}
	}
}
