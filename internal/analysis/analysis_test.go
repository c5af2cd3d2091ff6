package analysis

import (
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// The fixture harness mirrors x/tools' analysistest convention with the
// stdlib only: each package under testdata/src/<analyzer> is a real,
// compilable package (loadable by explicit path, invisible to ./...), and
// every line carrying a `// want` comment must produce exactly the
// diagnostics whose quoted regexps follow it — no more, no fewer.

// wantRE captures the quoted regexps of a `// want` comment; both backquoted
// and double-quoted forms are accepted.
var wantRE = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

// fixtureExpectations scans every .go file in dir for `// want` comments.
func fixtureExpectations(t *testing.T, dir string) []*expectation {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading fixture dir: %v", err)
	}
	var wants []*expectation
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatalf("reading fixture: %v", err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			idx := strings.Index(line, "// want ")
			if idx < 0 {
				continue
			}
			quoted := wantRE.FindAllString(line[idx+len("// want "):], -1)
			if len(quoted) == 0 {
				t.Fatalf("%s:%d: want comment with no quoted regexp", e.Name(), i+1)
			}
			for _, q := range quoted {
				pat, err := strconv.Unquote(q)
				if err != nil {
					t.Fatalf("%s:%d: unquoting %s: %v", e.Name(), i+1, q, err)
				}
				re, err := regexp.Compile(pat)
				if err != nil {
					t.Fatalf("%s:%d: compiling %q: %v", e.Name(), i+1, pat, err)
				}
				wants = append(wants, &expectation{file: e.Name(), line: i + 1, re: re})
			}
		}
	}
	if len(wants) == 0 {
		t.Fatalf("fixture %s declares no expectations", dir)
	}
	return wants
}

// runFixture loads one fixture package, runs a single analyzer over it, and
// checks the produced diagnostics against the `// want` expectations.
func runFixture(t *testing.T, a *Analyzer, name string) {
	t.Helper()
	dir := filepath.Join("testdata", "src", name)
	prog, err := Load("./" + dir)
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	diags := RunAnalyzers(prog, []*Analyzer{a})
	wants := fixtureExpectations(t, dir)
	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == filepath.Base(d.Position.Filename) &&
				w.line == d.Position.Line && w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d.String())
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.re)
		}
	}
}

func TestNoAllocFixture(t *testing.T)       { runFixture(t, NoAlloc, "noalloc") }
func TestCanonicalDotFixture(t *testing.T)  { runFixture(t, CanonicalDot, "canonicaldot") }
func TestAtomicHygieneFixture(t *testing.T) { runFixture(t, AtomicHygiene, "atomichygiene") }

// TestCostlintTreeClean is the self-application gate: the shipped tree must
// hold every invariant the analyzers prove, with zero findings and zero
// suppressions.
func TestCostlintTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	prog, err := Load("costest/...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	for _, d := range RunAnalyzers(prog, Analyzers()) {
		t.Errorf("%s", d.String())
	}
}
