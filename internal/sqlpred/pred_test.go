package sqlpred

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func atomNum(table, col string, op Op, v float64) *Atom {
	return &Atom{Table: table, Column: col, Op: op, NumVal: v}
}

func atomStr(table, col string, op Op, v string) *Atom {
	return &Atom{Table: table, Column: col, Op: op, StrVal: v, IsStr: true}
}

func TestLikeMatch(t *testing.T) {
	cases := []struct {
		pattern, s string
		want       bool
	}{
		{"Din%", "Dinos in Kas", true},
		{"Din%", "Schla in Tra", false},
		{"%06%", "(2002-06-29)", true},
		{"%06%", "(2014-08-26)", false},
		{"%(co-production)%", "x (co-production) y", true},
		{"%(co-production)%", "(coproduction)", false},
		{"%rank", "top 250 rank", true},
		{"%rank", "rank top", false},
		{"abc", "abc", true},
		{"abc", "abcd", false},
		{"%", "", true},
		{"%", "anything", true},
		{"a%b%c", "aXbYc", true},
		{"a%b%c", "acb", false},
		{"%a%a%", "aa", true},
		{"%a%a%", "a", false},
		// Empty parts: doubled and bare wildcards.
		{"%%", "", true},
		{"%%", "x", true},
		{"a%%b", "ab", true},
		{"a%%b", "axb", true},
		{"a%%b", "a", false},
		{"%%a%%", "bab", true},
		{"", "", true},
		{"", "x", false},
		// Prefix and suffix may not share characters of s.
		{"ab%b", "ab", false},
		{"ab%b", "abb", true},
		{"a%a", "a", false},
		{"a%a", "aa", true},
		{"ab%bc", "abc", false},
		// Middle parts match leftmost-first, after the prefix, before the suffix.
		{"a%b%b", "abb", true},
		{"a%b%b", "ab", false},
		{"%ab%ab%", "abab", true},
		{"%ab%ab%", "aba", false},
		{"x%x%x", "xx", false},
		{"x%x%x", "xxx", true},
	}
	for _, c := range cases {
		if got := LikeMatch(c.pattern, c.s); got != c.want {
			t.Errorf("LikeMatch(%q, %q) = %v, want %v", c.pattern, c.s, got, c.want)
		}
		if got := likeMatchSplit(c.pattern, c.s); got != c.want {
			t.Errorf("reference likeMatchSplit(%q, %q) = %v, want %v", c.pattern, c.s, got, c.want)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		for _, c := range cases {
			LikeMatch(c.pattern, c.s)
		}
	})
	if allocs != 0 {
		t.Errorf("LikeMatch allocates: %v allocs over the table, want 0", allocs)
	}
}

// likeMatchSplit is the strings.Split formulation LikeMatch replaced, kept as
// the oracle for TestLikeMatchAgainstSplit.
func likeMatchSplit(pattern, s string) bool {
	parts := strings.Split(pattern, "%")
	if len(parts) == 1 {
		return s == pattern
	}
	if !strings.HasPrefix(s, parts[0]) {
		return false
	}
	s = s[len(parts[0]):]
	last := parts[len(parts)-1]
	if !strings.HasSuffix(s, last) {
		return false
	}
	s = s[:len(s)-len(last)]
	for _, mid := range parts[1 : len(parts)-1] {
		i := strings.Index(s, mid)
		if i < 0 {
			return false
		}
		s = s[i+len(mid):]
	}
	return true
}

// TestLikeMatchAgainstSplit: on random patterns and subjects over a tiny
// alphabet (so wildcards, repeats and overlaps are dense) the in-place scan
// agrees with the Split formulation.
func TestLikeMatchAgainstSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	gen := func(alphabet string, maxLen int) string {
		b := make([]byte, rng.Intn(maxLen+1))
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return string(b)
	}
	for i := 0; i < 20000; i++ {
		pattern, s := gen("ab%%", 6), gen("ab", 6)
		if got, want := LikeMatch(pattern, s), likeMatchSplit(pattern, s); got != want {
			t.Fatalf("LikeMatch(%q, %q) = %v, Split formulation says %v", pattern, s, got, want)
		}
	}
}

// TestStringMatchesFmt pins String's rendering of atoms, including how every
// float64 prints, and of connectives.
func TestStringMatchesFmt(t *testing.T) {
	check := func(a *Atom) {
		t.Helper()
		var want string
		switch {
		case a.Op == OpIn:
			want = fmt.Sprintf("%s.%s IN (%s)", a.Table, a.Column, strings.Join(a.InVals, ", "))
		case a.IsStr:
			want = fmt.Sprintf("%s.%s %s '%s'", a.Table, a.Column, a.Op, a.StrVal)
		default:
			want = fmt.Sprintf("%s.%s %s %g", a.Table, a.Column, a.Op, a.NumVal)
		}
		if got := a.String(); got != want {
			t.Fatalf("Atom.String() = %q, fmt renders %q", got, want)
		}
	}
	for _, v := range []float64{0, math.Copysign(0, -1), 1, -1, 0.1, 1e20, 1e21, 1e-4, 1e-5, 123456789, 2005,
		math.MaxFloat64, math.SmallestNonzeroFloat64, math.Inf(1), math.Inf(-1), math.NaN()} {
		check(atomNum("t", "c", OpGe, v))
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 5000; i++ {
		check(atomNum("t", "c", Op(rng.Intn(int(NumOps))), math.Float64frombits(rng.Uint64())))
		check(atomNum("t", "c", OpLt, float64(rng.Intn(1<<30))/float64(1+rng.Intn(1000))))
	}
	check(atomStr("t", "c", OpLike, "%it's%"))
	check(atomStr("t", "c", OpNotLike, ""))
	check(&Atom{Table: "t", Column: "c", Op: OpIn, IsStr: true})
	check(&Atom{Table: "t", Column: "c", Op: OpIn, InVals: []string{"a"}, IsStr: true})
	check(&Atom{Table: "t", Column: "c", Op: OpIn, InVals: []string{"a", "", "b, c"}, IsStr: true})
	check(&Atom{Table: "t", Column: "c", Op: Op(42), NumVal: 1})

	a, b := atomNum("t", "x", OpGt, 1.5), atomStr("t", "y", OpEq, "v")
	tree := &Bool{Kind: Or, Left: &Bool{Kind: And, Left: a, Right: b}, Right: a}
	if got, want := tree.String(), fmt.Sprintf("((%s AND %s) OR %s)", a, b, a); got != want {
		t.Fatalf("Bool.String() = %q, want %q", got, want)
	}
}

// Property: prefix pattern p% matches exactly strings with that prefix.
func TestLikePrefixProperty(t *testing.T) {
	f := func(prefix, rest string) bool {
		prefix = strings.ReplaceAll(prefix, "%", "")
		rest = strings.ReplaceAll(rest, "%", "")
		return LikeMatch(prefix+"%", prefix+rest) &&
			(LikeMatch(prefix+"%", rest) == strings.HasPrefix(rest, prefix))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEvalAtomInt(t *testing.T) {
	cases := []struct {
		op   Op
		v    int64
		want bool
	}{
		{OpEq, 5, true}, {OpEq, 6, false},
		{OpNe, 5, false}, {OpNe, 4, true},
		{OpLt, 4, true}, {OpLt, 5, false},
		{OpGt, 6, true}, {OpGt, 5, false},
		{OpLe, 5, true}, {OpGe, 5, true},
	}
	for _, c := range cases {
		a := atomNum("t", "c", c.op, 5)
		if got := EvalAtomInt(a, c.v); got != c.want {
			t.Errorf("EvalAtomInt(%s, %d) = %v, want %v", c.op, c.v, got, c.want)
		}
	}
}

func TestEvalAtomStr(t *testing.T) {
	if !EvalAtomStr(atomStr("t", "c", OpEq, "x"), "x") {
		t.Error("= failed")
	}
	if EvalAtomStr(atomStr("t", "c", OpNe, "x"), "x") {
		t.Error("!= failed")
	}
	if !EvalAtomStr(atomStr("t", "c", OpLike, "%ab%"), "zabz") {
		t.Error("LIKE failed")
	}
	if !EvalAtomStr(atomStr("t", "c", OpNotLike, "%ab%"), "zz") {
		t.Error("NOT LIKE failed")
	}
	in := &Atom{Table: "t", Column: "c", Op: OpIn, InVals: []string{"a", "b"}, IsStr: true}
	if !EvalAtomStr(in, "b") || EvalAtomStr(in, "c") {
		t.Error("IN failed")
	}
}

type fakeAccessor struct {
	ints map[string][]int64
	strs map[string][]string
}

func (f fakeAccessor) IntColumn(name string) []int64  { return f.ints[name] }
func (f fakeAccessor) StrColumn(name string) []string { return f.strs[name] }

func TestCompile(t *testing.T) {
	acc := fakeAccessor{
		ints: map[string][]int64{"year": {1990, 2000, 2010, 2020}},
		strs: map[string][]string{"note": {"(presents)", "(co-production)", "", "(presents)"}},
	}
	p := AndAll(
		atomNum("t", "year", OpGt, 1995),
		atomStr("t", "note", OpLike, "%presents%"),
	)
	fn, err := Compile(p, "t", acc)
	if err != nil {
		t.Fatal(err)
	}
	want := []bool{false, false, false, true}
	for i, w := range want {
		if fn(i) != w {
			t.Errorf("row %d = %v, want %v", i, fn(i), w)
		}
	}
}

func TestCompileOr(t *testing.T) {
	acc := fakeAccessor{ints: map[string][]int64{"x": {1, 2, 3}}}
	p := OrAll(atomNum("t", "x", OpEq, 1), atomNum("t", "x", OpEq, 3))
	fn, err := Compile(p, "t", acc)
	if err != nil {
		t.Fatal(err)
	}
	if !fn(0) || fn(1) || !fn(2) {
		t.Error("OR compile wrong")
	}
}

func TestCompileNilPredicate(t *testing.T) {
	fn, err := Compile(nil, "t", fakeAccessor{})
	if err != nil {
		t.Fatal(err)
	}
	if !fn(0) {
		t.Error("nil predicate must accept everything")
	}
}

func TestCompileErrors(t *testing.T) {
	acc := fakeAccessor{}
	if _, err := Compile(atomNum("other", "x", OpEq, 1), "t", acc); err == nil {
		t.Error("cross-table atom must fail")
	}
	if _, err := Compile(atomNum("t", "missing", OpEq, 1), "t", acc); err == nil {
		t.Error("missing column must fail")
	}
}

func TestTablesAndCounts(t *testing.T) {
	p := AndAll(
		atomNum("a", "x", OpGt, 1),
		OrAll(atomNum("b", "y", OpLt, 2), atomNum("a", "z", OpEq, 3)),
	)
	tabs := Tables(p)
	if len(tabs) != 2 || tabs[0] != "a" || tabs[1] != "b" {
		t.Fatalf("Tables = %v", tabs)
	}
	if CountAtoms(p) != 3 {
		t.Fatalf("CountAtoms = %d", CountAtoms(p))
	}
	if Depth(p) != 3 {
		t.Fatalf("Depth = %d", Depth(p))
	}
}

// randPred builds a random predicate tree of the given depth budget.
func randPred(rng *rand.Rand, depth int) Pred {
	if depth <= 0 || rng.Intn(3) == 0 {
		if rng.Intn(2) == 0 {
			return atomNum("t", "c", Op(rng.Intn(6)), float64(rng.Intn(100)))
		}
		return atomStr("t", "s", OpLike, "%v%")
	}
	kind := And
	if rng.Intn(2) == 0 {
		kind = Or
	}
	return &Bool{Kind: kind, Left: randPred(rng, depth-1), Right: randPred(rng, depth-1)}
}

func predEqual(a, b Pred) bool {
	switch x := a.(type) {
	case *Atom:
		y, ok := b.(*Atom)
		return ok && x.String() == y.String()
	case *Bool:
		y, ok := b.(*Bool)
		return ok && x.Kind == y.Kind && predEqual(x.Left, y.Left) && predEqual(x.Right, y.Right)
	case nil:
		return b == nil
	}
	return false
}

// Property: DFS linearization round-trips (the paper's one-to-one mapping).
func TestDFSRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randPred(rng, 1+rng.Intn(4))
		seq := Linearize(p)
		back, ok := Delinearize(seq)
		return ok && predEqual(p, back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: distinct trees produce distinct sequences (injective mapping).
func TestDFSInjectiveOnStructure(t *testing.T) {
	a := atomNum("t", "c", OpEq, 1)
	b := atomNum("t", "c", OpEq, 2)
	c := atomNum("t", "c", OpEq, 3)
	// (a AND b) AND c vs a AND (b AND c) — same atom multiset, different shape.
	p1 := &Bool{Kind: And, Left: &Bool{Kind: And, Left: a, Right: b}, Right: c}
	p2 := &Bool{Kind: And, Left: a, Right: &Bool{Kind: And, Left: b, Right: c}}
	s1, s2 := Linearize(p1), Linearize(p2)
	same := len(s1) == len(s2)
	if same {
		for i := range s1 {
			if s1[i].Kind != s2[i].Kind || (s1[i].Kind == DFSAtom && s1[i].Atom != s2[i].Atom) {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different tree shapes produced identical DFS sequences")
	}
}

func TestLinearizeMatchesFigure4Shape(t *testing.T) {
	// Figure 4: AND(OR(AND(p1,p2), AND(p3,p4)), p5) linearizes to
	// AND OR AND p1 _ p2 _ _ AND p3 _ p4 _ _ _ p5 _ (with _ = padding).
	p1 := atomNum("t", "season_nr", OpGt, 4)
	p2 := atomNum("t", "season_nr", OpLt, 12)
	p3 := atomNum("t", "season_nr", OpLt, 4)
	p4 := atomNum("t", "episode_nr", OpGt, 37)
	p5 := atomNum("t", "production_year", OpGt, 1922)
	tree := &Bool{Kind: And,
		Left: &Bool{Kind: Or,
			Left:  &Bool{Kind: And, Left: p1, Right: p2},
			Right: &Bool{Kind: And, Left: p3, Right: p4},
		},
		Right: p5,
	}
	seq := Linearize(tree)
	kinds := make([]DFSKind, len(seq))
	for i, n := range seq {
		kinds[i] = n.Kind
	}
	want := []DFSKind{
		DFSBool, DFSBool, DFSBool, DFSAtom, DFSPad, DFSAtom, DFSPad, DFSPad,
		DFSBool, DFSAtom, DFSPad, DFSAtom, DFSPad, DFSPad, DFSPad, DFSAtom, DFSPad,
	}
	if len(kinds) != len(want) {
		t.Fatalf("sequence length %d, want %d: %v", len(kinds), len(want), kinds)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("position %d kind %v, want %v", i, kinds[i], want[i])
		}
	}
}

func TestAndAllOrAll(t *testing.T) {
	if AndAll() != nil {
		t.Error("empty AndAll should be nil")
	}
	a := atomNum("t", "c", OpEq, 1)
	if AndAll(a) != Pred(a) {
		t.Error("single AndAll should return the atom")
	}
	p := OrAll(a, a, a)
	if CountAtoms(p) != 3 || Depth(p) != 3 {
		t.Errorf("OrAll tree wrong: %v", p)
	}
}
