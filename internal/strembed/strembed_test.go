package strembed

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"costest/internal/dataset"
)

func TestSegment(t *testing.T) {
	toks := segment("Dinos in Kas")
	want := []Class{ClassUpper, ClassLower, ClassSpace, ClassLower, ClassSpace, ClassUpper, ClassLower}
	if len(toks) != len(want) {
		t.Fatalf("segment = %v", toks)
	}
	for i, w := range want {
		if toks[i].Class != w {
			t.Fatalf("segment[%d] = %v, want class %d", i, toks[i], w)
		}
	}
	toks = segment("(2002-06-29)")
	// "(" lit, 2002 digit, "-" lit, 06 digit, "-" lit, 29 digit, ")" lit
	if len(toks) != 7 || toks[0].Lit != "(" || toks[1].Class != ClassDigit || toks[6].Lit != ")" {
		t.Fatalf("segment parens = %v", toks)
	}
}

func TestRuleExtractPrefix(t *testing.T) {
	// ⟨Prefix, PC Pl, 3⟩ applied to "Dinos in Kas" extracts Din and Kas.
	r := Rule{Fn: Prefix, Pattern: []PatToken{{Class: ClassUpper}, {Class: ClassLower}}, Length: 3}
	got := r.Extract("Dinos in Kas")
	if len(got) != 2 || got[0] != "Din" || got[1] != "Kas" {
		t.Fatalf("Extract = %v, want [Din Kas]", got)
	}
}

func TestRuleExtractTable5(t *testing.T) {
	// ⟨Suffix, Pt("(")Pn Pt("-")Pn, 2⟩ over "(2002-06-29)" extracts "06".
	r := Rule{Fn: Suffix, Length: 2, Pattern: []PatToken{
		{Class: ClassLit, Lit: "("}, {Class: ClassDigit}, {Class: ClassLit, Lit: "-"}, {Class: ClassDigit},
	}}
	got := r.Extract("(2002-06-29)")
	if len(got) != 1 || got[0] != "06" {
		t.Fatalf("Extract = %v, want [06]", got)
	}
	// The general rule also extracts "08" from the other date family.
	got = r.Extract("(2014-08-26)")
	if len(got) != 1 || got[0] != "08" {
		t.Fatalf("Extract = %v, want [08]", got)
	}
}

func TestRuleExtractAnchoredLiteral(t *testing.T) {
	// ⟨Prefix, Pt("Din")Pl, 3⟩ matches Dinos but not Dinners? "Dinners":
	// Pt("Din") then Pl matches "ners" — it does match; anchored literal
	// rules generalize by the class tail.
	r := Rule{Fn: Prefix, Length: 3, Pattern: []PatToken{
		{Class: ClassLit, Lit: "Din"}, {Class: ClassLower},
	}}
	if got := r.Extract("Dinos in Kas"); len(got) != 1 || got[0] != "Din" {
		t.Fatalf("Extract = %v", got)
	}
	if got := r.Extract("Schla in Tra"); len(got) != 0 {
		t.Fatalf("Extract on non-matching value = %v", got)
	}
}

func TestCandidateRulesCoverPaperExamples(t *testing.T) {
	w := WorkloadString{Table: "t", Column: "title", S: "Din", Kind: MatchPrefix}
	rules := CandidateRules(w, "Dinos in Kas")
	if len(rules) == 0 {
		t.Fatal("no candidates generated")
	}
	// Every candidate must re-extract "Din" from the source value.
	for _, r := range rules {
		found := false
		for _, s := range r.Extract("Dinos in Kas") {
			if s == "Din" {
				found = true
			}
		}
		if !found {
			t.Fatalf("rule %s does not re-extract Din", r)
		}
	}
	// The anchored Pt("Din")Pl rule from Table 4 must be among them.
	foundAnchored := false
	for _, r := range rules {
		if r.Key() == (Rule{Fn: Prefix, Length: 3, Table: "t", Column: "title",
			Pattern: []PatToken{{Class: ClassLit, Lit: "Din"}, {Class: ClassLower}}}).Key() {
			foundAnchored = true
		}
	}
	if !foundAnchored {
		t.Error("anchored Pt(Din)Pl candidate missing")
	}
}

func TestCandidateRulesContains(t *testing.T) {
	w := WorkloadString{Table: "t", Column: "title", S: "06", Kind: MatchContains}
	rules := CandidateRules(w, "(2002-06-29)")
	var prefixes, suffixes int
	for _, r := range rules {
		if r.Fn == Prefix {
			prefixes++
		} else {
			suffixes++
		}
		found := false
		for _, s := range r.Extract("(2002-06-29)") {
			if s == "06" {
				found = true
			}
		}
		if !found {
			t.Fatalf("rule %s does not re-extract 06", r)
		}
	}
	if prefixes == 0 || suffixes == 0 {
		t.Fatalf("contains search must generate both prefix (%d) and suffix (%d) rules", prefixes, suffixes)
	}
}

// Property: every candidate rule re-extracts its workload string from the
// pair value it was generated from.
func TestCandidateRulesSoundProperty(t *testing.T) {
	values := []string{"Dinos in Kas", "(2002-06-29)", "top 250 rank", "(co-production)", "Warner Bros. Pictures"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		v := values[rng.Intn(len(values))]
		if len(v) < 4 {
			return true
		}
		start := rng.Intn(len(v) - 3)
		ln := 2 + rng.Intn(3)
		if start+ln > len(v) {
			ln = len(v) - start
		}
		q := v[start : start+ln]
		kinds := []MatchKind{MatchPrefix, MatchSuffix, MatchContains}
		w := WorkloadString{Table: "t", Column: "c", S: q, Kind: kinds[rng.Intn(3)]}
		if (w.Kind == MatchPrefix && !strings.HasPrefix(v, q)) ||
			(w.Kind == MatchSuffix && !strings.HasSuffix(v, q)) {
			return true // kind does not apply to this pair
		}
		for _, r := range CandidateRules(w, v) {
			ok := false
			for _, s := range r.Extract(v) {
				if s == q {
					ok = true
				}
			}
			if !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSelectRulesCoversWorkload(t *testing.T) {
	values := map[string][]string{
		"t.title": {"Dinos in Kas", "Dinas Tra", "Schla in Tra", "(2002-06-29)", "(2014-08-26)"},
	}
	ws := []WorkloadString{
		{Table: "t", Column: "title", S: "Din", Kind: MatchPrefix},
		{Table: "t", Column: "title", S: "Sch", Kind: MatchPrefix},
		{Table: "t", Column: "title", S: "06", Kind: MatchContains},
		{Table: "t", Column: "title", S: "08", Kind: MatchContains},
	}
	var cands []Rule
	for _, w := range ws {
		for _, v := range values["t.title"] {
			cands = append(cands, CandidateRules(w, v)...)
		}
	}
	cands = dedupRules(cands)
	res := SelectRules(cands, ws, values, 1000)
	if res.Covered != len(ws) {
		t.Fatalf("covered %d/%d workload strings", res.Covered, len(ws))
	}
	for _, w := range ws {
		if !res.Dict[w.S] {
			t.Errorf("dictionary missing %q", w.S)
		}
	}
	// A general rule should cover both Din and Sch (e.g. ⟨Prefix, PC Pl, 3⟩),
	// so selection needs fewer rules than workload strings.
	if len(res.Rules) >= len(ws) {
		t.Logf("selection used %d rules for %d strings (generalization weak but acceptable)",
			len(res.Rules), len(ws))
	}
}

func TestSelectRulesBudget(t *testing.T) {
	values := map[string][]string{"t.c": make([]string, 0, 50)}
	for i := 0; i < 50; i++ {
		values["t.c"] = append(values["t.c"], "Abc"+strings.Repeat("x", i%7)+" Xyz")
	}
	ws := []WorkloadString{{Table: "t", Column: "c", S: "Abc", Kind: MatchPrefix}}
	var cands []Rule
	for _, v := range values["t.c"] {
		cands = append(cands, CandidateRules(ws[0], v)...)
	}
	res := SelectRules(dedupRules(cands), ws, values, 3)
	if len(res.Dict) > 3 && len(res.Rules) > 1 {
		t.Fatalf("budget violated: dict=%d rules=%d", len(res.Dict), len(res.Rules))
	}
}

func TestTrieLongestPrefix(t *testing.T) {
	tr := NewTrie()
	tr.Insert("Din", 0)
	tr.Insert("Dino", 1)
	tr.Insert("D", 2)
	id, l := tr.LongestPrefix("Dinosaur")
	if id != 1 || l != 4 {
		t.Fatalf("LongestPrefix = (%d, %d), want (1, 4)", id, l)
	}
	id, l = tr.LongestPrefix("Da")
	if id != 2 || l != 1 {
		t.Fatalf("LongestPrefix = (%d, %d), want (2, 1)", id, l)
	}
	id, _ = tr.LongestPrefix("xyz")
	if id != -1 {
		t.Fatalf("LongestPrefix miss = %d, want -1", id)
	}
	if tr.Lookup("Din") != 0 || tr.Lookup("Dinos") != -1 {
		t.Fatal("Lookup wrong")
	}
	if tr.Len() != 3 {
		t.Fatalf("Len = %d", tr.Len())
	}
}

// Property: LongestPrefix of an inserted string returns that string's id.
func TestTrieRoundTripProperty(t *testing.T) {
	f := func(keys []string) bool {
		tr := NewTrie()
		clean := make([]string, 0, len(keys))
		for _, k := range keys {
			if k != "" {
				clean = append(clean, k)
			}
		}
		for i, k := range clean {
			tr.Insert(k, i)
		}
		for i, k := range clean {
			id := tr.Lookup(k)
			// Later duplicates overwrite earlier ids.
			if id < 0 || clean[id] != k {
				_ = i
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSkipGramCooccurrence(t *testing.T) {
	// Tokens a/b always co-occur; c/d always co-occur; the pairs never mix.
	var sentences [][]string
	for i := 0; i < 300; i++ {
		sentences = append(sentences, []string{"alpha", "beta"})
		sentences = append(sentences, []string{"gamma", "delta"})
	}
	sg := TrainSkipGram(sentences, 16, 1)
	same := sg.Similarity("alpha", "beta")
	cross := sg.Similarity("alpha", "gamma")
	if same <= cross {
		t.Fatalf("co-occurring pair similarity %.3f not above non-co-occurring %.3f", same, cross)
	}
}

func TestSkipGramDeterministic(t *testing.T) {
	sentences := [][]string{{"a", "b"}, {"b", "c"}, {"a", "c"}}
	s1 := TrainSkipGram(sentences, 8, 1)
	s2 := TrainSkipGram(sentences, 8, 1)
	for i := range s1.Vectors {
		for j := range s1.Vectors[i] {
			if s1.Vectors[i][j] != s2.Vectors[i][j] {
				t.Fatal("skip-gram training nondeterministic")
			}
		}
	}
}

func TestHashEmbedder(t *testing.T) {
	h := HashEmbedder{DimN: 64}
	a := h.Embed("abc")
	b := h.Embed("abc%")
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("wildcards must not change the hash bitmap")
		}
	}
	// Shared characters produce overlapping bits.
	c := h.Embed("cab")
	for i := range a {
		if a[i] != c[i] {
			t.Fatal("anagrams must share the bitmap")
		}
	}
}

func TestPatternCore(t *testing.T) {
	cases := []struct {
		pat, core string
		pre, suf  bool
	}{
		{"Din%", "Din", false, true},
		{"%rank", "rank", true, false},
		{"%(co-production)%", "(co-production)", true, true},
		{"plain", "plain", false, false},
		{"a%bcd%e", "bcd", true, true},
		{"%%", "", true, true},
	}
	for _, c := range cases {
		core, pre, suf := patternCore(c.pat)
		if core != c.core || pre != c.pre || suf != c.suf {
			t.Errorf("patternCore(%q) = (%q,%v,%v), want (%q,%v,%v)",
				c.pat, core, pre, suf, c.core, c.pre, c.suf)
		}
	}
}

func TestBuildEmbedderEndToEnd(t *testing.T) {
	db := dataset.GenerateIMDB(dataset.Config{Seed: 1, Scale: 0.02})
	ws := []WorkloadString{
		{Table: "movie_companies", Column: "note", S: "(co-production)", Kind: MatchContains},
		{Table: "movie_companies", Column: "note", S: "(presents)", Kind: MatchContains},
		{Table: "company_type", Column: "kind", S: "production companies", Kind: MatchExact},
		{Table: "info_type", Column: "info", S: "top 250 rank", Kind: MatchExact},
	}
	e := Build(db, ws, Config{Dim: 16, UseRules: true, Seed: 1})

	if e.Dim() != 16 {
		t.Fatalf("Dim = %d", e.Dim())
	}
	// Known pattern must embed to a non-zero vector.
	v := e.Embed("%(co-production)%")
	if norm(v) == 0 {
		t.Fatal("known pattern embedded to zero vector")
	}
	// Exact workload strings are in the dictionary.
	if norm(e.Embed("top 250 rank")) == 0 {
		t.Fatal("exact workload string missing from index")
	}
	// Unseen-but-prefix-matching pattern resolves via the trie.
	v2 := e.Embed("(co-production) extra%")
	if norm(v2) == 0 {
		t.Fatal("prefix fallback failed")
	}
	// Completely unknown alphabet yields zeros.
	if norm(e.Embed("ZZZZQQQ999###")) != 0 {
		t.Log("note: unknown string matched some dictionary prefix (acceptable)")
	}
}

// TestBuildEmbedderReproducible: the rule-selected embedder is a function of
// its inputs — built again with the same seed, its dictionary and every vector
// agree bit for bit. Skip-gram training is order-sensitive, so this holds only
// while sentences are built in a fixed table order; three tables contribute
// sentences here (two with two string columns, one through rule-extracted
// substrings), and eight rebuilds catch a map-ordered build in ten runs of ten.
func TestBuildEmbedderReproducible(t *testing.T) {
	db := dataset.GenerateIMDB(dataset.Config{Seed: 1, Scale: 0.02})
	ws := []WorkloadString{
		{Table: "movie_companies", Column: "note", S: "(co-production)", Kind: MatchContains},
		{Table: "company_name", Column: "name", S: "Ka", Kind: MatchPrefix},
		{Table: "company_name", Column: "country_code", S: "[us]", Kind: MatchExact},
		{Table: "name", Column: "name", S: "ro", Kind: MatchContains},
		{Table: "name", Column: "gender", S: "f", Kind: MatchExact},
	}
	cfg := Config{Dim: 8, UseRules: true, Seed: 1}
	first := Build(db, ws, cfg)
	if len(first.Rules) == 0 {
		t.Fatal("no rules selected: the test needs the rule-selected embedder")
	}
	for range 8 {
		again := Build(db, ws, cfg)
		if len(first.exact) != len(again.exact) {
			t.Fatalf("dictionaries differ: %d vs %d tokens", len(first.exact), len(again.exact))
		}
		for tok, id := range first.exact {
			aid, ok := again.exact[tok]
			if !ok {
				t.Fatalf("token %q in one build only", tok)
			}
			for k, x := range first.vectors[id] {
				if y := again.vectors[aid][k]; math.Float64bits(x) != math.Float64bits(y) {
					t.Fatalf("token %q, component %d: %v vs %v", tok, k, x, y)
				}
			}
		}
	}
}

func TestBuildEmbedderRulesHelpCoverage(t *testing.T) {
	db := dataset.GenerateIMDB(dataset.Config{Seed: 1, Scale: 0.02})
	// A prefix pattern whose core is NOT a full value: rules should add the
	// substring to the dictionary, the NR variant should miss it.
	titles := db.Table("aka_title").StrColumn("title")
	var q string
	for _, v := range titles {
		if len(v) >= 4 {
			q = v[:4]
			break
		}
	}
	if q == "" {
		t.Skip("no usable title")
	}
	ws := []WorkloadString{{Table: "aka_title", Column: "title", S: q, Kind: MatchPrefix}}
	cfg := Config{Dim: 8, UseRules: true, Seed: 1}

	withRules := Build(db, ws, cfg)
	cfg.UseRules = false
	noRules := Build(db, ws, cfg)

	if withRules.DictSize <= noRules.DictSize {
		t.Errorf("rules did not grow the dictionary: %d vs %d", withRules.DictSize, noRules.DictSize)
	}
	if len(withRules.Rules) == 0 {
		t.Error("no rules selected")
	}
}

func norm(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}
