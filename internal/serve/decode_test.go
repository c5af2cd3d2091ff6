package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"unicode/utf8"

	"costest/internal/feature"
	"costest/internal/plan"
	"costest/internal/plan/plantest"
)

// oracleDecodeEstimate is the request decoder DecodeEstimate replaced, kept
// as its oracle: encoding/json into estimateRequest (unknown fields refused,
// as the handler did), the plan/plans rule, then WirePlan.Decode per plan.
func oracleDecodeEstimate(body []byte) ([]*plan.Node, int, error) {
	var req estimateRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, 0, err
	}
	plans := req.Plans
	if req.Plan != nil {
		if len(plans) > 0 {
			return nil, 0, errors.New("set plan or plans, not both")
		}
		plans = []*WirePlan{req.Plan}
	}
	if len(plans) == 0 {
		return nil, 0, errors.New("no plan")
	}
	roots := make([]*plan.Node, len(plans))
	for i, wp := range plans {
		root, err := wp.Decode()
		if err != nil {
			return nil, 0, err
		}
		roots[i] = root
	}
	return roots, req.TimeoutMS, nil
}

// tightened reports whether body falls under one of DecodeEstimate's four
// deliberate tightenings, judged from the bytes alone (not from either
// decoder's verdict): a string that is not valid UTF-8, a member name that is
// not exactly one of the format's (encoding/json folds case), a name repeated
// within one object, or non-whitespace after the first JSON value. For a body
// the oracle accepts the judgement is exact.
func tightened(body []byte) bool {
	if !utf8.Valid(body) {
		return true
	}
	names := map[string]bool{}
	for _, list := range [][]string{requestMembers, planMembers, predMembers, atomMembers, joinMembers, colMembers, aggMembers} {
		for _, name := range list {
			names[name] = true
		}
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	// One frame per open object (the names seen so far; wantName between
	// members) or array (names nil).
	type frame struct {
		names    map[string]bool
		wantName bool
	}
	var open []frame
	for {
		tok, err := dec.Token()
		if err != nil {
			return false // not JSON: nothing to tighten
		}
		top := len(open) - 1
		if name, isString := tok.(string); isString && top >= 0 && open[top].wantName {
			if !names[name] || open[top].names[name] {
				return true
			}
			open[top].names[name] = true
			open[top].wantName = false
			continue
		}
		switch tok {
		case json.Delim('{'):
			open = append(open, frame{names: map[string]bool{}, wantName: true})
			continue
		case json.Delim('['):
			open = append(open, frame{})
			continue
		case json.Delim('}'), json.Delim(']'):
			open = open[:top]
		}
		// A value is complete: its object, if any, wants a name next.
		if len(open) == 0 {
			break
		}
		open[len(open)-1].wantName = open[len(open)-1].names != nil
	}
	return len(bytes.TrimLeft(body[dec.InputOffset():], " \t\r\n")) > 0
}

// checkDecodeAgainstOracle holds DecodeEstimate to the oracle on one body:
// both refuse, or both accept with deeply equal trees, equal signatures and
// equal timeouts — except that a tightened body the oracle accepts must be
// refused — and a recycled decoder does exactly what a fresh one does. It
// returns the decoded plans (nil when refused).
func checkDecodeAgainstOracle(t *testing.T, body []byte) []*plan.Node {
	t.Helper()
	want, wantTimeout, oracleErr := oracleDecodeEstimate(body)
	got, gotTimeout, err := DecodeEstimate(body)
	checkRecycledDecoder(t, body, got, gotTimeout, err)
	switch {
	case oracleErr != nil && err == nil:
		t.Fatalf("accepted a body the oracle refuses (%v):\n%s", oracleErr, body)
	case oracleErr != nil:
		return nil
	case tightened(body):
		if err == nil {
			t.Fatalf("accepted a body that should fall to a tightening:\n%s", body)
		}
		return nil
	case err != nil:
		t.Fatalf("refused (%v) a body the oracle accepts and no tightening covers:\n%s", err, body)
	}
	if gotTimeout != wantTimeout || len(got) != len(want) {
		t.Fatalf("decoded %d plans, timeout %d; oracle %d plans, timeout %d:\n%s", len(got), gotTimeout, len(want), wantTimeout, body)
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) || got[i].Signature() != want[i].Signature() {
			t.Fatalf("plan %d differs from the oracle's:\n got %s\nwant %s\nbody %s", i, got[i], want[i], body)
		}
	}
	return got
}

// recycled is the decoder the way the handler holds one: reused body after
// body, its slabs and intern table carrying whatever the bodies before left.
var recycled struct {
	sync.Mutex
	decoder
}

// checkRecycledDecoder decodes body twice through the shared recycled decoder
// and holds both passes to what a fresh decoder returned: the same refusal,
// or deeply equal trees and the same timeout.
func checkRecycledDecoder(t *testing.T, body []byte, want []*plan.Node, wantTimeout int, wantErr error) {
	t.Helper()
	recycled.Lock()
	defer recycled.Unlock()
	for pass := 1; pass <= 2; pass++ {
		got, timeout, err := recycled.decode(body)
		switch {
		case (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()):
			t.Fatalf("recycled decoder, pass %d: err %v, a fresh decoder's %v:\n%s", pass, err, wantErr, body)
		case timeout != wantTimeout || !reflect.DeepEqual(got, want):
			t.Fatalf("recycled decoder, pass %d: trees or timeout (%d, want %d) differ from a fresh decoder's:\n%s", pass, timeout, wantTimeout, body)
		}
	}
}

// wirePlanSeeds are bare wire plans (not request bodies): realistic plans
// from the wire encoder itself, shape edge cases, and a deep chain of unary
// operators — the shape the size bounds exist for. Both fuzzers start here.
func wirePlanSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	var seeds [][]byte
	plans, _ := testCorpus(tb, 401, 6)
	for _, p := range plans {
		seeds = append(seeds, mustMarshal(tb, EncodeWire(p)))
	}
	for _, s := range []string{
		`{}`,
		`{"op":"seqscan"}`,
		`{"op":"hashjoin","left":{"op":"seqscan","table":"t"}}`,
		`{"op":"seqscan","table":"t","filter":{"bool":"and","left":{"atom":{"table":"t","column":"c","op":"=","num":1}}}}`,
		`{"op":"seqscan","table":"t","filter":{"atom":{"table":"t","column":"c","op":"in","in":["a"]},"bool":"or"}}`,
		`[1,2,3]`,
		`not json`,
	} {
		seeds = append(seeds, []byte(s))
	}
	return append(seeds, mustMarshal(tb, wireUnaryChain(4*MaxPlanDepth)))
}

func mustMarshal(tb testing.TB, v any) []byte {
	tb.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		tb.Fatalf("marshal: %v", err)
	}
	return b
}

// asRequest wraps a bare wire plan into an /estimate body.
func asRequest(wirePlan []byte) []byte {
	return []byte(`{"plan":` + string(wirePlan) + `}`)
}

// decodeTable is the hand-written half of the differential: string escapes,
// the number grammar, null, the ignored-members corner of the predicate
// rule, and one row per tightening. Every row goes through
// checkDecodeAgainstOracle, so none states its expected verdict — the oracle
// and tightened() do.
var decodeTable = []string{
	// Escapes, including surrogate pairs and halves.
	`{"plan":{"op":"seqscan","table":"a\"b\\c\/d\b\f\n\r\t\u00e9\u4e16"}}`,
	`{"plan":{"op":"seqscan","table":"\ud83d\ude00 \ud83d \ude00 \ud83d\ud83d\ude00 \ud83dx"}}`,
	`{"plan":{"op":"seqscan","table":"\u0000"}}`,
	`{"plan":{"op":"seqscan","table":"é世😀\ufffd"}}`,
	`{"plan":{"\u006fp":"seqscan","table":"t"}}`,
	`{"plan":{"op":"seqscan","table":"a\x"}}`,
	`{"plan":{"op":"seqscan","table":"a\u12"}}`,
	`{"plan":{"op":"seqscan","table":"a\ud83d\u12"}}`,
	"{\"plan\":{\"op\":\"seqscan\",\"table\":\"a\tb\"}}",
	`{"plan":{"op":"seqscan","table":"unterminated}}`,
	// Numbers.
	`{"plan":{"op":"seqscan","table":"t","index_cond":{"table":"t","column":"c","op":"=","num":-0}}}`,
	`{"plan":{"op":"seqscan","table":"t","index_cond":{"table":"t","column":"c","op":"<","num":-12.50e+2}}}`,
	`{"plan":{"op":"seqscan","table":"t","index_cond":{"table":"t","column":"c","op":"<","num":1E-400}}}`,
	`{"plan":{"op":"seqscan","table":"t","index_cond":{"table":"t","column":"c","op":"<","num":1e400}}}`,
	`{"plan":{"op":"seqscan","table":"t","index_cond":{"table":"t","column":"c","op":"<","num":01}}}`,
	`{"plan":{"op":"seqscan","table":"t","index_cond":{"table":"t","column":"c","op":"<","num":1.}}}`,
	`{"plan":{"op":"seqscan","table":"t","index_cond":{"table":"t","column":"c","op":"<","num":.5}}}`,
	`{"plan":{"op":"seqscan","table":"t","index_cond":{"table":"t","column":"c","op":"<","num":+1}}}`,
	`{"plan":{"op":"seqscan","table":"t","index_cond":{"table":"t","column":"c","op":"<","num":"1"}}}`,
	`{"plan":{"op":"seqscan","table":"t"},"timeout_ms":250}`,
	`{"plan":{"op":"seqscan","table":"t"},"timeout_ms":-0}`,
	`{"plan":{"op":"seqscan","table":"t"},"timeout_ms":-7}`,
	`{"plan":{"op":"seqscan","table":"t"},"timeout_ms":1.5}`,
	`{"plan":{"op":"seqscan","table":"t"},"timeout_ms":1e3}`,
	`{"plan":{"op":"seqscan","table":"t"},"timeout_ms":99999999999999999999}`,
	`{"plan":{"op":"seqscan","table":"t"},"timeout_ms":"5"}`,
	// null is absence; inside an array it is the zero value.
	`{"plan":null,"plans":[{"op":"seqscan","table":"t"}],"timeout_ms":null}`,
	`{"plan":{"op":"seqscan","table":"t"},"plans":null}`,
	`{"plan":{"op":"seqscan","table":"t"},"plans":[]}`,
	`{"plan":{"op":"seqscan","table":"t"},"plans":[{"op":"seqscan","table":"t"}]}`,
	`{"plans":[{"op":"seqscan","table":"t"},null]}`,
	`{"plans":[]}`,
	`null`,
	` { "plan" : { "op" : "SeqScan" , "table" : "t" , "index" : null , "filter" : null , "left" : null } } ` + "\r\n\t",
	`{"plan":{"op":"sort","sort_keys":[null,{"table":"t","column":null},{}],"left":{"op":"seqscan","table":"t"}}}`,
	`{"plan":{"op":"sort","sort_keys":[],"aggs":[],"left":{"op":"seqscan","table":"t"}}}`,
	`{"plan":{"op":"aggregate","aggs":[{"func":"COUNT"},{"func":"min","col":{"table":"t","column":"c"}},{"func":"max","col":null}],"left":{"op":"seqscan","table":"t"}}}`,
	`{"plan":{"op":"aggregate","aggs":[null],"left":{"op":"seqscan","table":"t"}}}`,
	`{"plan":{"op":"aggregate","aggs":[{"func":"avg"}],"left":{"op":"seqscan","table":"t"}}}`,
	`{"plan":{"op":"seqscan","table":"t","filter":{"atom":{"table":"t","column":"c","op":"IN","in":["a",null,"b"]}}}}`,
	`{"plan":{"op":"seqscan","table":"t","filter":{"atom":{"table":"t","column":"c","op":"in","in":[]}}}}`,
	`{"plan":{"op":"seqscan","table":"t","filter":{"atom":{"table":"t","column":"c","op":"=","str":"x","in":[]}}}}`,
	`{"plan":{"op":"seqscan","table":"t","filter":{"atom":{"table":"t","column":"c","op":"=","str":"x","num":null}}}}`,
	`{"plan":{"op":"seqscan","table":"t","filter":{"atom":{"table":"t","column":"c","op":"=","str":"x","num":1}}}}`,
	`{"plan":{"op":"hashjoin","join":{"left":null,"right":{"table":"t"}},"param_join":{},"left":{"op":"seqscan","table":"t"},"right":{"op":"seqscan","table":"u"}}}`,
	`{"plan":{"op":"hashjoin","join":null,"left":{"op":"seqscan","table":"t"},"right":{"op":"seqscan","table":"u"}}}`,
	// A predicate node: exactly one of atom or bool; left/right beside an
	// atom are parsed, counted against the bound, and otherwise ignored.
	`{"plan":{"op":"seqscan","table":"t","filter":{"atom":{"table":"t","column":"c","op":"=","num":1},"bool":"","left":{},"right":{"bool":"xor"}}}}`,
	`{"plan":{"op":"seqscan","table":"t","filter":{"left":{},"atom":{"table":"t","column":"c","op":"=","num":1},"bool":null}}}`,
	`{"plan":{"op":"seqscan","table":"t","filter":{"left":{"bogus":1},"atom":{"table":"t","column":"c","op":"=","num":1}}}}`,
	`{"plan":{"op":"seqscan","table":"t","filter":{"left":{"atom":{"table":"t","column":"c","op":"=","num":"x"}},"atom":{"table":"t","column":"c","op":"=","num":1}}}}`,
	`{"plan":{"op":"seqscan","table":"t","filter":{"bool":"AND","left":{"atom":{"table":"t","column":"c","op":"=","num":1}},"right":{"atom":{"table":"t","column":"c","op":"like","str":"%x%"}}}}}`,
	`{"plan":{"op":"seqscan","table":"t","filter":{"bool":"and","left":{"atom":{"table":"t","column":"c","op":"=","num":1}},"right":{}}}}`,
	`{"plan":{"op":"seqscan","table":"t","filter":{"bool":"and","left":{"atom":{"table":"t","column":"c","op":"=","num":1}},"right":null}}}`,
	`{"plan":{"op":"seqscan","table":"t","filter":{"bool":"and","atom":{"table":"t","column":"c","op":"=","num":1}}}}`,
	`{"plan":{"op":"seqscan","table":"t","filter":{}}}`,
	`{"plan":{"op":"seqscan","table":"t","filter":{"atom":{"table":"","column":"c","op":"=","num":1}}}}`,
	// Wrong types, broken structure.
	`{"plan":{"op":5,"table":"t"}}`,
	`{"plan":{"op":"seqscan","table":"t","left":[]}}`,
	`{"plan":{"op":"seqscan","table":"t","sort_keys":{}}}`,
	`{"plan":{"op":"seqscan","table":"t","filter":true}}`,
	`{"plan":{"op":"seqscan","table":"t",}}`,
	`{"plan":{"op":"seqscan" "table":"t"}}`,
	`{"plan":{"op":"seqscan","table":"t"}`,
	`{"plan":{"op":"seqscan","table":"t","sort_keys":[{"table":"t"},]}}`,
	`{"plan":{"op":"seqscan","table":"t"},"nullx":1}`,
	`{"plan":{"op":"seqscan","table":nul}}`,
	`{"plan":{"op":"seqscan","table":"t","bool":"and"}}`,
	`[{"plan":{"op":"seqscan","table":"t"}}]`,
	``,
	// The four tightenings: accepted by the oracle, refused here.
	`{"Plan":{"op":"seqscan","table":"t"}}`,
	`{"plan":{"OP":"seqscan","table":"t"}}`,
	`{"plan":{"op":"seqscan","table":"t","filter":{"atom":{"table":"t","Column":"c","op":"=","num":1}}}}`,
	`{"plan":{"op":"seqscan","op":"seqscan","table":"t"}}`,
	`{"plan":{"left":{"op":"bogus"},"left":null,"op":"seqscan","table":"t"}}`,
	`{"plan":null,"plan":{"op":"seqscan","table":"t"}}`,
	"{\"plan\":{\"op\":\"seqscan\",\"table\":\"t\xff\"}}",
	"{\"plan\":{\"op\":\"seqscan\",\"table\":\"\xed\xa0\x80\"}}",
	`{"plan":{"op":"seqscan","table":"t"}} x`,
	`{"plan":{"op":"seqscan","table":"t"}}{"plan":{"op":"bogus"}}`,
	`{"plan":{"op":"seqscan","table":"t"}}` + "\x00",
	// Repeated subtrees, which the decoder builds once per body (the scan S
	// below is 97 bytes, past spanPrefix): a self-join; S across plans and as
	// a whole plan; a whole plan repeated; near-repeats that differ in S's
	// last byte, as the start of a longer node and as broken JSON; S with
	// escapes and non-ASCII text, repeated; a repeat under an aggregate's two
	// inputs, one of which is the cardinality node.
	selfJoinBody,
	`{"plans":[{"op":"sort","left":{"op":"seqscan","table":"title","index_cond":{"table":"title","column":"kind_id","op":"=","num":1}}},` +
		`{"op":"aggregate","aggs":[{"func":"count"}],"left":{"op":"seqscan","table":"title","index_cond":{"table":"title","column":"kind_id","op":"=","num":1}}},` +
		`{"op":"seqscan","table":"title","index_cond":{"table":"title","column":"kind_id","op":"=","num":1}}]}`,
	`{"plans":[{"op":"sort","left":{"op":"seqscan","table":"title","index_cond":{"table":"title","column":"kind_id","op":"=","num":1}}},` +
		`{"op":"sort","left":{"op":"seqscan","table":"title","index_cond":{"table":"title","column":"kind_id","op":"=","num":1}}}]}`,
	`{"plans":[{"op":"seqscan","table":"title","index_cond":{"table":"title","column":"kind_id","op":"=","num":1}},` +
		`{"op":"seqscan","table":"title","index_cond":{"table":"title","column":"kind_id","op":"=","num":1},"index":"i"},` +
		`{"op":"seqscan","table":"title","index_cond":{"table":"title","column":"kind_id","op":"=","num":1}}]}`,
	`{"plans":[{"op":"seqscan","table":"title","index_cond":{"table":"title","column":"kind_id","op":"=","num":1}},` +
		`{"op":"seqscan","table":"title","index_cond":{"table":"title","column":"kind_id","op":"=","num":1}]]}`,
	`{"plans":[{"op":"seqscan","table":"t\u00e9é\u4e16世","filter":{"atom":{"table":"t","column":"\u0063","op":"\u003c","str":"😀\ud83d\ude00\n\ud83d"}}},` +
		`{"op":"nestloop","join":{},"left":{"op":"seqscan","table":"t\u00e9é\u4e16世","filter":{"atom":{"table":"t","column":"\u0063","op":"\u003c","str":"😀\ud83d\ude00\n\ud83d"}}},` +
		`"right":{"op":"seqscan","table":"t\u00e9é\u4e16世","filter":{"atom":{"table":"t","column":"\u0063","op":"\u003c","str":"😀\ud83d\ude00\n\ud83d"}}}}]}`,
	aggregateRepeatBody,
}

const (
	selfJoinBody = `{"plan":{"op":"hashjoin","join":{"left":{"table":"title","column":"id"},"right":{"table":"title","column":"id"}},` +
		`"left":{"op":"seqscan","table":"title","index_cond":{"table":"title","column":"kind_id","op":"=","num":1}},` +
		`"right":{"op":"seqscan","table":"title","index_cond":{"table":"title","column":"kind_id","op":"=","num":1}}}}`
	aggregateRepeatBody = `{"plan":{"op":"aggregate","aggs":[{"func":"count"}],"right":{"op":"seqscan","table":"title","index_cond":{"table":"title","column":"kind_id","op":"=","num":1}},` +
		`"left":{"op":"seqscan","table":"title","index_cond":{"table":"title","column":"kind_id","op":"=","num":1}}}}`
)

// repeatBodies are the generated half of the repeated-subtree rows: a span
// that differs from an earlier one just past the hashed prefix and at its
// last hashed byte; many distinct spans with one common prefix, then repeats
// of the newest, of one within the probe window and of one beyond it; and a
// repeat whose reuse would cross MaxPlanDepth or MaxPlanNodes, beside one
// that just fits each bound.
func repeatBodies(tb testing.TB) [][]byte {
	tb.Helper()
	plans := func(ps ...[]byte) []byte {
		return []byte(`{"plans":[` + string(bytes.Join(ps, []byte(","))) + `]}`)
	}
	// A scan whose table name covers bytes 25..64, so spanPrefix-1 and
	// spanPrefix fall inside it.
	named := func(at int) []byte {
		name := []byte(strings.Repeat("a", 40))
		if at >= 0 {
			name[at-25] = 'b'
		}
		return []byte(`{"op":"seqscan","table":"` + string(name) + `"}`)
	}
	keyed := func(k int) []byte {
		return []byte(`{"op":"seqscan","table":"title","index_cond":{"table":"title","column":"kind_id","op":"=","num":` + strconv.Itoa(k) + `}}`)
	}
	var distinct [][]byte
	for k := range 3 * spanProbes {
		distinct = append(distinct, keyed(k))
	}
	last := len(distinct) - 1
	distinct = append(distinct, keyed(last), keyed(last-spanProbes/2), keyed(0))

	// aggregates wraps w in n aggregates: their prefix is not the sort
	// chain's, so each repeat of the chain under them is found at once.
	aggregates := func(n int, w *WirePlan) *WirePlan {
		for range n {
			w = &WirePlan{Op: "aggregate", Left: w}
		}
		return w
	}
	join := func(l, r *WirePlan) *WirePlan { return &WirePlan{Op: "hashjoin", Left: l, Right: r} }
	tree := wireJoinTree(64) // 127 nodes
	return [][]byte{
		plans(named(-1), named(spanPrefix), named(-1), named(spanPrefix-1), named(spanPrefix)),
		plans(distinct...),
		mustMarshal(tb, estimateRequest{Plans: []*WirePlan{wireUnaryChain(40), aggregates(24, wireUnaryChain(40))}}), // depth 64
		mustMarshal(tb, estimateRequest{Plans: []*WirePlan{wireUnaryChain(40), aggregates(25, wireUnaryChain(40))}}), // depth 65
		mustMarshal(tb, estimateRequest{Plan: join(tree, aggregates(1, tree))}),                                      // 256 nodes
		mustMarshal(tb, estimateRequest{Plan: join(tree, join(wireScan(), tree))}),                                   // 257 nodes
	}
}

// TestDecodeEstimateMatchesOracle is the differential that pins the request
// path's decoder to the one it replaced: over every corpus plan (alone and as
// one multi-plan body), every FuzzWirePlanDecode seed and the hand-written
// table. It also checks the table really exercises both sides of each
// tightening's line.
func TestDecodeEstimateMatchesOracle(t *testing.T) {
	plans, _ := testCorpus(t, 202, 16)
	var wire []*WirePlan
	accepted := 0
	for _, p := range plans {
		wire = append(wire, EncodeWire(p))
		if got := checkDecodeAgainstOracle(t, mustMarshal(t, estimateRequest{Plan: EncodeWire(p)})); got != nil {
			accepted++
		}
	}
	if accepted != len(plans) {
		t.Fatalf("accepted %d of %d corpus plans", accepted, len(plans))
	}
	if got := checkDecodeAgainstOracle(t, mustMarshal(t, estimateRequest{Plans: wire, TimeoutMS: 40})); len(got) != len(plans) {
		t.Fatalf("multi-plan body decoded to %d plans, want %d", len(got), len(plans))
	}
	for _, seed := range wirePlanSeeds(t) {
		checkDecodeAgainstOracle(t, asRequest(seed))
	}
	accepted, refusedAsTightened := 0, 0
	for _, body := range decodeTable {
		if checkDecodeAgainstOracle(t, []byte(body)) != nil {
			accepted++
		} else if _, _, err := oracleDecodeEstimate([]byte(body)); err == nil {
			refusedAsTightened++
		}
	}
	if accepted < 20 || refusedAsTightened < 11 {
		t.Fatalf("table: %d bodies accepted, %d refused by a tightening; want at least 20 and 11", accepted, refusedAsTightened)
	}
}

// TestDecodedIDsMatchStructure runs the identity differential over every
// decodeTable row the decoder accepts and over the 8 × 8 enumeration body:
// two decoded subtrees share an ID exactly when they are equal.
func TestDecodedIDsMatchStructure(t *testing.T) {
	_, enum64 := estimateBodies(t)
	for _, body := range append(decodeTable, string(enum64), textCollisionBody) {
		if roots, _, err := DecodeEstimate([]byte(body)); err == nil {
			plantest.CheckIDs(t, roots...)
		}
	}
}

// TestDecodeEstimateRefusals: each tightening and each malformed-body class is
// refused with an error that says what and where.
func TestDecodeEstimateRefusals(t *testing.T) {
	for body, want := range map[string]string{
		`{"Plan":{"op":"seqscan","table":"t"}}`:                    `byte 7: unknown member "Plan"`,
		`{"plan":{"op":"seqscan","op":"seqscan","table":"t"}}`:     `member "op" repeated`,
		"{\"plan\":{\"op\":\"seqscan\",\"table\":\"t\xff\"}}":      `invalid UTF-8 in string`,
		`{"plan":{"op":"seqscan","table":"t"}} x`:                  `byte 38: unexpected data after the request object`,
		`{"plan":{"op":"seqscan","table":"t"},"timeout_ms":1.5}`:   `timeout_ms is not an integer`,
		`{"plan":{"op":"seqscan","table":"t","left":[]}}`:          `expected '{'`,
		`{"plan":{"op":"seqscan","table":"t"}`:                     `unexpected end of body`,
		`{"plan":{"op":"seqscan","table":"t"},"plans":[{"op":1}]}`: `expected a string`,
		`{"plans":[]}`: `no plan`,
	} {
		if _, _, err := DecodeEstimate([]byte(body)); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("body %q: err = %v, want one naming %q", body, err, want)
		}
	}
}

// BenchmarkDecodeEstimate measures the request path's decoder on the body
// shapes the benchmark workloads send: one plan, 64 distinct plans, and the
// 64-plan enumeration (8 queries × 8 join-operator variants). The top-level
// rows decode on a fresh decoder per call (DecodeEstimate); the recycled rows
// on one decoder reused body after body, as the handler holds it — the only
// rows where a warm decoder's slabs and span table show. shared_bytes/op is
// what the decoder skipped as repeats of an earlier subtree of the body.
func BenchmarkDecodeEstimate(b *testing.B) {
	plans, _ := testCorpus(b, 202, 80)
	wire := make([]*WirePlan, 64)
	for i := range wire {
		wire[i] = EncodeWire(plans[i%len(plans)])
	}
	single := mustMarshal(b, estimateRequest{Plan: wire[0]})
	plans64 := mustMarshal(b, estimateRequest{Plans: wire})
	_, enum64 := estimateBodies(b)
	for name, body := range map[string][]byte{"single": single, "plans64": plans64} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			for i := 0; i < b.N; i++ {
				if _, _, err := DecodeEstimate(body); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, c := range []struct {
		name string
		body []byte
	}{{"single", single}, {"plans64", plans64}, {"enum64", enum64}} {
		b.Run("recycled/"+c.name, func(b *testing.B) {
			var d decoder
			if _, _, err := d.decode(c.body); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.SetBytes(int64(len(c.body)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := d.decode(c.body); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(d.shared), "shared_bytes/op")
		})
	}
}

// nodeSet counts the plan nodes of roots as a tree walk sees them and as
// distinct *plan.Node values.
func nodeSet(roots []*plan.Node) (walked, distinct int) {
	seen := map[*plan.Node]bool{}
	for _, r := range roots {
		r.Walk(func(n *plan.Node) {
			walked++
			seen[n] = true
		})
	}
	return walked, len(seen)
}

// TestDecodeSharesRepeatedSubtrees: the generated repeat bodies hold to the
// oracle like decodeTable's rows; a subtree whose bytes repeat comes back as
// the same *plan.Node (the sharing is live), and the feature encoding of the
// shared trees is the encoding of the oracle's unshared ones — signatures,
// node counts, cardinality node, levels and every vector.
func TestDecodeSharesRepeatedSubtrees(t *testing.T) {
	for _, body := range repeatBodies(t) {
		checkDecodeAgainstOracle(t, body)
	}
	_, enum64 := estimateBodies(t)
	selfJoin, aggregate := []byte(selfJoinBody), []byte(aggregateRepeatBody)
	for _, c := range []struct {
		name      string
		body      []byte
		minShared float64 // of the body's bytes
	}{
		{"enum64", enum64, 0.4},
		{"selfjoin", selfJoin, 0.3},
		{"aggregate", aggregate, 0.3},
	} {
		var d decoder
		got, _, err := d.decode(c.body)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		want, _, err := oracleDecodeEstimate(c.body)
		if err != nil {
			t.Fatalf("%s: oracle: %v", c.name, err)
		}
		walked, distinct := nodeSet(got)
		if wantWalked, _ := nodeSet(want); walked != wantWalked || distinct >= walked {
			t.Fatalf("%s: %d nodes walked (oracle %d) but %d distinct: nothing shared", c.name, walked, wantWalked, distinct)
		}
		if rate := float64(d.shared) / float64(len(c.body)); rate < c.minShared {
			t.Fatalf("%s: %d of %d bytes skipped as repeats (%.2f), want at least %.2f", c.name, d.shared, len(c.body), rate, c.minShared)
		}
		t.Logf("%s: %d of %d nodes distinct, %.2f of the bytes shared, %d bytes compared", c.name, distinct, walked, float64(d.shared)/float64(len(c.body)), d.compared)

		var sharedArena, oracleArena feature.Arena
		gotEps, err := testEnc.EncodeAll(got, &sharedArena)
		if err != nil {
			t.Fatalf("%s: encode: %v", c.name, err)
		}
		wantEps, err := testEnc.EncodeAll(want, &oracleArena)
		if err != nil {
			t.Fatalf("%s: encode the oracle's trees: %v", c.name, err)
		}
		for i := range wantEps {
			g, w := gotEps[i], wantEps[i]
			if g.Nodes[g.Root].ID != w.Nodes[w.Root].ID || len(g.Nodes) != len(w.Nodes) || g.CardNode != w.CardNode || !reflect.DeepEqual(g.Levels, w.Levels) {
				t.Fatalf("%s: plan %d encodes to %d nodes, cardinality node %d, levels %v; the oracle's trees to %d, %d, %v",
					c.name, i, len(g.Nodes), g.CardNode, g.Levels, len(w.Nodes), w.CardNode, w.Levels)
			}
			if !reflect.DeepEqual(g, w) {
				t.Fatalf("%s: plan %d: encoding differs from the oracle trees' encoding", c.name, i)
			}
		}
		if sharedArena.Shared != oracleArena.Shared {
			t.Fatalf("%s: encoder shared %d nodes of the decoder's trees, %d of the oracle's", c.name, sharedArena.Shared, oracleArena.Shared)
		}
	}
	if roots, _, err := DecodeEstimate(selfJoin); err != nil || roots[0].Left != roots[0].Right {
		t.Fatalf("self-join: the two identical inputs are distinct nodes (err %v)", err)
	}
}

// TestDecodeRepeatKeepsBounds: reusing a subtree is checked against the
// depth and node bounds of the position it recurs at. Where it just fits it is
// shared; where it would cross a bound the body is refused with the error the
// scan gives at the first node past the limit.
func TestDecodeRepeatKeepsBounds(t *testing.T) {
	bodies := repeatBodies(t)
	for _, c := range []struct {
		name string
		body []byte
		want error
	}{
		{"depth 64", bodies[2], nil},
		{"depth 65", bodies[3], errPlanDepth},
		{"256 nodes", bodies[4], nil},
		{"257 nodes", bodies[5], errPlanNodes},
	} {
		var d decoder
		_, _, err := d.decode(c.body)
		switch {
		case err != c.want:
			t.Fatalf("%s: err %v, want %v", c.name, err, c.want)
		case err == nil && d.shared == 0:
			t.Fatalf("%s: accepted without sharing the repeat", c.name)
		}
	}
}

// TestDecodeRepeatCompareBound: the bytes repeat compares stay within a
// constant factor of the body on the body that maximizes failed comparisons —
// plans of the deepest chain the bounds allow, identical but for the leaf,
// where every node of every plan has candidates that match for all but a few
// bytes at the far end. It also holds the decode to the oracle.
func TestDecodeRepeatCompareBound(t *testing.T) {
	var chains []*WirePlan
	for k := 0; len(chains) < 64; k++ {
		w := &WirePlan{Op: "seqscan", Table: "t" + strconv.Itoa(k)}
		for range MaxPlanDepth - 1 {
			w = &WirePlan{Op: "sort", Left: w}
		}
		chains = append(chains, w)
	}
	body := mustMarshal(t, estimateRequest{Plans: chains})
	var d decoder
	if _, _, err := d.decode(body); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d bytes compared on a %d-byte body", d.compared, len(body))
	if d.compared < len(body) {
		t.Fatalf("only %d bytes compared on a %d-byte body: the body does not exercise the bound", d.compared, len(body))
	}
	if limit := (compareRatio + 1) * len(body); d.compared > limit {
		t.Fatalf("%d bytes compared on a %d-byte body, bound %d", d.compared, len(body), limit)
	}
	checkDecodeAgainstOracle(t, body)
}
