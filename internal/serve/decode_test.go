package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"unicode/utf8"

	"costest/internal/plan"
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
			t.Fatalf("plan %d differs from the oracle's:\n got %s\nwant %s\nbody %s", i, got[i].Signature(), want[i].Signature(), body)
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

// BenchmarkDecodeEstimate measures the request path's decoder on the two body
// shapes the benchmark workloads send: one plan, and a 64-plan enumeration.
func BenchmarkDecodeEstimate(b *testing.B) {
	plans, _ := testCorpus(b, 202, 80)
	wire := make([]*WirePlan, 64)
	for i := range wire {
		wire[i] = EncodeWire(plans[i%len(plans)])
	}
	for name, body := range map[string][]byte{
		"single":  mustMarshal(b, estimateRequest{Plan: wire[0]}),
		"plans64": mustMarshal(b, estimateRequest{Plans: wire}),
	} {
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
}
