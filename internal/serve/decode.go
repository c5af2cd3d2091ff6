package serve

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"math/bits"
	"slices"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"
	"unsafe"

	"costest/internal/plan"
	"costest/internal/slab"
	"costest/internal/sqlpred"
)

// DecodeEstimate parses an /estimate body — {"plan": P} or {"plans": [P...]},
// optionally "timeout_ms" — straight into plan trees: one recursive-descent
// pass over the wire format's grammar (see WirePlan), no reflection and no
// intermediate tree. It is the request path's only decoder: the handler calls
// the same scan on a decoder it recycles, this entry point on a fresh one
// whose trees the caller may keep.
//
// It accepts what encoding/json into WirePlan followed by WirePlan.Decode
// accepts and builds the same trees (null for a member means the member is
// absent), except that it refuses a member name in the wrong case, a member
// repeated within an object, a string that is not valid UTF-8, and anything
// but whitespace after the request object. The size bounds (MaxPlanNodes, ...)
// are enforced as the scan goes: an oversized body is refused at the first
// node past a limit, before the rest is read or built.
//
// The trees it returns may share subtrees: a plan node whose bytes repeat, byte
// for byte, a subtree built earlier from the same body is that subtree's
// *plan.Node, not a second copy (see decoder.repeat). Within one body the plans
// form a DAG; nothing on the request path writes to a node.
func DecodeEstimate(body []byte) (roots []*plan.Node, timeoutMS int, err error) {
	return new(decoder).decode(body)
}

// decode scans one body. The trees it returns are built in the decoder's
// slabs and are valid until its next decode.
func (d *decoder) decode(body []byte) (roots []*plan.Node, timeoutMS int, err error) {
	d.reset(body)
	if d.names == nil {
		d.names = make(map[string]string)
	}
	defer func() {
		if r := recover(); r != nil {
			refusal, ok := r.(refused)
			if !ok {
				panic(r)
			}
			roots, timeoutMS, err = nil, 0, refusal.err
		}
	}()
	var single *plan.Node
	for m := d.object(requestMembers); m.next(); {
		switch m.name {
		case "plan":
			single, _ = d.planNode(1)
		case "plans":
			for d.open('['); d.more(']'); {
				root, _ := d.planNode(1)
				d.roots = append(d.roots, root)
			}
		case "timeout_ms":
			n, err := strconv.ParseInt(string(d.number()), 10, 0)
			if err != nil {
				d.fail("timeout_ms is not an integer")
			}
			timeoutMS = int(n)
		}
	}
	if d.ws(); d.i < len(d.b) {
		d.fail("unexpected data after the request object")
	}
	switch {
	case single != nil && len(d.roots) > 0:
		d.refuse(fmt.Errorf("serve: set plan or plans, not both"))
	case single != nil:
		d.roots = append(d.roots, single)
	case len(d.roots) == 0:
		d.refuse(fmt.Errorf("serve: no plan"))
	}
	return d.roots, timeoutMS, nil
}

// The members of each wire object, in the order of the Wire* struct fields.
var (
	requestMembers = []string{"plan", "plans", "timeout_ms"}
	planMembers    = []string{"op", "table", "index", "filter", "index_cond", "join", "param_join", "sort_keys", "aggs", "left", "right"}
	predMembers    = []string{"bool", "left", "right", "atom"}
	atomMembers    = []string{"table", "column", "op", "num", "str", "in"}
	joinMembers    = []string{"left", "right"}
	colMembers     = []string{"table", "column"}
	aggMembers     = []string{"func", "col"}
)

// decoder is the scan state over one body. Whatever ends the scan — malformed
// JSON, an unknown or repeated member, a value of the wrong type, a bound
// exceeded, a broken per-node rule — unwinds to decode as a refused panic. The
// exception is a rule broken inside a predicate tree, which pred and atom
// return as an error: WirePred.decode ignores left/right beside an atom, so
// whether it counts is only known once the enclosing node is read.
//
// The trees are carved off typed slabs and identifiers (operator, table,
// column and index names — a handful of distinct strings, repeated in every
// node) come from an intern table, so a recycled decoder allocates only for
// operand strings and the rare list.
//
// A plan node is built once per body: the span table remembers where in the
// body each decoded subtree lies, and a later node whose bytes repeat one is
// that subtree (see repeat).
type decoder struct {
	b            []byte
	i            int
	opened       bool // the last token was an opening '{' or '['
	nodes, preds int  // plan nodes of this plan, predicate nodes of this filter

	unescaped []byte // strBytes' buffer for a literal that is not a slice of b

	roots     []*plan.Node
	planNodes slab.Slab[plan.Node]
	atoms     slab.Slab[sqlpred.Atom]
	bools     slab.Slab[sqlpred.Bool]
	joins     slab.Slab[plan.JoinCond]
	// names interns identifiers across requests. Clients choose the strings,
	// so it is bounded: nothing longer than maxInternLen goes in, and it is
	// emptied when it reaches maxInterned entries.
	names map[string]string

	// spans are this body's decoded plan subtrees of at least spanPrefix
	// bytes; heads[h&(len(heads)-1)] is 1 + the index of the newest span whose
	// prefix hashes to h (0: none), and each span links to the one recorded
	// before it in its bucket. compared counts the bytes repeat compared in
	// this body, shared the bytes it skipped as repeats (each compared once).
	spans            []span
	heads            []int32
	compared, shared int
}

// span is a plan subtree the decoder built from the body bytes [start, end):
// its root, its node count and its height. Scanning a plan node reads only
// the bytes inside it, so wherever the same bytes recur in the body they
// decode to the same tree.
type span struct {
	hash          uint64 // of the span's first spanPrefix bytes
	tail          uint64 // the span's last 8 bytes
	start, end    int
	prev          int32 // 1 + the index of the previous span in the bucket, 0: none
	nodes, height int32
	node          *plan.Node
}

const (
	maxInterned  = 512
	maxInternLen = 64

	// spanPrefix is how many leading bytes of a plan node are hashed to find
	// an earlier span; shorter spans are cheap to decode and not recorded.
	spanPrefix = 48
	// spanProbes caps the candidates repeat walks at one position.
	spanProbes = 8
	// spanChunk is how many bytes same compares at a time, so a mismatch is
	// charged at most spanChunk-1 bytes more than it took to find.
	spanChunk = 64
	// compareRatio bounds the bytes compared in vain (by comparisons that
	// failed) per body byte: once a body has wasted that much, the rest of it
	// is decoded without probing. A successful comparison pays for itself —
	// its bytes are skipped, and each byte is skipped at most once — so a
	// hostile body costs at most about compareRatio+1 memory compares a byte
	// more than a plain scan, a few per cent of what scanning the byte costs.
	// The 64-plan enumeration wastes about a quarter of a byte a byte.
	compareRatio = 2
)

// spanSeed keys the span table's prefix hash.
var spanSeed = maphash.MakeSeed()

// reset points the decoder at a new body and recycles its slabs.
//
// costlint:noalloc
func (d *decoder) reset(body []byte) {
	d.b, d.i, d.opened = body, 0, false
	clear(d.roots) // drop the pointers, keep the array
	d.roots = d.roots[:0]
	d.planNodes.Reset()
	d.atoms.Reset()
	d.bools.Reset()
	d.joins.Reset()
	d.spans = d.spans[:0]
	d.compared, d.shared = 0, 0
	buckets := max(16, 1<<bits.Len(uint(len(body)/64)))
	d.heads = slices.Grow(d.heads[:0], buckets)[:buckets]
	clear(d.heads)
}

// retained is the memory the decoder keeps between bodies, but for the intern
// table (at most maxInterned strings of maxInternLen bytes).
func (d *decoder) retained() int {
	return d.planNodes.Bytes() + d.atoms.Bytes() + d.bools.Bytes() + d.joins.Bytes() + 8*cap(d.roots) +
		int(unsafe.Sizeof(span{}))*cap(d.spans) + 4*cap(d.heads)
}

type refused struct{ err error }

func (d *decoder) refuse(err error) { panic(refused{err}) }

func (d *decoder) fail(format string, args ...any) {
	d.refuse(fmt.Errorf("serve: byte %d: %s", d.i, fmt.Sprintf(format, args...)))
}

// planNode scans one plan node and its subtree and returns it with its height;
// depth 1 is a plan's root and starts a fresh node budget. A subtree whose
// bytes repeat an earlier span of the body is that span's tree.
func (d *decoder) planNode(depth int) (*plan.Node, int) {
	if depth == 1 {
		d.nodes = 0
	}
	start, nodes := d.i, d.nodes
	probe := start+spanPrefix <= len(d.b) && d.compared-d.shared < compareRatio*len(d.b)
	var h uint64
	if probe {
		h = maphash.Bytes(spanSeed, d.b[start:start+spanPrefix])
		if s := d.repeat(h, depth); s != nil {
			return s.node, int(s.height)
		}
	}
	if depth > MaxPlanDepth {
		d.refuse(errPlanDepth)
	}
	if d.nodes++; d.nodes > MaxPlanNodes {
		d.refuse(errPlanNodes)
	}
	n := d.planNodes.One()
	var op string
	var err error
	var left, right int // the children's heights
	for m := d.object(planMembers); m.next(); {
		switch m.name {
		case "op":
			op = d.ident()
		case "table":
			n.Table = d.ident()
		case "index":
			n.Index = d.ident()
		case "filter":
			d.preds = 0
			n.Filter, err = d.pred()
		case "index_cond":
			n.IndexCond, err = d.atom()
		case "join":
			n.JoinCond = d.join()
		case "param_join":
			n.ParamJoin = d.join()
		case "sort_keys":
			for d.open('['); d.more(']'); {
				var c plan.ColRef
				if !d.null() {
					c = d.col()
				}
				n.SortKeys = append(n.SortKeys, c)
			}
		case "aggs":
			for d.open('['); d.more(']'); {
				n.Aggs = append(n.Aggs, d.agg())
			}
		case "left":
			n.Left, left = d.planNode(depth + 1)
		case "right":
			n.Right, right = d.planNode(depth + 1)
		}
		if err != nil {
			d.refuse(err)
		}
	}
	if err := finishNode(n, op); err != nil {
		d.refuse(err)
	}
	height := 1 + max(left, right)
	if probe && d.i-start >= spanPrefix {
		d.record(h, start, d.nodes-nodes, height, n)
	}
	return n, height
}

// repeat looks for an earlier span that the bytes at the scan position repeat
// — the newest spanProbes candidates of prefix hash h, confirmed byte for
// byte — and, when its tree fits under this position's bounds, steps the scan
// past it and returns it. A repeat that would cross MaxPlanDepth or
// MaxPlanNodes here is left to the scan, which refuses it with the error an
// unshared decode gives.
//
// costlint:noalloc
func (d *decoder) repeat(h uint64, depth int) *span {
	k := d.heads[h&uint64(len(d.heads)-1)]
	for probes := 0; k > 0 && probes < spanProbes; probes++ {
		s := &d.spans[k-1]
		k = s.prev
		size := s.end - s.start
		if s.hash != h || size > len(d.b)-d.i ||
			depth+int(s.height)-1 > MaxPlanDepth || d.nodes+int(s.nodes) > MaxPlanNodes {
			continue
		}
		// The last 8 bytes first: a candidate of another shape seldom ends
		// where this node would.
		if d.compared += 8; binary.LittleEndian.Uint64(d.b[d.i+size-8:]) != s.tail {
			continue
		}
		if d.same(d.b[d.i:d.i+size-8], d.b[s.start:s.end-8]) {
			d.i += size
			d.nodes += int(s.nodes)
			d.shared += size
			return s
		}
	}
	return nil
}

// same reports whether a and b, of equal length, hold the same bytes. It
// compares a chunk at a time and charges each chunk to d.compared.
//
// costlint:noalloc
func (d *decoder) same(a, b []byte) bool {
	for k := 0; k < len(a); k += spanChunk {
		n := min(k+spanChunk, len(a))
		d.compared += n - k
		if !bytes.Equal(a[k:n], b[k:n]) {
			return false
		}
	}
	return true
}

// record adds the plan node n, just decoded from the body bytes [start, d.i),
// to the span table under prefix hash h.
//
// costlint:noalloc
func (d *decoder) record(h uint64, start, nodes, height int, n *plan.Node) {
	head := &d.heads[h&uint64(len(d.heads)-1)]
	d.spans = append(d.spans, span{hash: h, tail: binary.LittleEndian.Uint64(d.b[d.i-8:]), start: start, end: d.i,
		prev: *head, nodes: int32(nodes), height: int32(height), node: n})
	*head = int32(len(d.spans))
}

// pred scans one predicate-tree node; the error is a rule broken in its
// subtree (see decoder).
func (d *decoder) pred() (sqlpred.Pred, error) {
	if d.preds++; d.preds > MaxPredNodes {
		d.refuse(errPredNodes)
	}
	var (
		connective              string
		left, right             sqlpred.Pred
		a                       *sqlpred.Atom
		leftErr, rightErr, aErr error
	)
	for m := d.object(predMembers); m.next(); {
		switch m.name {
		case "bool":
			connective = d.ident()
		case "left":
			left, leftErr = d.pred()
		case "right":
			right, rightErr = d.pred()
		case "atom":
			a, aErr = d.atom()
		}
	}
	isAtom, kind, err := predShape(a != nil || aErr != nil, connective)
	switch {
	case err != nil:
		return nil, err
	case isAtom && aErr != nil:
		return nil, aErr
	case isAtom:
		return a, nil
	case leftErr != nil:
		return nil, leftErr
	case rightErr != nil:
		return nil, rightErr
	case left == nil || right == nil:
		return nil, fmt.Errorf("serve: %s needs two operands", connective)
	}
	b := d.bools.One()
	b.Kind, b.Left, b.Right = kind, left, right
	return b, nil
}

// atom scans one atomic predicate.
func (d *decoder) atom() (*sqlpred.Atom, error) {
	a := d.atoms.One()
	var op string
	operands := 0
	for m := d.object(atomMembers); m.next(); {
		switch m.name {
		case "table":
			a.Table = d.ident()
		case "column":
			a.Column = d.ident()
		case "op":
			op = d.ident()
		case "num":
			var err error
			if a.NumVal, err = strconv.ParseFloat(string(d.number()), 64); err != nil {
				d.fail("num is out of range")
			}
			operands++
		case "str":
			a.StrVal, a.IsStr = d.str(), true
			operands++
		case "in":
			for d.open('['); d.more(']'); {
				if len(a.InVals) == MaxInValues {
					d.refuse(errInValues)
				}
				v := ""
				if !d.null() {
					v = d.str()
				}
				a.InVals = append(a.InVals, v)
			}
			if len(a.InVals) > 0 { // an empty list is no operand
				a.IsStr = true
				operands++
			}
		}
	}
	if err := finishAtom(a, op, operands); err != nil {
		return nil, err
	}
	return a, nil
}

func (d *decoder) join() *plan.JoinCond {
	j := d.joins.One()
	for m := d.object(joinMembers); m.next(); {
		if m.name == "left" {
			j.Left = d.col()
		} else {
			j.Right = d.col()
		}
	}
	return j
}

func (d *decoder) col() (c plan.ColRef) {
	for m := d.object(colMembers); m.next(); {
		if m.name == "table" {
			c.Table = d.ident()
		} else {
			c.Column = d.ident()
		}
	}
	return c
}

func (d *decoder) agg() (spec plan.AggSpec) {
	var fn string
	for m := d.object(aggMembers); m.next(); {
		if m.name == "func" {
			fn = d.ident()
		} else {
			spec.Col = d.col()
		}
	}
	var err error
	if spec.Func, err = aggFunc(fn); err != nil {
		d.refuse(err)
	}
	return spec
}

// members iterates the members of one JSON object whose names must come from
// a fixed list.
type members struct {
	d     *decoder
	names []string
	name  string // the current member, one of names
	seen  uint   // bit i set once names[i] has occurred
}

func (d *decoder) object(names []string) members {
	d.open('{')
	return members{d: d, names: names}
}

// next advances to the next member that carries a value and leaves the scan at
// the value; false once the object is closed. It refuses a name outside the
// list (matched exactly) or already seen in this object, and steps over a
// member whose value is null — in this format the same as leaving it out.
func (m *members) next() bool {
	d := m.d
	for d.more('}') {
		name, k := d.strBytes(), 0
		for k < len(m.names) && m.names[k] != string(name) {
			k++
		}
		if k == len(m.names) {
			d.fail("unknown member %q", name)
		}
		if m.seen&(1<<k) != 0 {
			d.fail("member %q repeated", name)
		}
		m.seen |= 1 << k
		m.name = m.names[k]
		if d.ws(); !d.eat(':') {
			d.fail("expected ':' after member %q", name)
		}
		if d.ws(); !d.null() {
			return true
		}
	}
	return false
}

// ws skips JSON whitespace.
func (d *decoder) ws() {
	for d.i < len(d.b) && (d.b[d.i] == ' ' || d.b[d.i] == '\t' || d.b[d.i] == '\r' || d.b[d.i] == '\n') {
		d.i++
	}
}

// eat consumes c if it is the next byte.
func (d *decoder) eat(c byte) bool {
	if d.i == len(d.b) || d.b[d.i] != c {
		return false
	}
	d.i++
	return true
}

// open consumes the '{' or '[' that must start the value at the scan position.
func (d *decoder) open(c byte) {
	if d.ws(); !d.eat(c) {
		d.fail("expected %q", c)
	}
	d.opened = true
}

// more steps to the next member or element of the object or array that ends
// with end: it consumes end and returns false, or consumes the separating
// comma (none right after the opening) and returns true with the scan at the
// member or element.
func (d *decoder) more(end byte) bool {
	first := d.opened
	d.opened = false
	switch d.ws(); {
	case d.i == len(d.b):
		d.fail("unexpected end of body")
	case d.eat(end):
		return false
	case first:
	case !d.eat(','):
		d.fail("expected ',' or %q", end)
	}
	d.ws()
	return true
}

// null consumes a null literal if one is next.
func (d *decoder) null() bool {
	if string(d.b[d.i:min(d.i+4, len(d.b))]) != "null" {
		return false
	}
	d.i += 4
	return true
}

// number scans a number by the JSON grammar and returns its literal.
func (d *decoder) number() []byte {
	start := d.i
	digits := func() {
		from := d.i
		for d.i < len(d.b) && d.b[d.i]-'0' <= 9 {
			d.i++
		}
		if d.i == from {
			d.fail("expected a digit")
		}
	}
	d.eat('-')
	if !d.eat('0') { // no digit may follow a leading zero
		digits()
	}
	if d.eat('.') {
		digits()
	}
	if d.eat('e') || d.eat('E') {
		_ = d.eat('+') || d.eat('-')
		digits()
	}
	return d.b[start:d.i]
}

func (d *decoder) str() string { return string(d.strBytes()) }

// ident scans a string that names something — an operator, table, column or
// index — and returns the interned copy.
func (d *decoder) ident() string {
	b := d.strBytes()
	if s, ok := d.names[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(s) <= maxInternLen {
		if len(d.names) >= maxInterned {
			clear(d.names)
		}
		d.names[s] = s
	}
	return s
}

// strBytes scans the string literal at the scan position and returns its
// contents, valid until the next call: a slice of the body when the literal is
// plain ASCII, an unescaped copy in the decoder's buffer otherwise (encoding/json
// writes < and > as \u escapes, so every other comparison operator is one).
// Control characters and invalid UTF-8 are refused.
func (d *decoder) strBytes() []byte {
	if !d.eat('"') {
		d.fail("expected a string")
	}
	start := d.i
	for ; d.i < len(d.b); d.i++ {
		if c := d.b[d.i]; c == '"' {
			d.i++
			return d.b[start : d.i-1]
		} else if c < ' ' || c == '\\' || c >= utf8.RuneSelf {
			break
		}
	}
	buf := append(d.unescaped[:0], d.b[start:d.i]...)
	for d.i < len(d.b) {
		switch c := d.b[d.i]; {
		case c == '"':
			d.i++
			d.unescaped = buf
			return buf
		case c == '\\':
			d.i++
			buf = d.escape(buf)
		case c < ' ':
			d.fail("control character in string")
		default:
			r, size := utf8.DecodeRune(d.b[d.i:])
			if r == utf8.RuneError && size == 1 {
				d.fail("invalid UTF-8 in string")
			}
			buf = append(buf, d.b[d.i:d.i+size]...)
			d.i += size
		}
	}
	d.fail("unterminated string")
	return nil
}

// escape appends the character that the escape sequence at the scan position
// (past its backslash) stands for. As in encoding/json, a \u escape naming
// half a surrogate pair decodes to U+FFFD unless the other half follows.
func (d *decoder) escape(buf []byte) []byte {
	if d.i == len(d.b) {
		d.fail("unterminated string")
	}
	c := d.b[d.i]
	d.i++
	if k := strings.IndexByte(`"\/bfnrt`, c); k >= 0 {
		return append(buf, "\"\\/\b\f\n\r\t"[k])
	}
	if c != 'u' {
		d.fail("invalid escape in string")
	}
	r := d.hex4()
	if hi, at := r, d.i; utf16.IsSurrogate(hi) {
		if r = utf8.RuneError; d.eat('\\') && d.eat('u') {
			r = utf16.DecodeRune(hi, d.hex4())
		}
		if r == utf8.RuneError {
			d.i = at // no other half: what follows stands for itself
		}
	}
	return utf8.AppendRune(buf, r)
}

// hex4 scans the four hex digits of a \u escape.
func (d *decoder) hex4() rune {
	n, err := strconv.ParseUint(string(d.b[d.i:min(d.i+4, len(d.b))]), 16, 16)
	if err != nil || d.i+4 > len(d.b) {
		d.fail("invalid \\u escape in string")
	}
	d.i += 4
	return rune(n)
}
