package serve

import (
	"bytes"
	"cmp"
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

	"costest/internal/feature"
	"costest/internal/plan"
	"costest/internal/schema"
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
// It accepts what encoding/json into WirePlan followed by WirePlan.Decode and
// Encoder.Resolve against s accepts, and builds the same trees, every name's
// id set (null for a member means the member is absent), except that it
// refuses a member name in the wrong case, a member repeated within an
// object, a string that is not valid UTF-8, and anything but whitespace
// after the request object. A tree it accepts encodes. The size bounds
// (MaxPlanNodes, ...) are enforced as the scan goes: an oversized body is
// refused at the first node past a limit, before the rest is read or built.
//
// The trees it returns may share subtrees: a plan node whose bytes repeat, byte
// for byte, a subtree built earlier from the same body is that subtree's
// *plan.Node, not a second copy (see decoder.repeat), and likewise a repeated
// column reference, join condition or aggregate list (decoder.reuse). Within
// one body the plans form a DAG; nothing on the request path writes to a node.
func DecodeEstimate(s *schema.Schema, body []byte) (roots []*plan.Node, timeoutMS int, err error) {
	return new(decoder).decode(s, body)
}

// decode scans one body, resolving its names against s. The trees it returns
// are built in the decoder's slabs and are valid until its next decode.
func (d *decoder) decode(s *schema.Schema, body []byte) (roots []*plan.Node, timeoutMS int, err error) {
	d.reset(s, body)
	if d.seen == nil {
		d.seen = make(map[string]reused)
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
	requestMembers = newNames(false, "plan", "plans", "timeout_ms")
	planMembers    = newNames(false, "op", "table", "index", "filter", "index_cond", "join", "param_join", "sort_keys", "aggs", "left", "right")
	predMembers    = newNames(false, "bool", "left", "right", "atom")
	atomMembers    = newNames(false, "table", "column", "op", "num", "str", "in")
	joinMembers    = newNames(false, "left", "right")
	colMembers     = newNames(false, "table", "column")
	aggMembers     = newNames(false, "func", "col")
)

// decoder is the scan state over one body. Whatever ends the scan — malformed
// JSON, an unknown or repeated member, a value of the wrong type, a bound
// exceeded, a name the schema lacks, a broken per-node rule — unwinds to
// decode as a refused panic. The exception is a rule broken inside a
// predicate tree, which pred and atom return as an error: WirePred.decode
// ignores left/right beside an atom, so whether it counts is only known once
// the enclosing node is read.
//
// Each table, column and index name is resolved as it is read, with one
// lookup in the schema's name table (schema.Lookup) that yields the schema's
// own string and the id, and operator names with one probe of a fixed list;
// the trees and their lists are carved off typed slabs. So a recycled
// decoder allocates only for operand strings, and the encoder reads ids.
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
	s         *schema.Schema

	roots     []*plan.Node
	planNodes slab.Slab[plan.Node]
	atoms     slab.Slab[sqlpred.Atom]
	bools     slab.Slab[sqlpred.Bool]
	joins     slab.Slab[plan.JoinCond]
	cols      slab.Slab[plan.ColRef]
	aggs      slab.Slab[plan.AggSpec]
	strs      slab.Slab[string]
	// colBuf, aggBuf and strBuf collect a list while it is scanned; it is then
	// copied to a carving of its exact length.
	colBuf []plan.ColRef
	aggBuf []plan.AggSpec
	strBuf []string
	// seen are the column references, join conditions and aggregate lists
	// decoded from this body, by their bytes (the keys alias the body, and go
	// with it at reset; see reuse). A cleared map keeps its buckets, so
	// seenMax is the most entries it has held.
	seen    map[string]reused
	seenMax int

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
func (d *decoder) reset(s *schema.Schema, body []byte) {
	d.s, d.b, d.i, d.opened = s, body, 0, false
	clear(d.roots) // drop the pointers, keep the array
	d.roots = d.roots[:0]
	d.planNodes.Reset()
	d.atoms.Reset()
	d.bools.Reset()
	d.joins.Reset()
	d.cols.Reset()
	d.aggs.Reset()
	d.strs.Reset()
	d.seenMax = max(d.seenMax, len(d.seen))
	clear(d.seen)
	d.spans = d.spans[:0]
	d.compared, d.shared = 0, 0
	buckets := max(16, 1<<bits.Len(uint(len(body)/64)))
	d.heads = slices.Grow(d.heads[:0], buckets)[:buckets]
	clear(d.heads)
}

// retained is the memory the decoder keeps between bodies.
func (d *decoder) retained() int {
	return d.planNodes.Bytes() + d.atoms.Bytes() + d.bools.Bytes() + d.joins.Bytes() + d.cols.Bytes() + d.aggs.Bytes() +
		d.strs.Bytes() + 8*cap(d.roots) + int(unsafe.Sizeof(span{}))*cap(d.spans) + 4*cap(d.heads) +
		int(unsafe.Sizeof(plan.ColRef{}))*cap(d.colBuf) + int(unsafe.Sizeof(plan.AggSpec{}))*cap(d.aggBuf) + 16*cap(d.strBuf) +
		128*max(d.seenMax, len(d.seen)) // about an entry's size in the map's buckets
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
	op := -1
	var err error
	var left, right int // the children's heights
	for m := d.object(planMembers); m.next(); {
		switch m.name {
		case "op":
			op, err = lookup(planOps, "operator", d.strBytes())
		case "table":
			n.Table, n.TableID, err = d.named("table", false)
		case "index":
			n.Index, n.IndexID, err = d.named("index", true)
		case "filter":
			d.preds = 0
			n.Filter, err = d.pred()
		case "index_cond":
			n.IndexCond, err = d.atom("index_cond")
		case "join":
			n.JoinCond = d.join("join")
		case "param_join":
			n.ParamJoin = d.join("param_join")
		case "sort_keys":
			keys := d.colBuf[:0]
			for d.open('['); d.more(']'); {
				var c plan.ColRef
				if !d.null() {
					c = d.col("sort_keys", false)
				}
				keys = append(keys, c)
			}
			d.colBuf, n.SortKeys = keys, carveCopy(&d.cols, keys)
		case "aggs":
			if v, ok := d.reuse(']', 1); ok {
				n.Aggs = v.aggs
				break
			}
			start, aggs := d.i, d.aggBuf[:0]
			for d.open('['); d.more(']'); {
				aggs = append(aggs, d.agg())
			}
			d.aggBuf, n.Aggs = aggs, carveCopy(&d.aggs, aggs)
			d.keep(start, reused{aggs: n.Aggs})
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
	if err := feature.CheckScan(d.s, n); err != nil {
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
		kind                             = -1 // the connective's index in boolOps
		left, right                      sqlpred.Pred
		a                                *sqlpred.Atom
		boolErr, leftErr, rightErr, aErr error
	)
	for m := d.object(predMembers); m.next(); {
		switch m.name {
		case "bool":
			if b := d.strBytes(); len(b) > 0 {
				kind, boolErr = lookup(boolOps, "connective", b)
			}
		case "left":
			left, leftErr = d.pred()
		case "right":
			right, rightErr = d.pred()
		case "atom":
			a, aErr = d.atom("filter")
		}
	}
	isAtom, err := predShape(a != nil || aErr != nil, kind >= 0 || boolErr != nil)
	switch {
	case err != nil:
		return nil, err
	case isAtom && aErr != nil:
		return nil, aErr
	case isAtom:
		return a, nil
	case boolErr != nil:
		return nil, boolErr
	case leftErr != nil:
		return nil, leftErr
	case rightErr != nil:
		return nil, rightErr
	case left == nil || right == nil:
		return nil, fmt.Errorf("serve: %s needs two operands", boolOps.list[kind])
	}
	b := d.bools.One()
	b.Kind, b.Left, b.Right = sqlpred.BoolKind(kind), left, right
	return b, nil
}

// atom scans one atomic predicate of the given slot (filter or index_cond).
func (d *decoder) atom(slot string) (*sqlpred.Atom, error) {
	a := d.atoms.One()
	var t, c schema.Name
	var tErr, cErr, opErr error
	op, operands := -1, 0
	for m := d.object(atomMembers); m.next(); {
		switch m.name {
		case "table":
			t, tErr = d.name(slot)
		case "column":
			c, cErr = d.name(slot)
		case "op":
			op, opErr = lookup(atomOps, "predicate operator", d.strBytes())
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
			vals := d.strBuf[:0]
			for d.open('['); d.more(']'); {
				if len(vals) == MaxInValues {
					d.refuse(errInValues)
				}
				v := ""
				if !d.null() {
					v = d.str()
				}
				vals = append(vals, v)
			}
			d.strBuf, a.InVals = vals, carveCopy(&d.strs, vals)
			if len(vals) > 0 { // an empty list is no operand
				a.IsStr = true
				operands++
			}
		}
	}
	a.Table, a.Column = t.Text, c.Text
	if err := cmp.Or(opErr, tErr, cErr, finishAtom(a, op, operands)); err != nil {
		return nil, err
	}
	if a.ColumnID = d.s.ColumnIn(t.Table, c); a.ColumnID == 0 {
		return nil, fmt.Errorf("serve: %s names %s.%s, which is no column", slot, a.Table, a.Column)
	}
	return a, nil
}

// join scans the join condition of the given slot (join or param_join).
func (d *decoder) join(slot string) *plan.JoinCond {
	if v, ok := d.reuse('}', 3); ok {
		return v.join
	}
	start, j := d.i, d.joins.One()
	for m := d.object(joinMembers); m.next(); {
		if m.name == "left" {
			j.Left = d.col(slot, true)
		} else {
			j.Right = d.col(slot, true)
		}
	}
	if j.Left.ColumnID == 0 || j.Right.ColumnID == 0 {
		d.refuse(fmt.Errorf("serve: %s needs a left and a right column", slot))
	}
	d.keep(start, reused{join: j})
	return j
}

// col scans a column reference of the given slot and resolves it. One that
// names nothing is the zero ColRef, refused where the column is needed.
func (d *decoder) col(slot string, needed bool) (ref plan.ColRef) {
	if v, ok := d.reuse('}', 1); ok {
		return v.ref
	}
	start := d.i
	var t, c schema.Name
	for m := d.object(colMembers); m.next(); {
		n, err := d.name(slot)
		if err != nil {
			d.refuse(err)
		}
		if m.name == "table" {
			t = n
		} else {
			c = n
		}
	}
	ref = plan.ColRef{Table: t.Text, Column: c.Text, ColumnID: d.s.ColumnIn(t.Table, c)}
	if ref.ColumnID != 0 {
		d.keep(start, reused{ref: ref})
	} else if needed || ref != (plan.ColRef{}) {
		d.refuse(fmt.Errorf("serve: %s names %s, which is no column", slot, ref))
	}
	return ref
}

func (d *decoder) agg() (spec plan.AggSpec) {
	f, err := -1, errNoFunc
	for m := d.object(aggMembers); m.next(); {
		if m.name == "func" {
			f, err = lookup(aggFuncs, "aggregate", d.strBytes())
		} else {
			spec.Col = d.col("aggs", false)
		}
	}
	if err != nil {
		d.refuse(err)
	}
	spec.Func = plan.AggFunc(f)
	return spec
}

// reused is a value decoded earlier in the body: a column reference, a join
// condition or an aggregate list.
type reused struct {
	ref  plan.ColRef
	join *plan.JoinCond
	aggs []plan.AggSpec
}

// reuse looks up the bytes from the scan position through the n-th close —
// where a column reference, a join condition of two, or an aggregate list
// ends — among the values decoded from this body, and on a hit steps past
// them: bytes that decoded once decode the same wherever they recur, as plan
// spans do. A value of another extent (a close inside a string) cannot match
// a whole earlier value, and is decoded.
func (d *decoder) reuse(close byte, n int) (reused, bool) {
	end := d.i
	for ; n > 0; n-- {
		k := bytes.IndexByte(d.b[end:], close)
		if k < 0 {
			return reused{}, false
		}
		end += k + 1
	}
	v, ok := d.seen[unsafe.String(&d.b[d.i], end-d.i)]
	if ok {
		d.i = end
	}
	return v, ok
}

// keep records v as decoded from the bytes [start, d.i).
func (d *decoder) keep(start int, v reused) { d.seen[unsafe.String(&d.b[start], d.i-start)] = v }

// carveCopy copies a list collected in a decoder buffer to a carving of sl of
// its length; nil for an empty list, as WirePlan.Decode leaves one.
func carveCopy[T any](sl *slab.Slab[T], list []T) []T {
	if len(list) == 0 {
		return nil
	}
	v := sl.Carve(len(list))
	copy(v, list)
	return v
}

// members iterates the members of one JSON object whose names must come from
// a fixed list.
type members struct {
	d     *decoder
	names *names
	name  string // the current member, one of names
	seen  uint   // bit i set once names.list[i] has occurred
}

func (d *decoder) object(names *names) members {
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
		name := d.strBytes()
		k := find(m.names, name)
		if k < 0 {
			d.fail("unknown member %q", name)
		}
		if m.seen&(1<<k) != 0 {
			d.fail("member %q repeated", name)
		}
		m.seen |= 1 << k
		m.name = m.names.list[k]
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
	b, i := d.b, d.i
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\r' || b[i] == '\n') {
		i++
	}
	d.i = i
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

// named scans the name of a table, or of an index, in the given slot: the
// schema's text and 1 + the id.
func (d *decoder) named(slot string, index bool) (string, int32, error) {
	n, err := d.name(slot)
	id := n.Table
	if index {
		id = n.Index
	}
	if err == nil && id == 0 && n.Text != "" {
		err = fmt.Errorf("serve: %s names %q, which is no %s", slot, n.Text, slot)
	}
	return n.Text, id, err
}

// name scans a string that names a table, column or index of the given slot
// and returns its entry in the schema's name table: the zero Name for "", and
// an error for a name no table, column or index has.
func (d *decoder) name(slot string) (schema.Name, error) {
	b := d.strBytes()
	n := schema.Lookup(d.s, b)
	if n.Text == "" && len(b) > 0 {
		return n, fmt.Errorf("serve: %s names %q, which the schema lacks", slot, b)
	}
	return n, nil
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
	b, start, i := d.b, d.i, d.i // locals: the scan stays in registers
	for ; i < len(b); i++ {
		if c := b[i]; c == '"' {
			d.i = i + 1
			return b[start:i]
		} else if c < ' ' || c == '\\' || c >= utf8.RuneSelf {
			break
		}
	}
	d.i = i
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
