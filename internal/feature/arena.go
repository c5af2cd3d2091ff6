package feature

import (
	"costest/internal/plan"
	"costest/internal/slab"
)

// Arena is the storage EncodeAll builds one request's encoded plans in:
// feature vectors, nodes, predicate nodes, plans and level lists each come off
// a slab, and the sub-plan ID table that lets a request encode each distinct
// sub-plan once lives beside them. A serving goroutine keeps one Arena per
// request in flight and hands it to EncodeAll again for the next request, by
// which time it allocates nothing. The zero value is ready to use.
//
// Nothing built in an Arena may be kept past its next EncodeAll, and no
// component does: every reader of a request's plans is done when the request
// returns.
type Arena struct {
	floats slab.Slab[float64]
	nodes  slab.Slab[EncodedNode]
	preds  slab.Slab[PredNode]
	plans  slab.Slab[EncodedPlan]
	levels slab.Slab[[]int32]
	ints   slab.Slab[int32] // per plan: node heights, level starts, level members

	eps     []*EncodedPlan // the plans of this request, in order
	heights [][]int32      // heights[p][i]: height of node i of plan p
	ids     []plan.ID      // the current plan's subtree IDs (pre-order)
	// seen maps a subtree ID to its first encoding in this request.
	seen map[plan.ID]subtree

	// Nodes and Shared count the last EncodeAll: plan nodes in the request,
	// and how many of them were copies of an earlier subtree.
	Nodes, Shared int
}

// subtree locates an encoded subtree: nodes [at, at+nodes) of plan number
// plan (pre-order keeps a subtree contiguous).
type subtree struct{ plan, at, nodes int32 }

// reset recycles everything the last EncodeAll built.
//
// costlint:noalloc
func (a *Arena) reset() {
	a.floats.Reset()
	a.nodes.Reset()
	a.preds.Reset()
	a.plans.Reset()
	a.levels.Reset()
	a.ints.Reset()
	a.eps, a.heights = a.eps[:0], a.heights[:0]
	clear(a.seen)
	a.Nodes, a.Shared = 0, 0
}

// reserve sizes a fresh arena for exactly one plan of the given depth.
func (a *Arena) reserve(sz planSize, depth int) {
	a.floats.Reserve(sz.floats)
	a.nodes.Reserve(sz.nodes)
	a.preds.Reserve(sz.preds)
	a.plans.Reserve(1)
	a.levels.Reserve(depth)
	a.ints.Reserve(2*sz.nodes + depth + 1)
	a.eps = make([]*EncodedPlan, 0, 1)
	a.heights = make([][]int32, 0, 1)
	a.ids = make([]plan.ID, 0, sz.nodes)
	a.seen = make(map[plan.ID]subtree, sz.nodes)
}

// Bytes is the memory the arena keeps across EncodeAll calls: its slabs. (The
// ID table and the per-plan index slices grow with them and stay small
// beside them — a table entry stands for a node, and a node's vectors are
// about a kilobyte.)
func (a *Arena) Bytes() int {
	return a.floats.Bytes() + a.nodes.Bytes() + a.preds.Bytes() + a.plans.Bytes() + a.levels.Bytes() + a.ints.Bytes()
}

// buildLevels groups ep's nodes by height above the leaves so the batch
// runtime can run whole levels at once (Section 4.3's width-first encoding).
// Within a level nodes keep their pre-order; all levels share one backing
// array.
func (a *Arena) buildLevels(ep *EncodedPlan, heights []int32) {
	// starts[h+1] first counts level h, then (prefix-summed) is where level
	// h+1 begins in the flat array.
	depth := int(heights[ep.Root]) + 1
	starts := a.ints.Carve(depth + 1)
	for _, h := range heights {
		starts[h+1]++
	}
	for h := 1; h < len(starts); h++ {
		starts[h] += starts[h-1]
	}
	flat := a.ints.Carve(len(heights))
	ep.Levels = a.levels.Carve(depth)
	for h := range ep.Levels {
		ep.Levels[h] = flat[starts[h]:starts[h]:starts[h+1]]
	}
	for i, h := range heights {
		ep.Levels[h] = append(ep.Levels[h], int32(i))
	}
}
