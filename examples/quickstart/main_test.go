package main

import (
	"io"
	"testing"
)

// TestQuickstartCostHeadLearns trains the walkthrough's model and checks that
// its cost head learns: the validation cost estimates differ from plan to
// plan, and the validation cost q-error falls from the first epoch to the
// last. A cost floor above the cheap plans' true costs breaks both — the head
// collapses to one value and its q-error stays flat.
func TestQuickstartCostHeadLearns(t *testing.T) {
	wt := train(io.Discard)
	distinct := map[float64]bool{}
	for _, e := range wt.model.EstimateBatch(wt.valid) {
		distinct[e.Cost] = true
	}
	if len(distinct) < 2 {
		t.Fatalf("all %d validation plans get the same cost estimate", len(wt.valid))
	}
	first, last := wt.hist[0].ValidCost, wt.hist[len(wt.hist)-1].ValidCost
	if last >= first {
		t.Fatalf("validation cost q-error did not fall: epoch 0 %.3f, epoch %d %.3f", first, len(wt.hist)-1, last)
	}
}
