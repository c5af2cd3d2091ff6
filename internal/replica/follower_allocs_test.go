package replica

import (
	"testing"

	"costest/internal/core"
)

// TestFollowerApplyPublishAllocs pins the follower's warm apply→PublishDelta
// round trip — applyFrame: payload decode, dirty-stamp, delta republish
// labeled by the follower's publish hook — at the delta publisher's constant
// snapshot-header cost, with nothing proportional to model size or payload
// length. The `costlint:noalloc` annotation on applyFrame is this test's
// static cross-check: the test proves the callees' amortized steady state,
// the analyzer proves the body itself can never grow a new allocation site.
func TestFollowerApplyPublishAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the contract is enforced in the non-race pass")
	}
	primary := core.New(core.TestConfig(), testEnc)
	model := core.New(core.TestConfig(), testEnc)
	f := NewMember(MemberConfig{
		Peers:  []string{"unused:0"},
		Rank:   -1,
		Server: core.NewServer(model, core.NewBoundedMemoryPool(testPoolBound)),
		Model:  model,
	}).fol
	f.m.cfg.Server.SetPublishHook(f.label) // as run registers it

	idx := []int{0, 2, 4}
	gen := uint64(1)
	var payload []byte
	apply := func() {
		payload = core.AppendModelPayload(payload[:0], primary, idx)
		fm := Frame{Type: FrameDelta, Epoch: 1, Gen: gen, Prev: gen - 1, Payload: payload}
		if err := f.applyFrame(fm, false); err != nil {
			t.Fatalf("applyFrame: %v", err)
		}
		gen++
	}
	// Warm until every amortized structure reaches its high-water mark: the
	// touched scratch and the delta publisher's double buffers.
	for i := 0; i < 8; i++ {
		apply()
	}
	avg := testing.AllocsPerRun(200, apply)
	// PublishDelta allocates exactly one constant-size ModelSnapshot header
	// per publication; everything else — frame decode, parameter writes,
	// labeling, buffer re-sync — must not touch the allocator.
	if avg > 1 {
		t.Errorf("apply→PublishDelta round trip allocates %.1f allocs/op, want <= 1 (the snapshot header)", avg)
	}
}
