package shm_test

// Property-based testing of the era-based reference counting: random
// operation sequences are mirrored against a trivial in-Go reference model;
// after every sequence the device counts must equal the model's and the
// whole-pool validator must be clean.

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/check"
	"repro/internal/layout"
	"repro/internal/obs"
	"repro/internal/shm"
)

// refModel tracks what the reference counts ought to be.
type refModel struct {
	// counts[block] = number of counted references the model expects.
	counts map[layout.Addr]int
}

func TestQuickRefcountModel(t *testing.T) {
	f := func(seed int64) bool {
		return runModelSequence(t, seed, 120)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// runModelSequence performs ops random operations and cross-checks.
func runModelSequence(t *testing.T, seed int64, ops int) bool {
	t.Helper()
	p := newTestPool(t)
	c := connect(t, p)
	rng := rand.New(rand.NewSource(seed))
	model := refModel{counts: map[layout.Addr]int{}}

	type obj struct {
		block layout.Addr
		roots []layout.Addr // counted references we hold (RootRefs)
	}
	var objs []*obj

	alive := func() []*obj {
		var out []*obj
		for _, o := range objs {
			if len(o.roots) > 0 {
				out = append(out, o)
			}
		}
		return out
	}

	for i := 0; i < ops; i++ {
		switch rng.Intn(4) {
		case 0, 1: // allocate
			root, block, err := c.Malloc(16+rng.Intn(100), 0)
			if err != nil {
				t.Logf("seed %d op %d: malloc: %v", seed, i, err)
				return false
			}
			objs = append(objs, &obj{block: block, roots: []layout.Addr{root}})
			model.counts[block] = 1
		case 2: // attach another counted reference to a live object
			live := alive()
			if len(live) == 0 {
				continue
			}
			o := live[rng.Intn(len(live))]
			root, err := c.AttachRoot(o.block)
			if err != nil {
				t.Logf("seed %d op %d: attach: %v", seed, i, err)
				return false
			}
			o.roots = append(o.roots, root)
			model.counts[o.block]++
		case 3: // release one reference
			live := alive()
			if len(live) == 0 {
				continue
			}
			o := live[rng.Intn(len(live))]
			k := rng.Intn(len(o.roots))
			root := o.roots[k]
			o.roots = append(o.roots[:k], o.roots[k+1:]...)
			freed, err := c.ReleaseRoot(root)
			if err != nil {
				t.Logf("seed %d op %d: release: %v", seed, i, err)
				return false
			}
			model.counts[o.block]--
			if (model.counts[o.block] == 0) != freed {
				t.Logf("seed %d op %d: freed=%v but model count=%d",
					seed, i, freed, model.counts[o.block])
				return false
			}
		}
	}

	// Cross-check every live object's device count against the model.
	for _, o := range objs {
		want := model.counts[o.block]
		if want == 0 {
			continue // freed; the block may be reused by now
		}
		if got := int(c.HeaderOf(o.block).RefCnt); got != want {
			t.Logf("seed %d: block %#x ref_cnt=%d, model=%d", seed, o.block, got, want)
			return false
		}
	}
	// Release the rest and demand a pristine pool.
	for _, o := range objs {
		for _, r := range o.roots {
			if _, err := c.ReleaseRoot(r); err != nil {
				t.Logf("seed %d: final release: %v", seed, err)
				return false
			}
		}
	}
	res := check.Validate(p)
	if !res.Clean() || res.AllocatedObjects != 0 {
		for _, is := range res.Issues {
			t.Logf("seed %d: %s", seed, is)
		}
		t.Logf("seed %d: %d objects left", seed, res.AllocatedObjects)
		return false
	}
	return true
}

// TestQuickEmbedGraphModel builds random forests with embedded references
// and verifies the cascade frees exactly the unreachable part.
func TestQuickEmbedGraphModel(t *testing.T) {
	f := func(seed int64) bool {
		p := newTestPool(t)
		c := connect(t, p)
		rng := rand.New(rand.NewSource(seed))

		// Build a random chain-forest: every node may link to one
		// previously created node (acyclic by construction).
		type node struct {
			block layout.Addr
			root  layout.Addr
		}
		var nodes []node
		for i := 0; i < 20; i++ {
			root, block, err := c.Malloc(24, 1)
			if err != nil {
				return false
			}
			if len(nodes) > 0 && rng.Intn(2) == 0 {
				target := nodes[rng.Intn(len(nodes))]
				if err := c.SetEmbed(block, 0, target.block); err != nil {
					return false
				}
			}
			nodes = append(nodes, node{block: block, root: root})
		}
		// Drop all direct roots in random order; cascades must reclaim
		// everything exactly once.
		perm := rng.Perm(len(nodes))
		for _, k := range perm {
			if _, err := c.ReleaseRoot(nodes[k].root); err != nil {
				return false
			}
		}
		res := check.Validate(p)
		if !res.Clean() || res.AllocatedObjects != 0 {
			for _, is := range res.Issues {
				t.Logf("seed %d: %s", seed, is)
			}
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestOwnerSlowPathClearsLeakFlag verifies the §5.3 periodic duty: a
// POTENTIAL_LEAKING flag on an owned segment is noticed and cleared by the
// owner's next allocation slow path.
func TestOwnerSlowPathClearsLeakFlag(t *testing.T) {
	p := newTestPool(t)
	c := connect(t, p)
	// Claim a segment by allocating.
	if _, _, err := c.Malloc(64, 0); err != nil {
		t.Fatal(err)
	}
	p.FlagSegmentLeaking(0)
	if p.SegState(0).Flags&layout.SegFlagPotentialLeaking == 0 {
		t.Fatal("flag not set")
	}
	// Allocate enough variety to force the page-claim slow path.
	for _, sz := range []int{16, 100, 300, 700, 1500, 3000} {
		if _, _, err := c.Malloc(sz, 0); err != nil {
			t.Fatal(err)
		}
	}
	if p.SegState(0).Flags&layout.SegFlagPotentialLeaking != 0 {
		t.Fatal("owner's slow path did not clear the leak flag")
	}
}

// TestQueueWraparound cycles a small queue many times past its capacity to
// exercise the absolute head/tail counters and slot reuse: references come
// out in FIFO order, and a run without crashes meets no stale slot.
func TestQueueWraparound(t *testing.T) {
	p := newTestPool(t)
	s := connect(t, p)
	r := connect(t, p)
	sRoot, q, err := s.CreateQueue(r.ID(), 3)
	if err != nil {
		t.Fatal(err)
	}
	rRoot, err := r.OpenQueue(q)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 50; round++ {
		// Fill partially, drain fully, at varying occupancy.
		n := 1 + round%3
		var roots []layout.Addr
		for i := 0; i < n; i++ {
			root, block, err := s.Malloc(16, 0)
			if err != nil {
				t.Fatal(err)
			}
			s.StoreWord(block, 0, uint64(round*10+i))
			if err := s.Send(q, block); err != nil {
				t.Fatalf("round %d send %d: %v", round, i, err)
			}
			roots = append(roots, root)
		}
		for i := 0; i < n; i++ {
			root, block, err := r.Receive(q)
			if err != nil {
				t.Fatalf("round %d recv %d: %v", round, i, err)
			}
			if got := r.LoadWord(block, 0); got != uint64(round*10+i) {
				t.Fatalf("round %d: payload %d, want %d", round, got, round*10+i)
			}
			if _, err := r.ReleaseRoot(root); err != nil {
				t.Fatal(err)
			}
		}
		for _, root := range roots {
			if _, err := s.ReleaseRoot(root); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, c := range []*shm.Client{s, r} {
		if n := c.Count(obs.CtrQueueStaleSlot); n != 0 {
			t.Fatalf("client %d counted %d stale slots in a clean run", c.ID(), n)
		}
	}
	if _, err := s.ReleaseRoot(sRoot); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReleaseRoot(rRoot); err != nil {
		t.Fatal(err)
	}
	p.SweepQueueRegistry()
	res := mustValidate(t, p)
	if res.AllocatedObjects != 0 {
		t.Fatalf("%d objects leaked across wraparound", res.AllocatedObjects)
	}
}
