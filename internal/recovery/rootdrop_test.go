package recovery_test

import (
	"math"
	"testing"

	"repro/internal/layout"
	"repro/internal/obs"
	"repro/internal/recovery"
	"repro/internal/shm"
)

// frees is what client c has freed: blocks plus huge objects.
func frees(c *shm.Client) uint64 {
	return c.Count(obs.CtrFree) + c.Count(obs.CtrFreeHuge)
}

// The last-reference drop (shm.SweepRootRefSlot) leaves the victim's private
// blocks allocated with count 0 for the same pass's segment scan to free. The
// pass is cut before each of its writes — the drop's CAS and slot clear and
// the scan's frees among them — and a fresh service finishes it: every block
// the victim held must then be freed exactly once. The victim holds one of
// each kind of root: a private plain block and a private parent whose embed
// holds a private child (both dropped), a block shared with a survivor and a
// huge object (both released by era transaction, as is the child, by the
// parent's cascade).
func TestRootDropCrashAtEveryRecoveryWrite(t *testing.T) {
	const objects = 5 // plain, parent, child, shared, huge
	const releases = 3
	eachWrite(t, func(t *testing.T, f *fault) {
		p := newTestPool(t, f.hook())
		defer p.CloseDevice()
		victim, survivor := connect(t, p), connect(t, p)
		svc, err := recovery.NewService(p)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := victim.Malloc(64, 0); err != nil {
			t.Fatal(err)
		}
		childRoot, child, err := victim.Malloc(48, 0)
		if err != nil {
			t.Fatal(err)
		}
		_, parent, err := victim.Malloc(64, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := victim.SetEmbed(parent, 0, child); err != nil {
			t.Fatal(err)
		}
		if _, err := victim.ReleaseRoot(childRoot); err != nil {
			t.Fatal(err)
		}
		_, shared, err := victim.Malloc(32, 0)
		if err != nil {
			t.Fatal(err)
		}
		sharedRoot, err := survivor.AttachRoot(shared)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := victim.Malloc(100<<10, 0); err != nil {
			t.Fatal(err)
		}
		if err := p.MarkClientDead(victim.ID()); err != nil {
			t.Fatal(err)
		}

		exec := svc.Executor()
		eraAddr := p.Geometry().EraAddr(exec.ID(), exec.ID())
		era0 := p.Device().Load(eraAddr)
		before, cut := frees(survivor)+frees(exec), uint64(0)
		var rep recovery.Report
		if f.crash(-1, func() { rep, err = svc.RecoverClient(victim.ID()) }) != nil {
			// The pass died: count what its executor freed before that, fence
			// and recover the executor, and let a fresh service finish.
			cut = frees(exec)
			if err := p.MarkClientDead(exec.ID()); err != nil {
				t.Fatal(err)
			}
			if svc, err = recovery.NewService(p); err != nil {
				t.Fatal(err)
			}
			if _, err := svc.RecoverClient(exec.ID()); err != nil {
				t.Fatalf("recover the executor: %v", err)
			}
			if p.ClientStatus(victim.ID()) == layout.ClientDead {
				if _, err := svc.RecoverClient(victim.ID()); err != nil {
					t.Fatalf("re-recover the victim: %v", err)
				}
			}
		} else if err != nil {
			t.Fatal(err)
		} else if bumps := p.Device().Load(eraAddr) - era0; bumps != releases {
			t.Fatalf("the pass bumped the executor's era %d times, want %d (the shared block, "+
				"the huge object and the embedded child); report %+v", bumps, releases, rep)
		}

		if objFreed, err := survivor.ReleaseRoot(sharedRoot); err != nil || !objFreed {
			t.Fatalf("survivor ReleaseRoot: freed=%v err=%v", objFreed, err)
		}
		mon := recovery.NewMonitor(svc, recovery.MonitorConfig{Threshold: math.MaxInt32})
		for i := 0; i < 4; i++ {
			mon.Tick()
		}
		freed := frees(survivor) + frees(svc.Executor()) + cut - before
		res := mustClean(t, p, "root drop")
		if res.AllocatedObjects != 0 {
			t.Fatalf("%d objects left allocated", res.AllocatedObjects)
		}
		if freed != objects {
			t.Fatalf("%d frees of the victim's %d objects, want each freed exactly once", freed, objects)
		}
	})
}

// A free that erases a block header erases its (lcid, lera) pair, and that
// pair may be another dead client's only evidence of a commit: here a peer
// dies inside its release of a block the victim also held, at every write of
// it. The victim is recovered first, and the block goes — dropped with the
// victim's root by the sweep's CAS (the victim still held it, so the peer's
// release took the count to 1) or freed by the scan (the victim had released
// its own root, so the peer's took it to 0) — and its segment with it; a
// third client allocates the segment again. When the peer's recovery runs,
// the commit it must find is witnessed by Condition 2 alone, the executor
// having observed the pair before erasing it; without that, the replay is
// skipped and the peer's root sweep releases the third client's new block.
//
// The owner-drop leg is the live owner's twin of root-drop: the peer's cut
// release leaves the owner the last reference, the owner drops it
// (ReleaseRoot's owner's drop: witness, header CAS to 0, free) and reuses the
// block, and only then is the peer recovered.
func TestFreeWitnessesTheHeaderItErases(t *testing.T) {
	for _, tc := range []struct {
		name  string
		story func(t *testing.T, f *fault)
	}{
		{"root-drop", func(t *testing.T, f *fault) { witnessStory(t, f, true) }},
		{"scan-free", func(t *testing.T, f *fault) { witnessStory(t, f, false) }},
		{"owner-drop", ownerDropWitnessStory},
	} {
		t.Run(tc.name, func(t *testing.T) { eachWrite(t, tc.story) })
	}
}

func witnessStory(t *testing.T, f *fault, victimKeeps bool) {
	p := newTestPool(t, f.hook())
	defer p.CloseDevice()
	victim, peer := connect(t, p), connect(t, p)
	svc, err := recovery.NewService(p)
	if err != nil {
		t.Fatal(err)
	}
	victimRoot, block, err := victim.Malloc(64, 0)
	if err != nil {
		t.Fatal(err)
	}
	root, err := peer.AttachRoot(block)
	if err != nil {
		t.Fatal(err)
	}
	if !victimKeeps {
		if _, err := victim.ReleaseRoot(victimRoot); err != nil {
			t.Fatal(err)
		}
	}
	f.crash(peer.ID(), func() { _, _ = peer.ReleaseRoot(root) })
	for _, c := range []*shm.Client{victim, peer} {
		if err := p.MarkClientDead(c.ID()); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := svc.RecoverClient(victim.ID()); err != nil {
		t.Fatal(err)
	}
	third := connect(t, p)
	var roots []layout.Addr
	for reused := false; !reused && len(roots) < 64; {
		r, b, err := third.Malloc(64, 0)
		if err != nil {
			t.Fatal(err)
		}
		roots, reused = append(roots, r), b == block
	}
	if _, err := svc.RecoverClient(peer.ID()); err != nil {
		t.Fatal(err)
	}
	for _, r := range roots {
		if objFreed, err := third.ReleaseRoot(r); err != nil || !objFreed {
			t.Fatalf("third client's ReleaseRoot: freed=%v err=%v", objFreed, err)
		}
	}
	if res := mustClean(t, p, "witnessed"); res.AllocatedObjects != 0 {
		t.Fatalf("%d objects left allocated", res.AllocatedObjects)
	}
}

func ownerDropWitnessStory(t *testing.T, f *fault) {
	p := newTestPool(t, f.hook())
	defer p.CloseDevice()
	owner, peer := connect(t, p), connect(t, p)
	svc, err := recovery.NewService(p)
	if err != nil {
		t.Fatal(err)
	}
	ownerRoot, block, err := owner.Malloc(64, 0)
	if err != nil {
		t.Fatal(err)
	}
	peerRoot, err := peer.AttachRoot(block)
	if err != nil {
		t.Fatal(err)
	}
	f.crash(peer.ID(), func() { _, _ = peer.ReleaseRoot(peerRoot) })
	if err := p.MarkClientDead(peer.ID()); err != nil {
		t.Fatal(err)
	}
	// The owner's release drops the block when the peer's CAS took, and
	// is an era release that leaves it to the peer's root otherwise.
	if _, err := owner.ReleaseRoot(ownerRoot); err != nil {
		t.Fatalf("owner's ReleaseRoot: %v", err)
	}
	var roots []layout.Addr
	for reused := false; !reused && len(roots) < 64; {
		r, b, err := owner.Malloc(64, 0)
		if err != nil {
			t.Fatal(err)
		}
		roots, reused = append(roots, r), b == block
	}
	if _, err := svc.RecoverClient(peer.ID()); err != nil {
		t.Fatal(err)
	}
	for _, r := range roots {
		if objFreed, err := owner.ReleaseRoot(r); err != nil || !objFreed {
			t.Fatalf("owner's ReleaseRoot of a reused block: freed=%v err=%v", objFreed, err)
		}
	}
	if res := mustClean(t, p, "owner drop witnessed"); res.AllocatedObjects != 0 {
		t.Fatalf("%d objects left allocated", res.AllocatedObjects)
	}
}

// The owner's drop (ReleaseRoot of the last reference to a block in one of
// the releaser's own pages) writes no redo entry and bumps no era: the header
// CAS to 0, the free, the slot clear. The owner dies before each of its
// writes, and its recovery must free every block it held exactly once. Every
// cut leaves a state the recovery pass's own root drop produces: before the
// CAS, the root sweep drops the block; after it, the sweep clears the slot
// over a count-0 block (lcid 0 reads as dead) and the segment scan frees it.
// The legs: a plain block; a parent whose embed holds a private child (the
// drop cascades, with the child's release logged); and a block first sent
// to, received by and released by a peer, whose (lcid, lera) the drop
// witnesses.
func TestOwnerDropCrashAtEveryWrite(t *testing.T) {
	for _, tc := range []struct {
		name    string
		objects int
		// setup gives the owner the root whose release is cut.
		setup func(t *testing.T, owner, peer *shm.Client) layout.Addr
	}{
		{"plain", 1, func(t *testing.T, owner, _ *shm.Client) layout.Addr {
			root, _, err := owner.Malloc(64, 0)
			if err != nil {
				t.Fatal(err)
			}
			return root
		}},
		{"embed", 2, func(t *testing.T, owner, _ *shm.Client) layout.Addr {
			childRoot, child, err := owner.Malloc(48, 0)
			if err != nil {
				t.Fatal(err)
			}
			root, parent, err := owner.Malloc(64, 1)
			if err != nil {
				t.Fatal(err)
			}
			if err := owner.SetEmbed(parent, 0, child); err != nil {
				t.Fatal(err)
			}
			if _, err := owner.ReleaseRoot(childRoot); err != nil {
				t.Fatal(err)
			}
			return root
		}},
		{"sent", 1, func(t *testing.T, owner, peer *shm.Client) layout.Addr {
			root, block, err := owner.Malloc(64, 0)
			if err != nil {
				t.Fatal(err)
			}
			qRoot, q, err := owner.CreateQueue(peer.ID(), 4)
			if err != nil {
				t.Fatal(err)
			}
			peerQ, err := peer.OpenQueue(q)
			if err != nil {
				t.Fatal(err)
			}
			if err := owner.Send(q, block); err != nil {
				t.Fatal(err)
			}
			got, _, err := peer.Receive(q)
			if err != nil {
				t.Fatal(err)
			}
			// The peer's release of the block comes last, so that the pair
			// it leaves in the header is one the owner has yet to witness.
			for _, r := range []struct {
				c    *shm.Client
				root layout.Addr
			}{{peer, peerQ}, {owner, qRoot}, {peer, got}} {
				if _, err := r.c.ReleaseRoot(r.root); err != nil {
					t.Fatal(err)
				}
			}
			return root
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eachWrite(t, func(t *testing.T, f *fault) {
				p := newTestPool(t, f.hook())
				defer p.CloseDevice()
				owner, peer := connect(t, p), connect(t, p)
				svc, err := recovery.NewService(p)
				if err != nil {
					t.Fatal(err)
				}
				root := tc.setup(t, owner, peer)
				survivors := func() uint64 { return frees(peer) + frees(svc.Executor()) }
				before := frees(owner) + survivors()
				f.crash(owner.ID(), func() { _, _ = owner.ReleaseRoot(root) })
				// Read before the owner is fenced: a fenced client publishes
				// no counters.
				cut := frees(owner)
				if err := p.MarkClientDead(owner.ID()); err != nil {
					t.Fatal(err)
				}
				if _, err := svc.RecoverClient(owner.ID()); err != nil {
					t.Fatalf("recover the owner: %v", err)
				}
				mon := recovery.NewMonitor(svc, recovery.MonitorConfig{Threshold: math.MaxInt32})
				for i := 0; i < 4; i++ {
					mon.Tick()
				}
				res := mustClean(t, p, "owner drop")
				if res.AllocatedObjects != 0 {
					t.Fatalf("%d objects left allocated", res.AllocatedObjects)
				}
				if freed := cut + survivors() - before; freed != uint64(tc.objects) {
					t.Fatalf("%d frees of the owner's %d objects, want each freed exactly once", freed, tc.objects)
				}
			})
		})
	}
}
