package recovery_test

// The strongest randomized campaign: two clients run symmetric random
// workloads (allocate, clone, link, change, release, exchange over queues)
// with *independent* crash injectors — each actor is set to die before a
// random one of its own device writes, the index drawn from its own seeded
// rng after a counting pass. An actor's path changes once its peer is gone,
// so the second index is drawn over the writes that actor issues given the
// first death; either or both may die. After recovering whoever died and
// releasing whatever the survivors still hold, the pool must validate with
// zero objects.

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/check"
	"repro/internal/cxl"
	"repro/internal/faultinject"
	"repro/internal/layout"
	"repro/internal/recovery"
	"repro/internal/shm"
)

// randomActor performs random operations until its script ends or it
// crashes. All state it tracks is local (lost on crash, like a real
// process).
type randomActor struct {
	c     *shm.Client
	rng   *rand.Rand
	roots []layout.Addr
	// sendQ/recvQ are the actor's queue endpoints (block addresses).
	sendQ, recvQ layout.Addr
	crashed      bool
	// links counts the embed links attempted, received those of them into
	// an object the peer allocated.
	links, received int
}

func (a *randomActor) step(t *testing.T) error {
	switch a.rng.Intn(10) {
	case 0, 1, 2: // allocate (sometimes with embeds)
		embeds := 0
		if a.rng.Intn(3) == 0 {
			embeds = 1 + a.rng.Intn(2)
		}
		root, _, err := a.c.Malloc(16+a.rng.Intn(120), embeds)
		if err != nil {
			return err
		}
		a.roots = append(a.roots, root)
	case 3, 4: // release something
		if len(a.roots) == 0 {
			return nil
		}
		k := a.rng.Intn(len(a.roots))
		root := a.roots[k]
		a.roots = append(a.roots[:k], a.roots[k+1:]...)
		if _, err := a.c.ReleaseRoot(root); err != nil {
			return err
		}
	case 5: // clone
		if len(a.roots) == 0 {
			return nil
		}
		root := a.roots[a.rng.Intn(len(a.roots))]
		a.c.CloneRoot(root)
		a.roots = append(a.roots, root)
	case 6: // link an embed of one held object to another held object
		if len(a.roots) < 2 {
			return nil
		}
		holder := a.c.RootTarget(a.roots[a.rng.Intn(len(a.roots))])
		target := a.c.RootTarget(a.roots[a.rng.Intn(len(a.roots))])
		if holder == 0 || target == 0 || holder == target {
			return nil
		}
		m := a.c.MetaOf(holder)
		if m.EmbedCnt == 0 {
			return nil
		}
		// Only link to leaf objects (no embeds of their own): reference
		// counting cannot reclaim cycles — the paper's RC limitation, not a
		// defect under test — so the random graph must stay acyclic.
		if a.c.MetaOf(target).EmbedCnt != 0 {
			return nil
		}
		idx := a.rng.Intn(int(m.EmbedCnt))
		// "Only one client may ever modify a given embedded reference"
		// (shm.SetEmbed, §4.3), and both actors can hold the same object:
		// a word is its object's allocator's to link or the peer's, by the
		// parity of its address bits. What two writers of one word lose when
		// one of them dies in it is pinned by
		// TestRedoReplayOwnsTheEmbedWordItDiedIn.
		p := a.c.Pool()
		mine := int(p.SegState(p.Geometry().SegmentIndexOf(holder)).CID) == a.c.ID()
		if word := holder + layout.DataOff + layout.Addr(idx); mine != (bits.OnesCount64(word)%2 == 0) {
			return nil
		}
		a.links++
		if !mine {
			a.received++
		}
		if err := a.c.ChangeEmbed(holder, idx, target); err != nil && err != shm.ErrStaleReference {
			return err
		}
	case 7, 8: // send a held reference to the peer
		if a.sendQ == 0 || len(a.roots) == 0 {
			return nil
		}
		root := a.roots[a.rng.Intn(len(a.roots))]
		target := a.c.RootTarget(root)
		if target == 0 {
			return nil
		}
		if err := a.c.Send(a.sendQ, target); err != nil && err != shm.ErrQueueFull {
			return err
		}
	case 9: // receive from the peer
		if a.recvQ == 0 {
			return nil
		}
		root, _, err := a.c.Receive(a.recvQ)
		if err == shm.ErrQueueEmpty {
			return nil
		}
		if err != nil {
			return err
		}
		a.roots = append(a.roots, root)
	}
	return nil
}

// TestDoubleCrashCampaign runs many seeds; in each, both actors may crash.
func TestDoubleCrashCampaign(t *testing.T) {
	trials := 120
	if testing.Short() {
		trials = 20
	}
	crashedTrials, crashedActors, links, received := 0, 0, 0, 0
	for seed := 0; seed < trials; seed++ {
		// Count a's writes, pick its death; count b's writes given that
		// death, pick b's; then run with both armed.
		fs := [2]*fault{newFault(0), newFault(0)}
		actors := runDoubleCrashTrial(t, int64(seed), fs)
		fs[0] = newFault(1 + actors[0].rng.Intn(fs[0].writes))
		actors = runDoubleCrashTrial(t, int64(seed), fs)
		fs = [2]*fault{newFault(fs[0].n), newFault(1 + actors[1].rng.Intn(fs[1].writes))}
		actors = runDoubleCrashTrial(t, int64(seed), fs)
		if actors[0].crashed || actors[1].crashed {
			crashedTrials++
		}
		for _, a := range actors {
			if a.crashed {
				crashedActors++
			}
			links, received = links+a.links, received+a.received
		}
	}
	t.Logf("%d/%d trials crashed at least one actor (%d/%d actors); %d embed links, %d into received objects",
		crashedTrials, trials, crashedActors, 2*trials, links, received)
	if crashedTrials != trials {
		t.Fatalf("only %d/%d trials crashed an actor", crashedTrials, trials)
	}
	if received == 0 {
		t.Fatal("no actor linked an embed of an object it had received")
	}
}

// runDoubleCrashTrial runs one seeded story with actor i under fs[i] and
// returns the actors (their rngs positioned after the workload).
func runDoubleCrashTrial(t *testing.T, seed int64, fs [2]*fault) []*randomActor {
	t.Helper()
	p, err := shm.NewPool(shm.Config{
		Geometry: layout.GeometryConfig{
			MaxClients: 8, NumSegments: 32, SegmentWords: 1 << 13, PageWords: 1 << 9, MaxQueues: 8,
		},
		Intercept: cxl.Intercept{Access: chain(fs[0].hook(), fs[1].hook())},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.CloseDevice()
	ca := connect(t, p)
	cb := connect(t, p)
	// Wire queues in both directions before arming injectors.
	_, qAB, err := ca.CreateQueue(cb.ID(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cb.OpenQueue(qAB); err != nil {
		t.Fatal(err)
	}
	_, qBA, err := cb.CreateQueue(ca.ID(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ca.OpenQueue(qBA); err != nil {
		t.Fatal(err)
	}

	actors := []*randomActor{
		{c: ca, rng: rand.New(rand.NewSource(seed * 2)), sendQ: qAB, recvQ: qBA},
		{c: cb, rng: rand.New(rand.NewSource(seed*2 + 1)), sendQ: qBA, recvQ: qAB},
	}
	for i, a := range actors {
		fs[i].arm(a.c.ID())
	}

	// Interleave steps deterministically; a crash removes the actor.
	for step := 0; step < 150; step++ {
		for _, a := range actors {
			if a.crashed {
				continue
			}
			crash := faultinject.Run(func() {
				if err := a.step(t); err != nil {
					t.Fatalf("seed %d: actor %d: %v", seed, a.c.ID(), err)
				}
			})
			if crash != nil {
				a.crashed = true
				if err := p.MarkClientDead(a.c.ID()); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			}
		}
	}
	for _, f := range fs {
		f.disarm()
	}

	// Recover the dead; survivors drop everything (queues included — their
	// creation roots are in a.roots? No: queue roots were dropped above...
	// they weren't tracked; release them via the clients' own root pages by
	// just crashing the survivors too and recovering everyone).
	svc, err := recovery.NewService(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range actors {
		if a.crashed {
			if _, err := svc.RecoverClient(a.c.ID()); err != nil {
				t.Fatalf("seed %d: recover %d: %v", seed, a.c.ID(), err)
			}
		}
	}
	// Survivors exit dirty on purpose: recovery must clean them too.
	for _, a := range actors {
		if !a.crashed {
			if err := a.c.Crash(); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if _, err := svc.RecoverClient(a.c.ID()); err != nil {
				t.Fatalf("seed %d: recover survivor %d: %v", seed, a.c.ID(), err)
			}
		}
	}
	mon := recovery.NewMonitor(svc, recovery.MonitorConfig{})
	for i := 0; i < 5; i++ {
		mon.Tick()
	}
	res := check.Validate(p)
	if !res.Clean() || res.AllocatedObjects != 0 {
		for _, is := range res.Issues {
			t.Errorf("seed %d: %s", seed, is)
		}
		t.Fatalf("seed %d: %d objects leaked (crashed: a=%v b=%v)",
			seed, res.AllocatedObjects, actors[0].crashed, actors[1].crashed)
	}
	return actors
}

// Why an actor links only the embed words it is the one writer of. Actor a
// dies between the commit CAS and the ModifyRef of an attach into an embed
// word of an object b also holds. From that death until RecoverClient(a)
// returns, the word's legitimate writer is a's redo entry: the replay stores
// a's target there (ModifyRef is idempotent "under the single-writer rule",
// era.go). A link b makes after the recovery is kept. A link b makes before it
// is a second writer's: the replay overwrites it and b's target keeps a count
// no reference accounts for. That leak is the contract's to prevent, not
// recovery's to repair — the replay cannot tell a survivor's store from the
// dead client's own — and it is the parent's behaviour as much as this one's.
func TestRedoReplayOwnsTheEmbedWordItDiedIn(t *testing.T) {
	for _, tc := range []struct {
		name           string
		beforeRecovery bool
		leaked         int
	}{
		{"the peer links after the recovery", false, 0},
		{"the peer links before the recovery", true, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var word layout.Addr // the embed word a dies before storing to
			var victim int
			p := newTestPool(t, func(cid int, kind cxl.AccessKind, addr cxl.Addr) {
				if word != 0 && cid == victim && kind == cxl.OpStore && addr == word {
					panic(faultinject.Crash{Point: "attach/before-modify-ref"})
				}
			})
			defer p.CloseDevice()
			svc, err := recovery.NewService(p)
			if err != nil {
				t.Fatal(err)
			}
			a, b := connect(t, p), connect(t, p)
			_, holder, err := a.Malloc(64, 1)
			if err != nil {
				t.Fatal(err)
			}
			_, ta, err := a.Malloc(16, 0)
			if err != nil {
				t.Fatal(err)
			}
			rb, err := b.AttachRoot(holder)
			if err != nil {
				t.Fatal(err)
			}
			rtb, tb, err := b.Malloc(16, 0)
			if err != nil {
				t.Fatal(err)
			}

			word, victim = holder+layout.DataOff, a.ID()
			if faultinject.Run(func() { a.ChangeEmbed(holder, 0, ta) }) == nil {
				t.Fatal("a's attach never came to its ModifyRef")
			}
			word = 0
			if err := p.MarkClientDead(a.ID()); err != nil {
				t.Fatal(err)
			}
			recoverA := func() {
				r, err := svc.RecoverClient(a.ID())
				if err != nil || !r.RedoNeeded {
					t.Fatalf("recover a: %+v, %v; want its attach replayed", r, err)
				}
			}
			if !tc.beforeRecovery {
				recoverA()
			}
			if err := b.ChangeEmbed(holder, 0, tb); err != nil {
				t.Fatal(err)
			}
			if tc.beforeRecovery {
				recoverA()
			}

			for _, root := range []layout.Addr{rb, rtb} {
				if _, err := b.ReleaseRoot(root); err != nil {
					t.Fatal(err)
				}
			}
			mon := recovery.NewMonitor(svc, recovery.MonitorConfig{Threshold: math.MaxInt32})
			for i := 0; i < 3; i++ {
				mon.Tick()
			}
			res := check.Validate(p)
			if res.AllocatedObjects != tc.leaked || res.Clean() != (tc.leaked == 0) {
				t.Fatalf("%d objects left, issues %v; want %d", res.AllocatedObjects, res.Issues, tc.leaked)
			}
			if tc.leaked > 0 && (len(res.Issues) != 1 || res.Issues[0].Kind != check.Leak || res.Issues[0].Addr != tb) {
				t.Fatalf("issues %v; want the one leak at b's target %#x", res.Issues, tb)
			}
		})
	}
}
