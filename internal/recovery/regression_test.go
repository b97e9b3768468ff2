package recovery_test

// Regression tests for the bugs the access-granular sweep (internal/sweep)
// shook out. Each test crashes the victim before every device write of the
// small operation that exposed the bug (eachWrite), so it fails on pre-fix
// code, names the write index, and keeps working when a write is added.

import (
	"testing"

	"repro/internal/cxl"
	"repro/internal/layout"
	"repro/internal/recovery"
	"repro/internal/shm"
)

// A sender that crashes between the slot attach and the tail publication
// leaves an orphaned reference at the (unmoved) tail position. The next
// sender reusing the ring must reclaim it; overwriting the slot word leaks
// the orphan's target permanently. Found by `faultsim -repro "op=send
// access=18"`.
func TestQueueOrphanSlotReuse(t *testing.T) { eachWrite(t, orphanSlotStory) }

func orphanSlotStory(t *testing.T, f *fault) {
	p := newTestPool(t, f.hook())
	defer p.CloseDevice()
	x := connect(t, p)
	o := connect(t, p)
	svc, err := recovery.NewService(p)
	if err != nil {
		t.Fatal(err)
	}
	_, q, err := x.CreateQueue(o.ID(), 4)
	if err != nil {
		t.Fatal(err)
	}
	oq, err := o.OpenQueue(q)
	if err != nil {
		t.Fatal(err)
	}

	f.crash(x.ID(), func() {
		_, b, err := x.Malloc(64, 0)
		if err != nil {
			t.Error(err)
			return
		}
		if err := x.Send(q, b); err != nil {
			t.Error(err)
		}
	})
	if err := p.MarkClientDead(x.ID()); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.RecoverClient(x.ID()); err != nil {
		t.Fatal(err)
	}

	// A new sender incarnation fills the whole ring — if x died between
	// attach and tail publication its first send lands on the orphaned
	// slot, if x's send completed the ring holds one message already —
	// and the receiver drains it.
	n := connect(t, p)
	for i := 0; i < 4; i++ {
		r, b, err := n.Malloc(64, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Send(q, b); err != nil && err != shm.ErrQueueFull {
			t.Fatal(err)
		}
		if _, err := n.ReleaseRoot(r); err != nil {
			t.Fatal(err)
		}
	}
	for {
		r, _, err := o.Receive(q)
		if err == shm.ErrQueueEmpty {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if _, err := o.ReleaseRoot(r); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := o.ReleaseRoot(oq); err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}
	mon := recovery.NewMonitor(svc, recovery.MonitorConfig{})
	for i := 0; i < 6; i++ {
		mon.Tick()
	}
	res := mustClean(t, p, "orphan slot reuse")
	if res.AllocatedObjects != 0 {
		t.Fatalf("%d objects leaked (orphaned queue slot overwritten?)", res.AllocatedObjects)
	}
}

// Freed huge-object segments must have their base header/meta words zeroed:
// if old payload at a recycled segment's base spells out a plausible
// committed header, recovery of a client that crashed mid-claim would
// mistake the garbage for a live object. Found by extending the sweep
// workload with a payload-dirtying step.
func TestHugeRecycleGarbageHeader(t *testing.T) { eachWrite(t, hugeRecycleStory) }

func hugeRecycleStory(t *testing.T, f *fault) {
	p, err := shm.NewPool(shm.Config{
		Geometry: layout.GeometryConfig{
			MaxClients: 4, NumSegments: 5, SegmentWords: 1 << 13, PageWords: 1 << 9, MaxQueues: 2,
		},
		Intercept: cxl.Intercept{Access: f.hook()},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.CloseDevice()
	// Claim-cursor striping: x starts scans at seg 0, y at 1, z at 2.
	x := connect(t, p)
	y := connect(t, p)
	svc, err := recovery.NewService(p)
	if err != nil {
		t.Fatal(err)
	}

	// x's root page takes seg 0 and y's seg 1, so the huge object spans
	// segs 2-3: head 2, body 3.
	ry, _, err := y.Malloc(64, 0)
	if err != nil {
		t.Fatal(err)
	}
	const hugeSize = 65 * 1024
	rh, bh, err := x.Malloc(hugeSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Payload that happens to look like a committed allocated-huge header at
	// the body segment's base words. The head's base is scrubbed by the
	// ordinary free path; only recycled *body* bases can carry garbage.
	segWords := int(p.Geometry().SegmentWords)
	fakeHdr := layout.PackHeader(layout.Header{LCID: uint16(x.ID()), LEra: 1, RefCnt: 2})
	fakeMeta := layout.PackMeta(layout.Meta{
		Flags:      layout.MetaAllocated | layout.MetaHuge,
		BlockWords: uint64(hugeSize/layout.WordBytes + layout.BlockHeaderWords),
	})
	x.StoreWord(bh, segWords-layout.DataOff+layout.HeaderOff, fakeHdr)
	x.StoreWord(bh, segWords-layout.DataOff+layout.MetaOff, fakeMeta)
	if _, err := x.ReleaseRoot(rh); err != nil {
		t.Fatal(err)
	}

	// Occupy the freed head segment (2) so the next huge claim's head lands
	// on seg 3 — the dirtied former body base. x dies somewhere in that
	// claim; past the second segment CAS is the window that bit.
	z := connect(t, p)
	rz, _, err := z.Malloc(64, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.crash(x.ID(), func() { _, _, _ = x.Malloc(hugeSize, 0) })
	if err := p.MarkClientDead(x.ID()); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.RecoverClient(x.ID()); err != nil {
		t.Fatal(err)
	}

	if _, err := y.ReleaseRoot(ry); err != nil {
		t.Fatal(err)
	}
	if _, err := z.ReleaseRoot(rz); err != nil {
		t.Fatal(err)
	}
	if err := y.Close(); err != nil {
		t.Fatal(err)
	}
	if err := z.Close(); err != nil {
		t.Fatal(err)
	}
	mon := recovery.NewMonitor(svc, recovery.MonitorConfig{})
	for i := 0; i < 6; i++ {
		mon.Tick()
	}
	res := mustClean(t, p, "huge recycle")
	if res.AllocatedObjects != 0 {
		t.Fatalf("%d objects kept alive by recycled garbage header", res.AllocatedObjects)
	}
}

// Recovery must invalidate the victim's redo entry before publishing
// RECOVERED: in the other order, a recovery pass that itself crashes between
// the two stores leaves a RECOVERED slot carrying a valid redo entry for the
// next incarnation to inherit. The victim dies before each write of an
// attach (past the commit CAS its redo entry is committed but not replayed);
// for each of those deaths the recovery pass is crashed before each of its
// own writes, and the poisonous intermediate state must never exist.
func TestRecoveryClearsRedoBeforePublish(t *testing.T) {
	// run is one story: fv kills the victim inside AttachRoot, fr kills the
	// recovery pass (executor client and management plane).
	run := func(fv, fr *fault) {
		p := newTestPool(t, fv.hook(), fr.hook())
		defer p.CloseDevice()
		x := connect(t, p)
		svc, err := recovery.NewService(p)
		if err != nil {
			t.Fatal(err)
		}
		_, b, err := x.Malloc(64, 0)
		if err != nil {
			t.Fatal(err)
		}
		fv.crash(x.ID(), func() { _, _ = x.AttachRoot(b) })
		if err := p.MarkClientDead(x.ID()); err != nil {
			t.Fatal(err)
		}
		crash := fr.crash(-1, func() { _, _ = svc.RecoverClient(x.ID()) })
		if crash == nil {
			return
		}
		if _, redoValid := p.ReadRedo(x.ID()); redoValid && p.ClientStatus(x.ID()) == layout.ClientRecovered {
			t.Fatalf("victim write %d, recovery write %d: RECOVERED slot with a valid redo entry", fv.n, fr.n)
		}
	}

	attach := newFault(0)
	run(attach, newFault(0))
	if attach.writes == 0 {
		t.Fatal("attach issued no writes")
	}
	for v := 1; v <= attach.writes; v++ {
		rec := newFault(0)
		run(newFault(v), rec)
		if rec.writes == 0 {
			t.Fatalf("victim write %d: recovery issued no writes", v)
		}
		for r := 1; r <= rec.writes; r++ {
			run(newFault(v), newFault(r))
		}
	}
}

// A client that dies between the commit CAS of the last release of another
// client's block and the push onto that owner's client_free list leaves a
// refcount-zero block for the live owner's own scan to reclaim. The reclaim
// parks the block in the owner's pending tier — the lost-block state, freeer
// == the scanner — so the scan's next round used to re-link it as well, and
// the next publication burst listed it a second time: two Mallocs then
// returned the same block. Found by the remote-free leg of
// TestShadowCrashRecoveryProperty.
func TestOwnerScanReclaimNotRelinked(t *testing.T) { eachWrite(t, ownerScanReclaimStory) }

func ownerScanReclaimStory(t *testing.T, f *fault) {
	p := newTestPool(t, f.hook())
	defer p.CloseDevice()
	owner := connect(t, p)
	x := connect(t, p)
	svc, err := recovery.NewService(p)
	if err != nil {
		t.Fatal(err)
	}
	// One block per page, so the owner's next Malloc of the class is a
	// refill: it runs the flagged-segment scan.
	oroot, block, err := owner.Malloc(2000, 0)
	if err != nil {
		t.Fatal(err)
	}
	xroot, err := x.AttachRoot(block)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := owner.ReleaseRoot(oroot); err != nil {
		t.Fatal(err)
	}
	f.crash(x.ID(), func() { x.ReleaseRoot(xroot) })
	if err := p.MarkClientDead(x.ID()); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.RecoverClient(x.ID()); err != nil {
		t.Fatal(err)
	}
	seen := map[layout.Addr]bool{}
	var roots []layout.Addr
	for i := 0; i < 3; i++ {
		root, b, err := owner.Malloc(2000, 0)
		if err != nil {
			t.Fatal(err)
		}
		if seen[b] {
			t.Fatalf("Malloc %d returned block %#x a second time", i, b)
		}
		seen[b] = true
		roots = append(roots, root)
	}
	if err := owner.CheckShadow(); err != nil {
		t.Fatalf("owner shadow: %v", err)
	}
	for _, r := range roots {
		if _, err := owner.ReleaseRoot(r); err != nil {
			t.Fatal(err)
		}
	}
	if res := mustClean(t, p, "owner scan reclaim"); res.AllocatedObjects != 0 {
		t.Fatalf("%d objects leaked", res.AllocatedObjects)
	}
}
