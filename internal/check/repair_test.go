package check_test

// The repairing fsck gets the same treatment as the validator: corrupt a
// healthy pool in each fault class, run Repair, and demand either a clean
// revalidation or an explicit quarantine with accounted blast radius.
// A repair that silently accepts damage proves nothing.

import (
	"testing"

	"repro/internal/check"
	"repro/internal/layout"
	"repro/internal/obs"
	"repro/internal/recovery"
	"repro/internal/shm"
)

// repairClean runs Repair and fails the test unless the pool comes back
// validator-clean.
func repairClean(t *testing.T, p *shm.Pool) *check.RepairReport {
	t.Helper()
	rep := check.Repair(p, check.RepairConfig{Log: t.Logf})
	if rep.Pre == nil || rep.Post == nil {
		t.Fatal("repair report missing pre/post results")
	}
	if !rep.Repaired {
		t.Fatalf("pool not repaired after %d rounds, post issues: %v", rep.Rounds, rep.Post.Issues)
	}
	return rep
}

func TestRepairCleanPoolIsNoop(t *testing.T) {
	p := newPool(t)
	c, _ := p.Connect()
	if _, _, err := c.Malloc(64, 0); err != nil {
		t.Fatal(err)
	}
	rep := repairClean(t, p)
	if len(rep.Actions) != 0 || rep.Blast.WordsRewritten != 0 {
		t.Fatalf("clean pool provoked repairs: %v", rep.Actions)
	}
}

func TestRepairInflatedRefCount(t *testing.T) {
	p := newPool(t)
	c, _ := p.Connect()
	_, block, err := c.Malloc(64, 0)
	if err != nil {
		t.Fatal(err)
	}
	hdr := c.HeaderOf(block)
	hdr.RefCnt += 3
	p.Device().Store(block+layout.HeaderOff, layout.PackHeader(hdr))
	rep := repairClean(t, p)
	if rep.Blast.ObjectsRepaired == 0 {
		t.Fatal("leak repair not accounted as an object repair")
	}
	if got := c.HeaderOf(block); got.RefCnt != 1 {
		t.Fatalf("refcount not rewritten to truth: %d", got.RefCnt)
	}
}

func TestRepairLeakToZeroReclaims(t *testing.T) {
	p := newPool(t)
	c, _ := p.Connect()
	root, block, err := c.Malloc(64, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Orphan the object: null the RootRef without dropping the count.
	p.Device().Store(root+layout.RootRefPptrOff, 0)
	rep := repairClean(t, p)
	if rep.Post.AllocatedObjects != 0 {
		t.Fatalf("orphaned object not reclaimed: %d allocated", rep.Post.AllocatedObjects)
	}
	_ = block
}

func TestRepairStuckReclaim(t *testing.T) {
	p := newPool(t)
	c, _ := p.Connect()
	root, block, err := c.Malloc(64, 0)
	if err != nil {
		t.Fatal(err)
	}
	hdr := c.HeaderOf(block)
	hdr.RefCnt = 0
	p.Device().Store(block+layout.HeaderOff, layout.PackHeader(hdr))
	p.Device().Store(root+layout.RootRefPptrOff, 0)
	rep := repairClean(t, p)
	if rep.Post.AllocatedObjects != 0 {
		t.Fatalf("stuck object not reclaimed: %d allocated", rep.Post.AllocatedObjects)
	}
}

func TestRepairWildPointerSevers(t *testing.T) {
	p := newPool(t)
	c, _ := p.Connect()
	_, parent, err := c.Malloc(32, 1)
	if err != nil {
		t.Fatal(err)
	}
	victimRoot, victim, err := c.Malloc(64, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReleaseRoot(victimRoot); err != nil {
		t.Fatal(err)
	}
	p.Device().Store(parent+layout.DataOff, uint64(victim))
	rep := repairClean(t, p)
	if rep.Blast.RefsSevered != 1 || rep.Blast.ObjectsLost != 1 {
		t.Fatalf("sever not accounted: severed=%d lost=%d",
			rep.Blast.RefsSevered, rep.Blast.ObjectsLost)
	}
	if got := p.Device().Load(parent + layout.DataOff); got != 0 {
		t.Fatalf("dangling reference survived repair: %#x", got)
	}
}

func TestRepairWildPointerResurrects(t *testing.T) {
	p := newPool(t)
	c, _ := p.Connect()
	_, parent, err := c.Malloc(32, 1)
	if err != nil {
		t.Fatal(err)
	}
	victimRoot, victim, err := c.Malloc(64, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReleaseRoot(victimRoot); err != nil {
		t.Fatal(err)
	}
	// The freed block's header still agrees with the one reference about to
	// point at it — the classic "free raced the attach" shape.
	p.Device().Store(parent+layout.DataOff, uint64(victim))
	p.Device().Store(victim+layout.HeaderOff,
		layout.PackHeader(layout.Header{LCID: uint16(c.ID()), RefCnt: 1}))
	rep := repairClean(t, p)
	if rep.Blast.RefsSevered != 0 {
		t.Fatal("matching reference severed instead of resurrected")
	}
	if rep.Blast.ObjectsRepaired == 0 {
		t.Fatal("resurrection not accounted")
	}
	if got := p.Device().Load(parent + layout.DataOff); got != uint64(victim) {
		t.Fatalf("reference lost during resurrection: %#x", got)
	}
}

func TestRepairDoubleFree(t *testing.T) {
	p := newPool(t)
	c, _ := p.Connect()
	root, block, err := c.Malloc(64, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReleaseRoot(root); err != nil {
		t.Fatal(err)
	}
	geo := p.Geometry()
	seg := geo.SegmentIndexOf(block)
	cf := geo.SegClientFreeAddr(seg)
	p.Device().Store(block+layout.DataOff, p.Device().Load(cf))
	p.Device().Store(cf, uint64(block))
	repairClean(t, p)
}

func TestRepairLostFreeBlock(t *testing.T) {
	p := newPool(t)
	c, _ := p.Connect()
	root, block, err := c.Malloc(64, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReleaseRoot(root); err != nil {
		t.Fatal(err)
	}
	geo := p.Geometry()
	seg := geo.SegmentIndexOf(block)
	pg := geo.PageIndexOf(seg, block)
	metaA := geo.PageMetaAddr(seg, pg)
	if p.Device().Load(metaA+1) != uint64(block) {
		t.Skip("block not at free-list head; layout changed")
	}
	p.Device().Store(metaA+1, p.Device().Load(block+layout.DataOff))
	repairClean(t, p)
}

func TestRepairSuperblock(t *testing.T) {
	p := newPool(t)
	p.Device().Store(layout.SuperOffSegWords, 12345)
	rep := repairClean(t, p)
	if got := p.Device().Load(layout.SuperOffSegWords); got != p.Geometry().SegmentWords {
		t.Fatalf("superblock word not restored: %d", got)
	}
	if len(rep.Actions) == 0 {
		t.Fatal("superblock rewrite not recorded")
	}
}

func TestRepairTelemetryHeader(t *testing.T) {
	p := newPool(t)
	p.Device().Store(p.Geometry().TelemetryBase, 0xdeadbeef)
	repairClean(t, p)
	if err := p.Telemetry().Validate(); err != nil {
		t.Fatalf("telemetry still refused after repair: %v", err)
	}
}

func TestRepairPageCounterOverclaim(t *testing.T) {
	p := newPool(t)
	c, _ := p.Connect()
	if _, _, err := c.Malloc(64, 0); err != nil {
		t.Fatal(err)
	}
	geo := p.Geometry()
	p.Device().Store(geo.SegNextPageAddr(0), uint64(geo.PagesPerSegment+5))
	repairClean(t, p)
	if got := p.Device().Load(geo.SegNextPageAddr(0)); got > uint64(geo.PagesPerSegment) {
		t.Fatalf("page counter still over-claiming: %d", got)
	}
}

func TestRepairUnknownSegmentState(t *testing.T) {
	p := newPool(t)
	c, _ := p.Connect()
	_, block, err := c.Malloc(64, 0)
	if err != nil {
		t.Fatal(err)
	}
	geo := p.Geometry()
	seg := geo.SegmentIndexOf(block)
	st := p.SegState(seg)
	st.State = 9
	p.Device().Store(geo.SegStateAddr(seg), layout.PackSegState(st))
	rep := repairClean(t, p)
	if rep.Post.AllocatedObjects != 1 {
		t.Fatalf("reconstruction lost the live object: %d allocated", rep.Post.AllocatedObjects)
	}
}

func TestRepairUnknownPageKindQuarantines(t *testing.T) {
	p := newPool(t)
	c, _ := p.Connect()
	_, block, err := c.Malloc(64, 0)
	if err != nil {
		t.Fatal(err)
	}
	geo := p.Geometry()
	seg := geo.SegmentIndexOf(block)
	pg := geo.PageIndexOf(seg, block)
	metaA := geo.PageMetaAddr(seg, pg)
	info := layout.UnpackPageMeta(p.Device().Load(metaA))
	info.Kind = 9
	p.Device().Store(metaA, layout.PackPageMeta(info))
	rep := repairClean(t, p)
	if rep.Blast.PagesQuarantined == 0 || rep.Post.QuarantinedPages == 0 {
		t.Fatalf("unreconstructable page not quarantined: %+v", rep.Blast)
	}
}

func TestRepairBadSizeClassQuarantines(t *testing.T) {
	p := newPool(t)
	c, _ := p.Connect()
	_, block, err := c.Malloc(64, 0)
	if err != nil {
		t.Fatal(err)
	}
	geo := p.Geometry()
	seg := geo.SegmentIndexOf(block)
	pg := geo.PageIndexOf(seg, block)
	metaA := geo.PageMetaAddr(seg, pg)
	info := layout.UnpackPageMeta(p.Device().Load(metaA))
	info.SizeClass = 99
	p.Device().Store(metaA, layout.PackPageMeta(info))
	rep := repairClean(t, p)
	if rep.Blast.PagesQuarantined == 0 {
		t.Fatalf("bad-class page not quarantined: %+v", rep.Blast)
	}
}

func TestRepairBumpPointerEscape(t *testing.T) {
	p := newPool(t)
	c, _ := p.Connect()
	_, block, err := c.Malloc(64, 0)
	if err != nil {
		t.Fatal(err)
	}
	geo := p.Geometry()
	seg := geo.SegmentIndexOf(block)
	pg := geo.PageIndexOf(seg, block)
	metaA := geo.PageMetaAddr(seg, pg)
	p.Device().Store(metaA+2, uint64(geo.PageBase(seg, pg))+10*geo.PageWords)
	rep := repairClean(t, p)
	if rep.Post.AllocatedObjects != 1 {
		t.Fatalf("bump clamp lost the live object: %d allocated", rep.Post.AllocatedObjects)
	}
}

func TestRepairHugeSpan(t *testing.T) {
	p := newPool(t)
	c, _ := p.Connect()
	geo := p.Geometry()
	// Big enough that no size class fits: forces the huge multi-segment path.
	_, block, err := c.Malloc(int(geo.SegmentWords)*8*2, 0)
	if err != nil {
		t.Fatal(err)
	}
	m := layout.UnpackMeta(p.Device().Load(block + layout.MetaOff))
	m.BlockWords += 5 * geo.SegmentWords
	p.Device().Store(block+layout.MetaOff, layout.PackMeta(m))
	rep := repairClean(t, p)
	got := layout.UnpackMeta(p.Device().Load(block + layout.MetaOff))
	if got.BlockWords > m.BlockWords-5*geo.SegmentWords+geo.SegmentWords {
		t.Fatalf("huge span not reconstructed from run: %d words", got.BlockWords)
	}
	_ = rep
}

func TestRepairQueueWindow(t *testing.T) {
	p := newQueuePool(t)
	c, _ := p.Connect()
	o, _ := p.Connect()
	_, q, err := c.CreateQueue(o.ID(), 4)
	if err != nil {
		t.Fatal(err)
	}
	headA := q + layout.DataOff + 4 + 1
	p.Device().Store(headA, 5)
	rep := repairClean(t, p)
	if rep.Blast.ObjectsRepaired == 0 {
		t.Fatal("queue clamp not accounted")
	}
}

func TestRepairQueueRegistryBackref(t *testing.T) {
	p := newQueuePool(t)
	c, _ := p.Connect()
	o, _ := p.Connect()
	_, q, err := c.CreateQueue(o.ID(), 4)
	if err != nil {
		t.Fatal(err)
	}
	info := c.QueueInfoOf(q)
	p.Device().Store(p.Geometry().QueueRegAddr(info.RegIdx), 0)
	repairClean(t, p)
	if got := p.Device().Load(p.Geometry().QueueRegAddr(info.RegIdx)); got != uint64(q) {
		// Relinking may have chosen a different free slot; the queue's own
		// backref is the contract.
		infoW := p.Device().Load(q + layout.DataOff + 4)
		slot := int(uint32(infoW >> 32))
		if p.Device().Load(p.Geometry().QueueRegAddr(slot)) != uint64(q) {
			t.Fatalf("queue not re-registered anywhere")
		}
	}
}

func TestRepairQueueImpossibleCapacityQuarantines(t *testing.T) {
	p := newQueuePool(t)
	c, _ := p.Connect()
	o, _ := p.Connect()
	_, q, err := c.CreateQueue(o.ID(), 4)
	if err != nil {
		t.Fatal(err)
	}
	m := layout.UnpackMeta(p.Device().Load(q + layout.MetaOff))
	m.EmbedCnt = 0 // capacity impossible: slot array bounds unknowable
	p.Device().Store(q+layout.MetaOff, layout.PackMeta(m))
	rep := repairClean(t, p)
	if rep.Blast.ObjectsQuarantined == 0 {
		t.Fatalf("unfit queue not quarantined: %+v", rep.Blast)
	}
	for i := 0; i < p.Geometry().MaxQueues; i++ {
		if p.Device().Load(p.Geometry().QueueRegAddr(i)) == uint64(q) {
			t.Fatal("quarantined queue still registered")
		}
	}
}

func TestRepairEraMatrix(t *testing.T) {
	p := newPool(t)
	c, _ := p.Connect()
	if _, _, err := c.Malloc(64, 0); err != nil {
		t.Fatal(err)
	}
	geo := p.Geometry()
	p.Device().Store(geo.EraAddr(2, c.ID()), 1<<20)
	rep := repairClean(t, p)
	if got := p.Device().Load(geo.EraAddr(c.ID(), c.ID())); got < 1<<20 {
		t.Fatalf("own era not raised past observation: %d", got)
	}
	if len(rep.Blast.ClientsAffected) == 0 {
		t.Fatal("era raise not accounted to a client")
	}
}

func TestRepairStaleRedo(t *testing.T) {
	p := newPool(t)
	p.Device().Store(p.Geometry().ClientRedoBase(2), 1<<63)
	repairClean(t, p)
	if _, ok := p.ReadRedo(2); ok {
		t.Fatal("stale redo entry survived repair")
	}
}

func TestRepairBadClientStatus(t *testing.T) {
	p := newPool(t)
	recovered := 0
	p.Device().Store(p.Geometry().ClientStatusAddr(3), 77)
	svc, err := recovery.NewService(p)
	if err != nil {
		t.Fatal(err)
	}
	rep := check.Repair(p, check.RepairConfig{
		Recover: func(cid int) error {
			recovered = cid
			_, err := svc.RecoverClient(cid)
			return err
		},
	})
	if !rep.Repaired {
		t.Fatalf("not repaired: %v", rep.Post.Issues)
	}
	if recovered != 3 {
		t.Fatalf("recovery hook not invoked for client 3 (got %d)", recovered)
	}
}

// A recovery claim naming no client slot is reported and cleared, and the
// dead client it sat on is then recovered post-repair.
func TestRepairBadRecoveryClaim(t *testing.T) {
	p := newPool(t)
	geo := p.Geometry()
	c, _ := p.Connect()
	if _, _, err := c.Malloc(64, 0); err != nil {
		t.Fatal(err)
	}
	if err := p.MarkClientDead(c.ID()); err != nil {
		t.Fatal(err)
	}
	claim := geo.ClientClaimAddr(c.ID())
	p.Device().Store(claim, layout.PackLease(geo.MaxClients+1, 3))
	found := false
	for _, is := range check.Validate(p).Issues {
		found = found || is.Kind == check.BadStructure && is.Addr == claim
	}
	if !found {
		t.Fatal("validator missed a recovery claim naming no client slot")
	}
	svc, err := recovery.NewService(p)
	if err != nil {
		t.Fatal(err)
	}
	rep := check.Repair(p, check.RepairConfig{
		Recover: func(cid int) error { _, err := svc.RecoverClient(cid); return err },
	})
	if !rep.Repaired {
		t.Fatalf("not repaired: %v", rep.Post.Issues)
	}
	if w := p.Device().Load(claim); w != 0 {
		t.Fatalf("claim word %#x survived repair", w)
	}
	if s := p.ClientStatus(c.ID()); s != layout.ClientRecovered {
		t.Fatalf("client %d status %d after repair, want RECOVERED", c.ID(), s)
	}
}

func TestRepairReapsLeakingSegments(t *testing.T) {
	p := newPool(t)
	c, _ := p.Connect()
	_, block, err := c.Malloc(64, 0)
	if err != nil {
		t.Fatal(err)
	}
	seg := p.Geometry().SegmentIndexOf(block)
	// The owner dies; its segment is flagged POTENTIAL_LEAKING but never
	// scanned (the monitor that would have done it isn't running).
	if err := p.MarkClientDead(c.ID()); err != nil {
		t.Fatal(err)
	}
	p.Device().Store(p.Geometry().ClientStatusAddr(c.ID()), layout.ClientRecovered)
	p.FlagSegmentLeaking(seg)
	rep := repairClean(t, p)
	_ = rep
}

func TestRepairUpdatesCounters(t *testing.T) {
	p := newPool(t)
	c, _ := p.Connect()
	_, block, err := c.Malloc(64, 0)
	if err != nil {
		t.Fatal(err)
	}
	hdr := c.HeaderOf(block)
	hdr.RefCnt += 1
	p.Device().Store(block+layout.HeaderOff, layout.PackHeader(hdr))
	repairClean(t, p)
	ctr := p.Obs().Shard(0)
	if ctr.Get(obs.CtrFsckPass) == 0 || ctr.Get(obs.CtrFsckIssues) == 0 ||
		ctr.Get(obs.CtrRepairAction) == 0 {
		t.Fatalf("fsck counters not advanced: pass=%d issues=%d actions=%d",
			ctr.Get(obs.CtrFsckPass), ctr.Get(obs.CtrFsckIssues), ctr.Get(obs.CtrRepairAction))
	}
	var applied bool
	for _, e := range p.Telemetry().Events() {
		if e.Type == obs.EvRepairApplied {
			applied = true
		}
	}
	if !applied {
		t.Fatal("EvRepairApplied not traced")
	}
}

func TestRepairedPoolStillWorks(t *testing.T) {
	p := newPool(t)
	c, _ := p.Connect()
	_, block, err := c.Malloc(64, 0)
	if err != nil {
		t.Fatal(err)
	}
	hdr := c.HeaderOf(block)
	hdr.RefCnt += 2
	p.Device().Store(block+layout.HeaderOff, layout.PackHeader(hdr))
	repairClean(t, p)
	// The pool must remain a working allocator after surgery.
	root2, b2, err := c.Malloc(128, 2)
	if err != nil {
		t.Fatal(err)
	}
	p.Device().Store(b2+layout.DataOff, uint64(block)) // fake attach without count
	p.Device().Store(b2+layout.DataOff, 0)
	if _, err := c.ReleaseRoot(root2); err != nil {
		t.Fatal(err)
	}
	if res := check.Validate(p); !res.Clean() {
		t.Fatalf("post-repair workload left issues: %v", res.Issues)
	}
}

func TestRepairStaleLeaseGen(t *testing.T) {
	p := newPool(t)
	c, _ := p.Connect()
	geo := p.Geometry()
	// An ALIVE client with an even (released-looking) generation: repair must
	// move the generation forward to odd, never the status backwards.
	before := p.SlotGeneration(c.ID())
	p.Device().Store(geo.SlotGenAddr(c.ID()), before+1)
	rep := repairClean(t, p)
	after := p.SlotGeneration(c.ID())
	if after%2 != 1 {
		t.Fatalf("lease generation still even after repair: %d", after)
	}
	if after < before {
		t.Fatalf("repair rewound the lease generation: %d -> %d", before, after)
	}
	if len(rep.Blast.ClientsAffected) == 0 {
		t.Fatal("stale lease repair not attributed to a client")
	}
}
