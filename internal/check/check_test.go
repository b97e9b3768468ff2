package check_test

// The validator is the oracle of the fault-injection study, so it needs its
// own negative tests: deliberately corrupt a healthy pool in each of the
// ways the §6.2.2 study looks for and verify the corresponding issue is
// reported. A checker that can't see planted corruption proves nothing.

import (
	"testing"

	"repro/internal/check"
	"repro/internal/layout"
	"repro/internal/shm"
)

func newPool(t *testing.T) *shm.Pool {
	t.Helper()
	p, err := shm.NewPool(shm.Config{Geometry: layout.GeometryConfig{
		MaxClients: 4, NumSegments: 8, SegmentWords: 1 << 13, PageWords: 1 << 9,
	}})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func hasIssue(res *check.Result, kind check.IssueKind) bool {
	for _, is := range res.Issues {
		if is.Kind == kind {
			return true
		}
	}
	return false
}

func TestCleanPoolValidates(t *testing.T) {
	p := newPool(t)
	c, _ := p.Connect()
	root, _, err := c.Malloc(64, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res := check.Validate(p); !res.Clean() {
		t.Fatalf("healthy pool reported issues: %v", res.Issues)
	}
	if _, err := c.ReleaseRoot(root); err != nil {
		t.Fatal(err)
	}
	if res := check.Validate(p); !res.Clean() {
		t.Fatalf("healthy pool reported issues after release: %v", res.Issues)
	}
}

func TestDetectsLeak(t *testing.T) {
	p := newPool(t)
	c, _ := p.Connect()
	root, block, err := c.Malloc(64, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt: inflate the reference count without adding a reference.
	hdr := c.HeaderOf(block)
	hdr.RefCnt++
	p.Device().Store(block+layout.HeaderOff, layout.PackHeader(hdr))
	res := check.Validate(p)
	if !hasIssue(res, check.Leak) {
		t.Fatalf("inflated refcount not reported as leak: %v", res.Issues)
	}
	_ = root
}

func TestDetectsUnderCount(t *testing.T) {
	p := newPool(t)
	c, _ := p.Connect()
	_, block, err := c.Malloc(64, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt: drop the count below the actual reference population.
	hdr := c.HeaderOf(block)
	hdr.RefCnt = 0
	p.Device().Store(block+layout.HeaderOff, layout.PackHeader(hdr))
	res := check.Validate(p)
	if !hasIssue(res, check.UnderCount) && !hasIssue(res, check.StuckReclaim) {
		t.Fatalf("under-counted object not reported: %v", res.Issues)
	}
}

func TestDetectsWildPointer(t *testing.T) {
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
	// Corrupt: plant the freed block's address in an embedded reference
	// without attaching (no count, target already free).
	p.Device().Store(parent+layout.DataOff, victim)
	res := check.Validate(p)
	if !hasIssue(res, check.WildPointer) {
		t.Fatalf("dangling embedded reference not reported: %v", res.Issues)
	}
}

func TestDetectsStuckReclaim(t *testing.T) {
	p := newPool(t)
	c, _ := p.Connect()
	root, block, err := c.Malloc(64, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt: zero the count AND null the RootRef without freeing the block
	// (a reclaim that never happened).
	hdr := c.HeaderOf(block)
	hdr.RefCnt = 0
	p.Device().Store(block+layout.HeaderOff, layout.PackHeader(hdr))
	p.Device().Store(root+layout.RootRefPptrOff, 0)
	res := check.Validate(p)
	if !hasIssue(res, check.StuckReclaim) {
		t.Fatalf("unreclaimed zero-count object not reported: %v", res.Issues)
	}
}

func TestDetectsDoubleFree(t *testing.T) {
	p := newPool(t)
	c, _ := p.Connect()
	root, block, err := c.Malloc(64, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReleaseRoot(root); err != nil {
		t.Fatal(err)
	}
	// Publish the deferred free so the block is on its page free list, then
	// corrupt: push it a second time through the segment's client_free list.
	c.Flush()
	geo := p.Geometry()
	seg := geo.SegmentIndexOf(block)
	cf := geo.SegClientFreeAddr(seg)
	p.Device().Store(block+layout.DataOff, p.Device().Load(cf))
	p.Device().Store(cf, block)
	res := check.Validate(p)
	if !hasIssue(res, check.DoubleFree) {
		t.Fatalf("double-listed block not reported: %v", res.Issues)
	}
}

func TestDetectsLostFreeBlock(t *testing.T) {
	p := newPool(t)
	c, _ := p.Connect()
	root, block, err := c.Malloc(64, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReleaseRoot(root); err != nil {
		t.Fatal(err)
	}
	// Corrupt: detach the freed block from its page free list.
	geo := p.Geometry()
	seg := geo.SegmentIndexOf(block)
	pg := geo.PageIndexOf(seg, block)
	metaA := geo.PageMetaAddr(seg, pg)
	if p.Device().Load(metaA+1) != block { // pmFree
		t.Skip("block not at free-list head; layout changed")
	}
	p.Device().Store(metaA+1, p.Device().Load(block+layout.DataOff))
	res := check.Validate(p)
	if !hasIssue(res, check.LostFreeBlock) {
		t.Fatalf("lost free block not reported: %v", res.Issues)
	}
}

func TestDetectsBadStructure(t *testing.T) {
	p := newPool(t)
	c, _ := p.Connect()
	if _, _, err := c.Malloc(64, 0); err != nil {
		t.Fatal(err)
	}
	// Corrupt: claim more pages than a segment has.
	geo := p.Geometry()
	p.Device().Store(geo.SegNextPageAddr(0), uint64(geo.PagesPerSegment+5))
	res := check.Validate(p)
	if !hasIssue(res, check.BadStructure) {
		t.Fatalf("bad page counter not reported: %v", res.Issues)
	}
}

func TestNamedRootCountsAsReference(t *testing.T) {
	p := newPool(t)
	c, _ := p.Connect()
	root, block, err := c.Malloc(64, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.PublishRoot(2, block); err != nil {
		t.Fatal(err)
	}
	if res := check.Validate(p); !res.Clean() {
		t.Fatalf("published root flagged: %v", res.Issues)
	}
	// Dropping the client's own ref leaves the named root holding the object.
	if freed, err := c.ReleaseRoot(root); err != nil || freed {
		t.Fatalf("freed=%v err=%v", freed, err)
	}
	if res := check.Validate(p); !res.Clean() || res.AllocatedObjects != 1 {
		t.Fatalf("named-root-held object flagged: %v", res.Issues)
	}
	if err := c.UnpublishRoot(2); err != nil {
		t.Fatal(err)
	}
	if res := check.Validate(p); !res.Clean() || res.AllocatedObjects != 0 {
		t.Fatalf("after unpublish: %d objects, %v", res.AllocatedObjects, res.Issues)
	}
}

// --- fsck extensions: queue, era-matrix, client-slot, redo, free-list ---

func newQueuePool(t *testing.T) *shm.Pool {
	t.Helper()
	p, err := shm.NewPool(shm.Config{Geometry: layout.GeometryConfig{
		MaxClients: 4, NumSegments: 8, SegmentWords: 1 << 13, PageWords: 1 << 9, MaxQueues: 4,
	}})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestDetectsQueueHeadAheadOfTail(t *testing.T) {
	p := newQueuePool(t)
	c, _ := p.Connect()
	o, _ := p.Connect()
	_, q, err := c.CreateQueue(o.ID(), 4)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt: head index beyond the tail (a receive that never was sent).
	headA := q + layout.DataOff + 4 + 1
	p.Device().Store(headA, 5)
	res := check.Validate(p)
	if !hasIssue(res, check.QueueCorrupt) {
		t.Fatalf("head>tail queue not reported: %v", res.Issues)
	}
}

func TestDetectsQueueOverCapacity(t *testing.T) {
	p := newQueuePool(t)
	c, _ := p.Connect()
	o, _ := p.Connect()
	_, q, err := c.CreateQueue(o.ID(), 4)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt: more in flight than the ring has slots.
	tailA := q + layout.DataOff + 4 + 2
	p.Device().Store(tailA, 9)
	res := check.Validate(p)
	if !hasIssue(res, check.QueueCorrupt) {
		t.Fatalf("over-capacity queue not reported: %v", res.Issues)
	}
}

func TestDetectsQueueRegistryMismatch(t *testing.T) {
	p := newQueuePool(t)
	c, _ := p.Connect()
	o, _ := p.Connect()
	_, q, err := c.CreateQueue(o.ID(), 4)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt: the registry slot this queue claims no longer points back.
	info := c.QueueInfoOf(q)
	p.Device().Store(p.Geometry().QueueRegAddr(info.RegIdx), 0)
	res := check.Validate(p)
	if !hasIssue(res, check.QueueCorrupt) {
		t.Fatalf("broken registry backref not reported: %v", res.Issues)
	}
}

func TestDetectsEraMatrixViolation(t *testing.T) {
	p := newPool(t)
	c, _ := p.Connect()
	if _, _, err := c.Malloc(64, 0); err != nil {
		t.Fatal(err)
	}
	// Corrupt: client 2 claims to have observed an era of client 1 far beyond
	// client 1's own era counter.
	geo := p.Geometry()
	p.Device().Store(geo.EraAddr(2, c.ID()), 1<<20)
	res := check.Validate(p)
	if !hasIssue(res, check.EraMatrix) {
		t.Fatalf("impossible observed era not reported: %v", res.Issues)
	}
}

func TestDetectsStaleRedo(t *testing.T) {
	p := newPool(t)
	// Corrupt: a valid redo entry on a client slot that is FREE — a recovery
	// pass must clear the entry before the slot can be handed out again.
	p.Device().Store(p.Geometry().ClientRedoBase(2), 1<<63)
	res := check.Validate(p)
	if !hasIssue(res, check.StaleRedo) {
		t.Fatalf("valid redo on free slot not reported: %v", res.Issues)
	}
}

func TestDetectsBadClientStatus(t *testing.T) {
	p := newPool(t)
	p.Device().Store(p.Geometry().ClientStatusAddr(1), 77)
	res := check.Validate(p)
	if !hasIssue(res, check.BadStructure) {
		t.Fatalf("garbage client status not reported: %v", res.Issues)
	}
}

func TestDetectsStaleLeaseGenParity(t *testing.T) {
	p := newPool(t)
	c, _ := p.Connect()
	// Corrupt: an ALIVE client whose lease generation reads even — as if the
	// slot had already been released while the status word still says leased.
	geo := p.Geometry()
	p.Device().Store(geo.SlotGenAddr(c.ID()), p.SlotGeneration(c.ID())+1)
	res := check.Validate(p)
	if !hasIssue(res, check.StaleLease) {
		t.Fatalf("even lease generation on ALIVE slot not reported: %v", res.Issues)
	}
}

func TestDetectsFreeListEscape(t *testing.T) {
	p := newPool(t)
	c, _ := p.Connect()
	root, block, err := c.Malloc(64, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReleaseRoot(root); err != nil {
		t.Fatal(err)
	}
	// Corrupt: point the segment's client_free list at an address outside the
	// segment (a torn or wild pointer must not send the walker off-pool).
	seg := p.Geometry().SegmentIndexOf(block)
	p.Device().Store(p.Geometry().SegClientFreeAddr(seg), 3)
	res := check.Validate(p)
	if !hasIssue(res, check.BadStructure) {
		t.Fatalf("out-of-segment free node not reported: %v", res.Issues)
	}
}
