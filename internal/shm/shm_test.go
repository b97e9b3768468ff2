package shm_test

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/check"
	"repro/internal/layout"
	"repro/internal/shm"
)

func newTestPool(t *testing.T) *shm.Pool {
	t.Helper()
	p, err := shm.NewPool(shm.Config{Geometry: layout.GeometryConfig{
		MaxClients:   8,
		NumSegments:  16,
		SegmentWords: 1 << 13, // 64 KiB segments
		PageWords:    1 << 9,  // 4 KiB pages
		MaxQueues:    8,
	}})
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	return p
}

func connect(t *testing.T, p *shm.Pool) *shm.Client {
	t.Helper()
	c, err := p.Connect()
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	return c
}

func mustValidate(t *testing.T, p *shm.Pool) *check.Result {
	t.Helper()
	res := check.Validate(p)
	if !res.Clean() {
		for _, is := range res.Issues {
			t.Errorf("validation: %s", is)
		}
		t.Fatalf("pool validation failed with %d issues", len(res.Issues))
	}
	return res
}

func TestConnectAssignsDistinctIDs(t *testing.T) {
	p := newTestPool(t)
	seen := map[int]bool{}
	for i := 0; i < 8; i++ {
		c := connect(t, p)
		if seen[c.ID()] {
			t.Fatalf("duplicate client id %d", c.ID())
		}
		seen[c.ID()] = true
	}
	_, err := p.Connect()
	if !errors.Is(err, shm.ErrTooManyClients) {
		t.Fatalf("9th connect: err=%v, want ErrTooManyClients", err)
	}
	var full *shm.SlotExhaustedError
	if !errors.As(err, &full) {
		t.Fatalf("9th connect: err=%T, want *shm.SlotExhaustedError", err)
	}
	if full.Capacity != 8 || full.Alive != 8 || full.Dead != 0 {
		t.Fatalf("census = %+v, want capacity 8, 8 alive, 0 dead", full)
	}
}

func TestMallocReleaseRoundTrip(t *testing.T) {
	p := newTestPool(t)
	c := connect(t, p)
	root, block, err := c.Malloc(64, 0)
	if err != nil {
		t.Fatalf("Malloc: %v", err)
	}
	if hdr := c.HeaderOf(block); hdr.RefCnt != 1 || int(hdr.LCID) != c.ID() {
		t.Fatalf("fresh header = %+v", hdr)
	}
	if got := c.RootTarget(root); got != block {
		t.Fatalf("RootTarget = %#x, want %#x", got, block)
	}
	res := mustValidate(t, p)
	if res.AllocatedObjects != 1 || res.RootRefsInUse != 1 {
		t.Fatalf("validator sees %d objects, %d rootrefs; want 1, 1", res.AllocatedObjects, res.RootRefsInUse)
	}
	freed, err := c.ReleaseRoot(root)
	if err != nil {
		t.Fatalf("ReleaseRoot: %v", err)
	}
	if !freed {
		t.Fatal("releasing the only reference must free the object")
	}
	res = mustValidate(t, p)
	if res.AllocatedObjects != 0 || res.RootRefsInUse != 0 {
		t.Fatalf("after release: %d objects, %d rootrefs", res.AllocatedObjects, res.RootRefsInUse)
	}
}

func TestMallocDataRoundTrip(t *testing.T) {
	p := newTestPool(t)
	c := connect(t, p)
	root, block, err := c.Malloc(200, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.DataBytesOf(block); got < 200 {
		t.Fatalf("DataBytesOf = %d, want >= 200", got)
	}
	msg := []byte("partial failure resilient memory management")
	c.WriteData(block, 17, msg)
	got := make([]byte, len(msg))
	c.ReadData(block, 17, got)
	if !bytes.Equal(got, msg) {
		t.Fatalf("data round trip: got %q", got)
	}
	if _, err := c.ReleaseRoot(root); err != nil {
		t.Fatal(err)
	}
}

func TestMallocManySizesAndReuse(t *testing.T) {
	p := newTestPool(t)
	c := connect(t, p)
	sizes := []int{1, 16, 17, 64, 100, 256, 400, 1000, 3000}
	for round := 0; round < 3; round++ {
		var roots []layout.Addr
		for _, sz := range sizes {
			for i := 0; i < 10; i++ {
				root, block, err := c.Malloc(sz, 0)
				if err != nil {
					t.Fatalf("round %d size %d: %v", round, sz, err)
				}
				if c.DataBytesOf(block) < sz {
					t.Fatalf("size %d: block too small", sz)
				}
				roots = append(roots, root)
			}
		}
		mustValidate(t, p)
		for _, r := range roots {
			if _, err := c.ReleaseRoot(r); err != nil {
				t.Fatal(err)
			}
		}
		mustValidate(t, p)
	}
}

func TestCloneReleaseLocal(t *testing.T) {
	p := newTestPool(t)
	c := connect(t, p)
	root, block, err := c.Malloc(32, 0)
	if err != nil {
		t.Fatal(err)
	}
	c.CloneRoot(root)
	c.CloneRoot(root)
	// Local clones must not touch the shared header (two-tier counting).
	if hdr := c.HeaderOf(block); hdr.RefCnt != 1 {
		t.Fatalf("shared ref_cnt = %d after local clones, want 1", hdr.RefCnt)
	}
	for i := 0; i < 2; i++ {
		freed, err := c.ReleaseRoot(root)
		if err != nil {
			t.Fatal(err)
		}
		if freed {
			t.Fatalf("clone release %d freed the object", i)
		}
	}
	freed, err := c.ReleaseRoot(root)
	if err != nil {
		t.Fatal(err)
	}
	if !freed {
		t.Fatal("last release must free")
	}
	mustValidate(t, p)
}

func TestAttachReleaseAcrossClients(t *testing.T) {
	p := newTestPool(t)
	a := connect(t, p)
	b := connect(t, p)
	root, block, err := a.Malloc(64, 0)
	if err != nil {
		t.Fatal(err)
	}
	// B takes its own counted reference via a queue-free direct attach
	// (simulating what cxl_receive_from does internally).
	rootB, err := b.OpenQueue(block) // OpenQueue is just "attach my RootRef"
	if err != nil {
		t.Fatal(err)
	}
	if hdr := a.HeaderOf(block); hdr.RefCnt != 2 {
		t.Fatalf("ref_cnt = %d, want 2", hdr.RefCnt)
	}
	// A releases: object must survive (B still holds it).
	if freed, err := a.ReleaseRoot(root); err != nil || freed {
		t.Fatalf("A release: freed=%v err=%v", freed, err)
	}
	if hdr := b.HeaderOf(block); hdr.RefCnt != 1 {
		t.Fatalf("ref_cnt = %d after A's release, want 1", hdr.RefCnt)
	}
	mustValidate(t, p)
	if freed, err := b.ReleaseRoot(rootB); err != nil || !freed {
		t.Fatalf("B release: freed=%v err=%v", freed, err)
	}
	mustValidate(t, p)
}

func TestCrossClientFreeGoesToClientFreeList(t *testing.T) {
	p := newTestPool(t)
	a := connect(t, p)
	b := connect(t, p)
	root, block, err := a.Malloc(64, 0)
	if err != nil {
		t.Fatal(err)
	}
	rootB, err := b.OpenQueue(block)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.ReleaseRoot(root); err != nil {
		t.Fatal(err)
	}
	// B performs the final release: the block belongs to A's segment, so it
	// must take the deferred client_free path without corrupting anything.
	if freed, err := b.ReleaseRoot(rootB); err != nil || !freed {
		t.Fatalf("freed=%v err=%v", freed, err)
	}
	mustValidate(t, p)
	// A must be able to reuse the deferred block after collecting.
	var roots []layout.Addr
	for i := 0; i < 100; i++ {
		r, _, err := a.Malloc(64, 0)
		if err != nil {
			t.Fatal(err)
		}
		roots = append(roots, r)
	}
	for _, r := range roots {
		if _, err := a.ReleaseRoot(r); err != nil {
			t.Fatal(err)
		}
	}
	mustValidate(t, p)
}

func TestEmbeddedReferencesLifecycle(t *testing.T) {
	p := newTestPool(t)
	c := connect(t, p)
	rootParent, parent, err := c.Malloc(64, 2)
	if err != nil {
		t.Fatal(err)
	}
	rootX, x, err := c.Malloc(32, 0)
	if err != nil {
		t.Fatal(err)
	}
	rootY, y, err := c.Malloc(32, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetEmbed(parent, 0, x); err != nil {
		t.Fatal(err)
	}
	if err := c.SetEmbed(parent, 1, y); err != nil {
		t.Fatal(err)
	}
	if hdr := c.HeaderOf(x); hdr.RefCnt != 2 {
		t.Fatalf("x ref_cnt = %d, want 2", hdr.RefCnt)
	}
	if got, _ := c.LoadEmbed(parent, 0); got != x {
		t.Fatalf("embed 0 = %#x, want %#x", got, x)
	}
	if err := c.SetEmbed(parent, 2, x); err != shm.ErrBadEmbedIndex {
		t.Fatalf("out-of-range embed: %v", err)
	}
	mustValidate(t, p)

	// Drop the local roots for x and y: they live on via the parent.
	if freed, _ := c.ReleaseRoot(rootX); freed {
		t.Fatal("x freed while parent still links it")
	}
	if freed, _ := c.ReleaseRoot(rootY); freed {
		t.Fatal("y freed while parent still links it")
	}
	mustValidate(t, p)

	// Releasing the parent must cascade and free x and y too.
	if freed, err := c.ReleaseRoot(rootParent); err != nil || !freed {
		t.Fatalf("parent release: freed=%v err=%v", freed, err)
	}
	res := mustValidate(t, p)
	if res.AllocatedObjects != 0 {
		t.Fatalf("cascade left %d objects allocated", res.AllocatedObjects)
	}
}

func TestChangeEmbedMovesReference(t *testing.T) {
	p := newTestPool(t)
	c := connect(t, p)
	rootP, parent, _ := c.Malloc(64, 1)
	rootX, x, _ := c.Malloc(32, 0)
	rootY, y, _ := c.Malloc(32, 0)
	if err := c.SetEmbed(parent, 0, x); err != nil {
		t.Fatal(err)
	}
	if err := c.ChangeEmbed(parent, 0, y); err != nil {
		t.Fatal(err)
	}
	if got, _ := c.LoadEmbed(parent, 0); got != y {
		t.Fatalf("embed = %#x, want y=%#x", got, y)
	}
	if hdr := c.HeaderOf(x); hdr.RefCnt != 1 {
		t.Fatalf("x ref_cnt = %d after change, want 1", hdr.RefCnt)
	}
	if hdr := c.HeaderOf(y); hdr.RefCnt != 2 {
		t.Fatalf("y ref_cnt = %d after change, want 2", hdr.RefCnt)
	}
	mustValidate(t, p)
	// Change where the old target's count drops to zero: x freed by change.
	if _, err := c.ReleaseRoot(rootX); err != nil {
		t.Fatal(err)
	}
	if err := c.ChangeEmbed(parent, 0, x); err != shm.ErrStaleReference {
		// x is gone; re-pointing to it must be refused.
		t.Fatalf("change to freed object: err=%v, want ErrStaleReference", err)
	}
	for _, r := range []layout.Addr{rootP, rootY} {
		if _, err := c.ReleaseRoot(r); err != nil {
			t.Fatal(err)
		}
	}
	res := mustValidate(t, p)
	if res.AllocatedObjects != 0 {
		t.Fatalf("%d objects left", res.AllocatedObjects)
	}
}

func TestChangeEmbedFreesOldTarget(t *testing.T) {
	p := newTestPool(t)
	c := connect(t, p)
	rootP, parent, _ := c.Malloc(64, 1)
	_, x, _ := c.Malloc(32, 0)
	rootY, y, _ := c.Malloc(32, 0)
	if err := c.SetEmbed(parent, 0, x); err != nil {
		t.Fatal(err)
	}
	// Track x only through the parent now.
	xRootRefs := findRootsPointingAt(t, p, x)
	if xRootRefs != 1 {
		t.Fatalf("x has %d rootrefs, want 1 (its malloc root)", xRootRefs)
	}
	// Drop malloc root of x so the embed is its only reference.
	releaseAllRootsPointingAt(t, p, c, x)
	if hdr := c.HeaderOf(x); hdr.RefCnt != 1 {
		t.Fatalf("x ref_cnt = %d, want 1 (embed only)", hdr.RefCnt)
	}
	if err := c.ChangeEmbed(parent, 0, y); err != nil {
		t.Fatal(err)
	}
	// x's last reference is gone: it must have been reclaimed.
	res := mustValidate(t, p)
	if res.AllocatedObjects != 2 { // parent + y
		t.Fatalf("allocated = %d, want 2", res.AllocatedObjects)
	}
	for _, r := range []layout.Addr{rootP, rootY} {
		if _, err := c.ReleaseRoot(r); err != nil {
			t.Fatal(err)
		}
	}
	mustValidate(t, p)
}

// TestPushEmbedLinksWithoutCounting: PushEmbed moves a fresh object's one
// reference from its RootRef into a holder's embedded reference, linking the
// object the holder named into the new object's embed 0 — every count stays
// 1 — and refuses a cloned RootRef, an object whose embed 0 is set or absent,
// and a fenced client.
func TestPushEmbedLinksWithoutCounting(t *testing.T) {
	p := newTestPool(t)
	c := connect(t, p)
	_, holder, _ := c.Malloc(64, 2)
	rootA, a, _ := c.Malloc(32, 1)
	rootB, b, _ := c.Malloc(32, 1)
	hs := c.Span(holder)
	if err := c.PushEmbed(hs, 2, 0, rootA); err != shm.ErrBadEmbedIndex {
		t.Fatalf("push into embed 2 of a 2-embed holder: %v, want ErrBadEmbedIndex", err)
	}
	c.CloneRoot(rootA)
	if err := c.PushEmbed(hs, 1, 0, rootA); err != shm.ErrRootCloned {
		t.Fatalf("push of a cloned root: %v, want ErrRootCloned", err)
	}
	if _, err := c.ReleaseRoot(rootA); err != nil {
		t.Fatal(err)
	}
	rootP, _, _ := c.Malloc(32, 0)
	if err := c.PushEmbed(hs, 1, 0, rootP); err != shm.ErrBadEmbedIndex {
		t.Fatalf("push of an object without embeds: %v, want ErrBadEmbedIndex", err)
	}
	if _, err := c.ReleaseRoot(rootP); err != nil {
		t.Fatal(err)
	}

	if err := c.PushEmbed(hs, 1, 0, rootA); err != nil {
		t.Fatal(err)
	}
	if err := c.PushEmbed(hs, 1, a, rootB); err != nil {
		t.Fatal(err)
	}
	if got, _ := c.LoadEmbed(holder, 1); got != b {
		t.Fatalf("holder's embed 1 = %#x, want b=%#x", got, b)
	}
	if got, _ := c.LoadEmbed(b, 0); got != a {
		t.Fatalf("b's embed 0 = %#x, want a=%#x", got, a)
	}
	for _, x := range []layout.Addr{a, b} {
		if hdr := c.HeaderOf(x); hdr.RefCnt != 1 {
			t.Fatalf("ref_cnt of %#x = %d after the pushes, want 1", x, hdr.RefCnt)
		}
	}
	if n := findRootsPointingAt(t, p, a) + findRootsPointingAt(t, p, b); n != 0 {
		t.Fatalf("%d RootRefs still name the pushed objects", n)
	}
	mustValidate(t, p)

	rootD, d, _ := c.Malloc(32, 1)
	c.StoreWord(d, 0, a) // a raw store: d's embed 0 now reads set
	if err := c.PushEmbed(hs, 0, 0, rootD); err != shm.ErrBadEmbedIndex {
		t.Fatalf("push of an object whose embed 0 is set: %v, want ErrBadEmbedIndex", err)
	}
	c.StoreWord(d, 0, 0)
	if err := p.MarkClientDead(c.ID()); err != nil {
		t.Fatal(err)
	}
	if err := c.PushEmbed(hs, 0, 0, rootD); err != shm.ErrFenced {
		t.Fatalf("push by a fenced client: %v, want ErrFenced", err)
	}
}

func TestQueueTransferMovesOwnership(t *testing.T) {
	p := newTestPool(t)
	a := connect(t, p)
	b := connect(t, p)

	qRootA, q, err := a.CreateQueue(b.ID(), 4)
	if err != nil {
		t.Fatalf("CreateQueue: %v", err)
	}
	qRootB, err := b.OpenQueue(q)
	if err != nil {
		t.Fatal(err)
	}

	rootA, obj, err := a.Malloc(64, 0)
	if err != nil {
		t.Fatal(err)
	}
	a.WriteData(obj, 0, []byte("hello rdsm"))
	if err := a.Send(q, obj); err != nil {
		t.Fatal(err)
	}
	if n := a.QueueLen(q); n != 1 {
		t.Fatalf("queue len %d, want 1", n)
	}
	// Sender can drop its reference immediately after send: the queue slot
	// holds a counted reference.
	if freed, err := a.ReleaseRoot(rootA); err != nil || freed {
		t.Fatalf("sender release: freed=%v err=%v", freed, err)
	}
	mustValidate(t, p)

	rootB, got, err := b.Receive(q)
	if err != nil {
		t.Fatal(err)
	}
	if got != obj {
		t.Fatalf("received %#x, want %#x", got, obj)
	}
	buf := make([]byte, 10)
	b.ReadData(got, 0, buf)
	if string(buf) != "hello rdsm" {
		t.Fatalf("payload %q", buf)
	}
	if n := b.QueueLen(q); n != 0 {
		t.Fatalf("queue len %d after receive, want 0", n)
	}
	if freed, err := b.ReleaseRoot(rootB); err != nil || !freed {
		t.Fatalf("receiver release: freed=%v err=%v", freed, err)
	}

	if _, _, err := b.Receive(q); err != shm.ErrQueueEmpty {
		t.Fatalf("empty receive: %v", err)
	}
	// Fill the queue to capacity.
	var roots []layout.Addr
	for i := 0; i < 4; i++ {
		r, o, err := a.Malloc(16, 0)
		if err != nil {
			t.Fatal(err)
		}
		roots = append(roots, r)
		if err := a.Send(q, o); err != nil {
			t.Fatal(err)
		}
	}
	if r, o, err := a.Malloc(16, 0); err != nil {
		t.Fatal(err)
	} else {
		if err := a.Send(q, o); err != shm.ErrQueueFull {
			t.Fatalf("full send: %v", err)
		}
		roots = append(roots, r)
	}
	for _, r := range roots {
		if _, err := a.ReleaseRoot(r); err != nil {
			t.Fatal(err)
		}
	}
	// Tear down the queue with references still in flight: the cascade must
	// release them.
	if _, err := a.ReleaseRoot(qRootA); err != nil {
		t.Fatal(err)
	}
	if _, err := b.ReleaseRoot(qRootB); err != nil {
		t.Fatal(err)
	}
	p.SweepQueueRegistry()
	res := mustValidate(t, p)
	if res.AllocatedObjects != 0 {
		t.Fatalf("queue teardown leaked %d objects", res.AllocatedObjects)
	}
}

func TestFindQueueFromRegistry(t *testing.T) {
	p := newTestPool(t)
	a := connect(t, p)
	b := connect(t, p)
	_, q, err := a.CreateQueue(b.ID(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.FindQueueFrom(a.ID()); got != q {
		t.Fatalf("FindQueueFrom = %#x, want %#x", got, q)
	}
	if got := a.FindQueueFrom(b.ID()); got != 0 {
		t.Fatalf("reverse direction must not match, got %#x", got)
	}
	qi := a.QueueInfoOf(q)
	if qi.Sender != a.ID() || qi.Receiver != b.ID() || qi.Capacity != 2 {
		t.Fatalf("QueueInfo = %+v", qi)
	}
}

func TestHugeObjectAllocateRelease(t *testing.T) {
	p := newTestPool(t)
	c := connect(t, p)
	// Larger than the biggest size class (page is 4 KiB): spans segments.
	big := 3 * 64 * 1024 / 2 // 1.5 segments
	root, block, err := c.Malloc(big, 0)
	if err != nil {
		t.Fatalf("huge Malloc: %v", err)
	}
	if got := c.DataBytesOf(block); got < big {
		t.Fatalf("huge block %d bytes, want >= %d", got, big)
	}
	m := c.MetaOf(block)
	if m.Flags&layout.MetaHuge == 0 {
		t.Fatal("huge flag not set")
	}
	c.WriteData(block, big-8, []byte("tailmark"))
	buf := make([]byte, 8)
	c.ReadData(block, big-8, buf)
	if string(buf) != "tailmark" {
		t.Fatalf("huge data tail %q", buf)
	}
	mustValidate(t, p)
	if freed, err := c.ReleaseRoot(root); err != nil || !freed {
		t.Fatalf("huge release: freed=%v err=%v", freed, err)
	}
	res := mustValidate(t, p)
	if res.SegmentsOther != 0 {
		t.Fatalf("huge segments not returned: %d in other states", res.SegmentsOther)
	}
}

func TestHugeObjectWithEmbeddedReferences(t *testing.T) {
	p := newTestPool(t)
	c := connect(t, p)
	// A huge object (spans segments) holding embedded references to two
	// small objects: releasing the huge object must cascade.
	big := 3 * 64 * 1024 / 2
	hugeRoot, huge, err := c.Malloc(big, 2)
	if err != nil {
		t.Fatal(err)
	}
	r1, o1, err := c.Malloc(32, 0)
	if err != nil {
		t.Fatal(err)
	}
	r2, o2, err := c.Malloc(32, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetEmbed(huge, 0, o1); err != nil {
		t.Fatal(err)
	}
	if err := c.SetEmbed(huge, 1, o2); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReleaseRoot(r1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReleaseRoot(r2); err != nil {
		t.Fatal(err)
	}
	mustValidate(t, p)
	if freed, err := c.ReleaseRoot(hugeRoot); err != nil || !freed {
		t.Fatalf("huge release: freed=%v err=%v", freed, err)
	}
	res := mustValidate(t, p)
	if res.AllocatedObjects != 0 {
		t.Fatalf("huge cascade leaked %d objects", res.AllocatedObjects)
	}
	if res.SegmentsOther != 0 {
		t.Fatalf("huge segments not reclaimed: %d", res.SegmentsOther)
	}
}

func TestSmallObjectEmbedsHugeObject(t *testing.T) {
	p := newTestPool(t)
	c := connect(t, p)
	big := 3 * 64 * 1024 / 2
	hr, huge, err := c.Malloc(big, 0)
	if err != nil {
		t.Fatal(err)
	}
	pr, parent, err := c.Malloc(32, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetEmbed(parent, 0, huge); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReleaseRoot(hr); err != nil {
		t.Fatal(err)
	}
	// The huge object now lives only through the small parent's embed.
	mustValidate(t, p)
	if freed, err := c.ReleaseRoot(pr); err != nil || !freed {
		t.Fatalf("freed=%v err=%v", freed, err)
	}
	res := mustValidate(t, p)
	if res.AllocatedObjects != 0 || res.SegmentsOther != 0 {
		t.Fatalf("cascade into huge failed: %d objects, %d segments",
			res.AllocatedObjects, res.SegmentsOther)
	}
}

func TestHugeTooLarge(t *testing.T) {
	p := newTestPool(t)
	c := connect(t, p)
	if _, _, err := c.Malloc(1<<30, 0); err == nil {
		t.Fatal("absurd allocation must fail")
	}
}

func TestOutOfMemoryIsReported(t *testing.T) {
	p := newTestPool(t)
	c := connect(t, p)
	var roots []layout.Addr
	for {
		root, _, err := c.Malloc(3000, 0)
		if err == shm.ErrOutOfMemory {
			break
		}
		if err != nil {
			t.Fatalf("unexpected error: %v", err)
		}
		roots = append(roots, root)
		if len(roots) > 1<<16 {
			t.Fatal("pool never fills up")
		}
	}
	// Everything must still be releasable and the pool consistent.
	for _, r := range roots {
		if _, err := c.ReleaseRoot(r); err != nil {
			t.Fatal(err)
		}
	}
	mustValidate(t, p)
	// And allocatable again.
	if _, _, err := c.Malloc(3000, 0); err != nil {
		t.Fatalf("allocation after drain: %v", err)
	}
}

func TestRefCountOverflowRejected(t *testing.T) {
	p, err := shm.NewPool(shm.Config{Geometry: layout.GeometryConfig{
		MaxClients: 4, NumSegments: 64, SegmentWords: 1 << 15, PageWords: 1 << 11,
	}})
	if err != nil {
		t.Fatal(err)
	}
	c, err := p.Connect()
	if err != nil {
		t.Fatal(err)
	}
	_, block, err := c.Malloc(16, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Drive the count to the 16-bit ceiling; the next attach must fail
	// cleanly instead of wrapping.
	var roots []layout.Addr
	for i := 0; i < layout.MaxRefCount-1; i++ {
		root, err := c.AttachRoot(block)
		if err != nil {
			t.Fatalf("attach %d: %v", i, err)
		}
		roots = append(roots, root)
	}
	if hdr := c.HeaderOf(block); int(hdr.RefCnt) != layout.MaxRefCount {
		t.Fatalf("ref_cnt=%d, want %d", hdr.RefCnt, layout.MaxRefCount)
	}
	if _, err := c.AttachRoot(block); err != shm.ErrRefCountOverflow {
		t.Fatalf("overflow attach: %v", err)
	}
	// Everything still releasable.
	for _, r := range roots {
		if _, err := c.ReleaseRoot(r); err != nil {
			t.Fatal(err)
		}
	}
	if hdr := c.HeaderOf(block); hdr.RefCnt != 1 {
		t.Fatalf("ref_cnt=%d after drain, want 1", hdr.RefCnt)
	}
}

// TestEraAdvancesPerCommit: every commit that publishes a (cid, era) pair
// bumps the era — Malloc's header init and a logged release (here of a block
// a peer also holds) — while the owner's drop of its last reference to a
// block of its own page publishes nothing: the era stays, and the header
// word is left 0. A move publishes no pair either, but it logs a redo entry,
// so each one — a queue Receive, a PushEmbed — closes its own era: exactly
// one bump.
func TestEraAdvancesPerCommit(t *testing.T) {
	p := newTestPool(t)
	c, peer := connect(t, p), connect(t, p)
	e0 := c.Era()
	root, block, err := c.Malloc(16, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c.Era() <= e0 {
		t.Fatalf("era %d not bumped by allocation (was %d)", c.Era(), e0)
	}
	peerRoot, err := peer.AttachRoot(block)
	if err != nil {
		t.Fatal(err)
	}
	e1 := c.Era()
	if _, err := c.ReleaseRoot(root); err != nil {
		t.Fatal(err)
	}
	if c.Era() <= e1 {
		t.Fatalf("era %d not bumped by a logged release (was %d)", c.Era(), e1)
	}
	if _, err := peer.ReleaseRoot(peerRoot); err != nil {
		t.Fatal(err)
	}

	root, block, err = c.Malloc(16, 0)
	if err != nil {
		t.Fatal(err)
	}
	e2 := c.Era()
	if freed, err := c.ReleaseRoot(root); err != nil || !freed {
		t.Fatalf("owner's ReleaseRoot: freed=%v err=%v", freed, err)
	}
	if c.Era() != e2 {
		t.Fatalf("era %d after the owner's drop, want it unchanged at %d", c.Era(), e2)
	}
	if w := p.Device().Load(block + layout.HeaderOff); w != 0 {
		t.Fatalf("header word %#x after the owner's drop, want 0", w)
	}

	_, q, err := peer.CreateQueue(c.ID(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.OpenQueue(q); err != nil {
		t.Fatal(err)
	}
	sent, msg, err := peer.Malloc(16, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := peer.Send(q, msg); err != nil {
		t.Fatal(err)
	}
	if _, err := peer.ReleaseRoot(sent); err != nil {
		t.Fatal(err)
	}
	e3 := c.Era()
	got, _, err := c.Receive(q)
	if err != nil {
		t.Fatal(err)
	}
	if c.Era() != e3+1 {
		t.Fatalf("era %d after a Receive, want exactly one bump from %d", c.Era(), e3)
	}
	if _, err := c.ReleaseRoot(got); err != nil {
		t.Fatal(err)
	}

	holderRoot, holder, err := c.Malloc(16, 1)
	if err != nil {
		t.Fatal(err)
	}
	objRoot, _, err := c.Malloc(16, 1)
	if err != nil {
		t.Fatal(err)
	}
	e4 := c.Era()
	if err := c.PushEmbed(c.Span(holder), 0, 0, objRoot); err != nil {
		t.Fatal(err)
	}
	if c.Era() != e4+1 {
		t.Fatalf("era %d after a PushEmbed, want exactly one bump from %d", c.Era(), e4)
	}
	if _, err := c.ReleaseRoot(holderRoot); err != nil {
		t.Fatal(err)
	}
	mustValidate(t, p)
}

func TestStaleReferenceDetected(t *testing.T) {
	p := newTestPool(t)
	a := connect(t, p)
	b := connect(t, p)
	root, block, _ := a.Malloc(32, 0)
	if _, err := a.ReleaseRoot(root); err != nil {
		t.Fatal(err)
	}
	// block is freed; attaching to it must be refused, not corrupt memory.
	if _, err := b.OpenQueue(block); err != shm.ErrStaleReference {
		t.Fatalf("attach to freed block: %v, want ErrStaleReference", err)
	}
	mustValidate(t, p)
}

func TestFencedClientOperationsFail(t *testing.T) {
	p := newTestPool(t)
	c, o := connect(t, p), connect(t, p)
	root, block, _ := c.Malloc(32, 0)
	want := []byte("thirty-two bytes before a fence.")
	c.WriteData(block, 0, want)
	if err := p.MarkClientDead(c.ID()); err != nil {
		t.Fatal(err)
	}
	if !c.Fenced() {
		t.Fatal("client not fenced after MarkClientDead")
	}
	if _, _, err := c.Malloc(32, 0); err != shm.ErrFenced {
		t.Fatalf("fenced malloc: %v", err)
	}
	if _, err := c.ReleaseRoot(root); err != shm.ErrFenced {
		t.Fatalf("fenced release: %v", err)
	}
	// The data area's one path is the client's fenced handle: none of the
	// fenced client's writes reach the pool, as another client reads it.
	c.WriteData(block, 0, []byte("written after the fence"))
	c.StoreWord(block, 2, 0xdead)
	if w3 := o.LoadWord(block, 3); c.CASWord(block, 3, w3, w3+1) {
		t.Fatal("fenced CASWord reported success")
	}
	got := make([]byte, len(want))
	o.ReadData(block, 0, got)
	if !bytes.Equal(got, want) {
		t.Fatalf("another client reads %q after the fenced client's writes, want %q", got, want)
	}
}

// --- helpers ---

func findRootsPointingAt(t *testing.T, p *shm.Pool, target layout.Addr) int {
	t.Helper()
	res := check.Validate(p)
	_ = res
	// Count through the validator-independent path: walk RootRef pages.
	geo := p.Geometry()
	dev := p.Device()
	n := 0
	for seg := 0; seg < geo.NumSegments; seg++ {
		st := p.SegState(seg)
		if st.State != layout.SegActive && st.State != layout.SegAbandoned {
			continue
		}
		numPages := int(dev.Load(geo.SegNextPageAddr(seg)))
		for pg := 0; pg < numPages && pg < geo.PagesPerSegment; pg++ {
			info := layout.UnpackPageMeta(dev.Load(geo.PageMetaAddr(seg, pg)))
			if info.Kind != layout.PageKindRootRef {
				continue
			}
			base := geo.PageBase(seg, pg)
			scanPos := dev.Load(geo.PageMetaAddr(seg, pg) + 2)
			for slot := base; slot+layout.RootRefWords <= layout.Addr(scanPos); slot += layout.RootRefWords {
				inUse, _ := layout.UnpackRootRef(dev.Load(slot))
				if inUse && dev.Load(slot+layout.RootRefPptrOff) == target {
					n++
				}
			}
		}
	}
	return n
}

func releaseAllRootsPointingAt(t *testing.T, p *shm.Pool, c *shm.Client, target layout.Addr) {
	t.Helper()
	geo := p.Geometry()
	dev := p.Device()
	for seg := 0; seg < geo.NumSegments; seg++ {
		st := p.SegState(seg)
		if st.State != layout.SegActive {
			continue
		}
		numPages := int(dev.Load(geo.SegNextPageAddr(seg)))
		for pg := 0; pg < numPages && pg < geo.PagesPerSegment; pg++ {
			info := layout.UnpackPageMeta(dev.Load(geo.PageMetaAddr(seg, pg)))
			if info.Kind != layout.PageKindRootRef {
				continue
			}
			base := geo.PageBase(seg, pg)
			scanPos := dev.Load(geo.PageMetaAddr(seg, pg) + 2)
			for slot := base; slot+layout.RootRefWords <= layout.Addr(scanPos); slot += layout.RootRefWords {
				inUse, _ := layout.UnpackRootRef(dev.Load(slot))
				if inUse && dev.Load(slot+layout.RootRefPptrOff) == target {
					if _, err := c.ReleaseRoot(slot); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
}
