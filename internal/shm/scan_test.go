package shm_test

import (
	"testing"

	"repro/internal/cxl"
	"repro/internal/layout"
	"repro/internal/shm"
)

// scanFixture is one dead owner's segment, built the same way for every
// case: 24 64-byte blocks in one page, of which the survivor still holds 4,
// 8 sit on the page's published free list, 4 are lost (free-marked by the
// owner, publication still deferred when it died, their RootRef slots lost
// with them) and 8 are still referenced by the owner's RootRefs.
type scanFixture struct {
	p    *shm.Pool
	geo  *layout.Geometry
	x    *shm.Client // the scanning executor
	seg  int
	pub  []layout.Addr // the page free list, head first
	lost []layout.Addr // lost blocks
	// lostSlots are the lost RootRef slots, adjacent and ascending.
	lostSlots []layout.Addr
	live      []layout.Addr // blocks the survivor holds
}

func newScanFixture(t *testing.T, backend string) *scanFixture {
	t.Helper()
	p, err := shm.NewPool(shm.Config{Backend: backend, Geometry: layout.GeometryConfig{
		MaxClients:   8,
		NumSegments:  16,
		SegmentWords: 1 << 13,
		PageWords:    1 << 9,
		MaxQueues:    8,
	}})
	if err != nil {
		t.Fatalf("NewPool(%s): %v", backend, err)
	}
	t.Cleanup(func() { p.CloseDevice() })
	f := &scanFixture{p: p, geo: p.Geometry()}
	owner, survivor := connect(t, p), connect(t, p)
	f.x = connect(t, p)
	var roots, blocks []layout.Addr
	for i := 0; i < 24; i++ {
		r, b, err := owner.Malloc(64, 0)
		if err != nil {
			t.Fatal(err)
		}
		roots, blocks = append(roots, r), append(blocks, b)
	}
	f.seg = f.geo.SegmentIndexOf(blocks[0])
	pg := f.geo.PageIndexOf(f.seg, blocks[0])
	if f.geo.SegmentIndexOf(blocks[23]) != f.seg || f.geo.PageIndexOf(f.seg, blocks[23]) != pg {
		t.Fatal("fixture blocks span more than one page")
	}
	meta := f.geo.PageMetaAddr(f.seg, pg)
	f.live = blocks[:4]
	for _, b := range f.live {
		if _, err := survivor.AttachRoot(b); err != nil {
			t.Fatal(err)
		}
	}
	release := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if freed, err := owner.ReleaseRoot(roots[i]); err != nil || !freed {
				t.Fatalf("ReleaseRoot(%d): freed=%v err=%v", i, freed, err)
			}
		}
	}
	release(4, 12)
	owner.Flush()
	release(12, 16)
	f.lost, f.lostSlots = blocks[12:16], roots[12:16]
	for i := 1; i < len(f.lostSlots); i++ {
		if f.lostSlots[i] != f.lostSlots[i-1]+layout.RootRefWords {
			t.Fatal("fixture lost slots are not adjacent")
		}
	}
	dev := p.Device()
	for b := dev.Load(meta + 1); b != 0; b = dev.Load(b + layout.DataOff) { // pmFree
		f.pub = append(f.pub, b)
	}
	if len(f.pub) != 8 {
		t.Fatalf("published free list has %d blocks, want 8", len(f.pub))
	}
	// The owner dies with its deferred frees unpublished.
	if err := p.MarkClientDead(owner.ID()); err != nil {
		t.Fatal(err)
	}
	return f
}

// A segment-local scan is recovery machinery: it must terminate, without a
// panic, over free chains a corruption damaged. The conservative scan
// (ownerDead=false: the one an owner runs over its own segment, and the fsck
// over a segment whose owner it cannot prove dead) still walks the chains and
// re-links what no list holds; it must classify every block exactly as the
// hash-set scan it replaced did — the expected re-link counts were recorded
// from that version. A dead owner's scan (ownerDead=true) judges by refcount
// alone: the same damage changes nothing in its report, and it writes no word
// of any chain.
func TestScanDamagedFreeChains(t *testing.T) {
	tail := func(f *scanFixture) layout.Addr { return f.pub[len(f.pub)-1] + layout.DataOff }
	// Conservative scan: the owner's 12 in_use RootRefs and the 12 blocks
	// they and the survivor hold stay live; the 4 lost slots and the 4 lost
	// blocks are re-linked unless the damaged chain reaches them first.
	relinked := func(n int) shm.ScanReport {
		return shm.ScanReport{Relinked: n, Live: 24}
	}
	// Dead owner's scan: 12 RootRefs swept, the survivor's 4 blocks stay live.
	byRefcount := shm.ScanReport{SweptRoots: 12, Live: 4}
	cases := []struct {
		name   string
		damage func(f *scanFixture)
		want   shm.ScanReport
	}{
		{
			name:   "undamaged",
			damage: func(f *scanFixture) {},
			want:   relinked(8),
		},
		{
			// (a) the page free list's tail points back at its head.
			name: "cycle",
			damage: func(f *scanFixture) {
				f.p.Device().Store(tail(f), f.pub[0])
			},
			want: relinked(8),
		},
		{
			// (b) the chain leaves for another segment and comes back at a lost
			// block, which is therefore on a list and must not be re-linked.
			name: "cross-segment",
			damage: func(f *scanFixture) {
				dev := f.p.Device()
				out := f.geo.SegmentBase(f.geo.NumSegments-1) + 64
				dev.Store(tail(f), out)
				dev.Store(out+layout.DataOff, f.lost[0])
				dev.Store(f.lost[0]+layout.DataOff, 0)
			},
			want: relinked(7),
		},
		{
			// (c) the chain lands in the middle of a live block, whose data
			// sends it into the RootRef page: a lost slot reached this way
			// counts as on a list; the slot after it (cleared, so its first
			// word ends the chain) is still re-linked.
			name: "mid-block-and-rootref-page",
			damage: func(f *scanFixture) {
				dev := f.p.Device()
				mid := f.live[0] + 1
				dev.Store(tail(f), mid)
				dev.Store(mid+layout.DataOff, f.lostSlots[0])
			},
			want: relinked(7),
		},
		{
			// (d) client_free runs through more nodes than the segment has
			// words of pages before it reaches a lost block: the step bound
			// ends the walk first, so the block is still re-linked.
			name: "client-free-longer-than-bound",
			damage: func(f *scanFixture) {
				dev := f.p.Device()
				n := int(dev.Load(f.geo.SegNextPageAddr(f.seg)))*int(f.geo.PageWords) + 8
				node := f.geo.SegmentBase(f.geo.NumSegments - 2)
				dev.Store(f.geo.SegClientFreeAddr(f.seg), node)
				for i := 0; i < n; i++ {
					dev.Store(node+layout.DataOff, node+4)
					node += 4
				}
				dev.Store(node+layout.DataOff, f.lost[0])
				dev.Store(f.lost[0]+layout.DataOff, 0)
			},
			want: relinked(8),
		},
	}
	for _, backend := range []string{"heap", "mmap"} {
		for _, tc := range cases {
			t.Run(backend+"/"+tc.name, func(t *testing.T) {
				f := newScanFixture(t, backend)
				tc.damage(f)
				if got := f.x.ScanSegment(f.seg, false); got != tc.want {
					t.Errorf("conservative scan:\n got %+v\nwant %+v", got, tc.want)
				}
			})
			t.Run(backend+"/"+tc.name+"/dead-owner", func(t *testing.T) {
				f := newScanFixture(t, backend)
				tc.damage(f)
				chain := f.chainWords()
				before := f.loadAll(chain)
				if got := f.x.ScanSegment(f.seg, true); got != byRefcount {
					t.Errorf("dead owner's scan:\n got %+v\nwant %+v", got, byRefcount)
				}
				for i, w := range f.loadAll(chain) {
					if w != before[i] {
						t.Errorf("dead owner's scan wrote chain word %#x: %#x -> %#x", chain[i], before[i], w)
					}
				}
			})
		}
	}
}

// chainWords lists every word a free chain of the fixture's segment runs
// through: the two list heads and the next-pointer words of the published,
// the lost and the (lost) RootRef nodes.
func (f *scanFixture) chainWords() []layout.Addr {
	pg := f.geo.PageIndexOf(f.seg, f.pub[0])
	words := []layout.Addr{f.geo.PageMetaAddr(f.seg, pg) + 1, f.geo.SegClientFreeAddr(f.seg)} // pmFree
	for _, b := range append(append([]layout.Addr{}, f.pub...), f.lost...) {
		words = append(words, b+layout.DataOff)
	}
	for _, s := range f.lostSlots {
		words = append(words, s+layout.RootRefPptrOff)
	}
	return words
}

func (f *scanFixture) loadAll(addrs []layout.Addr) []uint64 {
	out := make([]uint64, len(addrs))
	for i, a := range addrs {
		out[i] = f.p.Device().Load(a)
	}
	return out
}

// newMixedScanSegment builds the shape the scan spends its time on after a
// recovery: one dead owner's segment with `free` blocks on its free lists
// and `live` blocks a survivor still holds. It returns the scanning
// executor, already past the first scan (which sweeps the owner's RootRefs),
// and the segment.
func newMixedScanSegment(tb testing.TB, free, live int) (*shm.Client, int) {
	tb.Helper()
	p, err := shm.NewPool(shm.Config{Geometry: layout.GeometryConfig{
		MaxClients: 4, NumSegments: 8, SegmentWords: 1 << 16,
	}})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { p.CloseDevice() })
	var cl [3]*shm.Client
	for i := range cl {
		if cl[i], err = p.Connect(); err != nil {
			tb.Fatal(err)
		}
	}
	owner, survivor, x := cl[0], cl[1], cl[2]
	seg := -1
	var roots []layout.Addr
	for i := 0; i < free+live; i++ {
		root, block, err := owner.Malloc(64, 0)
		if err != nil {
			tb.Fatal(err)
		}
		if s := p.Geometry().SegmentIndexOf(block); seg >= 0 && s != seg {
			tb.Fatal("blocks span more than one segment")
		} else {
			seg = s
		}
		if i < live {
			if _, err := survivor.AttachRoot(block); err != nil {
				tb.Fatal(err)
			}
		}
		roots = append(roots, root)
	}
	// Half the free blocks are freed and published by the owner itself, the
	// other half by the executor's sweep of the dead owner's RootRefs, which
	// free-marks them and lists them nowhere.
	for i := live; i < len(roots); i += 2 {
		if _, err := owner.ReleaseRoot(roots[i]); err != nil {
			tb.Fatal(err)
		}
	}
	owner.Flush()
	if err := p.MarkClientDead(owner.ID()); err != nil {
		tb.Fatal(err)
	}
	if rep := x.ScanSegment(seg, true); rep.Live != live || rep.Freed {
		tb.Fatalf("first scan: %+v, want %d live blocks", rep, live)
	}
	return x, seg
}

// A steady-state scan allocates nothing: what it keeps between calls (the
// membership set, the re-link candidates, the reclaim cascade's stack) is
// per-client scratch.
func TestScanSegmentAllocatesNothing(t *testing.T) {
	x, seg := newMixedScanSegment(t, 512, 32)
	geo, dev := x.Pool().Geometry(), x.Pool().Device()
	freeMarked := 0 // listed or not
	for pg := 0; pg < int(dev.Load(geo.SegNextPageAddr(seg))); pg++ {
		meta := geo.PageMetaAddr(seg, pg)
		info := layout.UnpackPageMeta(dev.Load(meta))
		if info.Kind != layout.PageKindNormal {
			continue
		}
		bw := layout.Addr(geo.Classes[info.SizeClass].BlockWords)
		for b := geo.PageBase(seg, pg); b+bw <= dev.Load(meta+2); b += bw { // pmScan
			if !layout.UnpackMeta(dev.Load(b + layout.MetaOff)).Allocated() {
				freeMarked++
			}
		}
	}
	if freeMarked < 500 {
		t.Fatalf("%d free-marked blocks in the segment, want at least 500", freeMarked)
	}
	want := shm.ScanReport{Live: 32}
	allocs := testing.AllocsPerRun(50, func() {
		if rep := x.ScanSegment(seg, true); rep != want {
			t.Fatalf("steady-state scan: %+v, want %+v", rep, want)
		}
	})
	if allocs != 0 {
		t.Fatalf("ScanSegment allocates %v times per scan in steady state, want 0", allocs)
	}
}

// peerHeldBlock builds the set-up of the live-freeer tests: a block in owner's
// segment on which peer holds the last reference (through root), and an idle
// executor x. hook, if not nil, observes every device access.
func peerHeldBlock(t *testing.T, hook cxl.AccessHook) (p *shm.Pool, owner, peer, x *shm.Client, root, block layout.Addr) {
	t.Helper()
	p, err := shm.NewPool(shm.Config{
		Geometry:  layout.GeometryConfig{MaxClients: 8, NumSegments: 16, SegmentWords: 1 << 13, PageWords: 1 << 9, MaxQueues: 8},
		Intercept: cxl.Intercept{Access: hook},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.CloseDevice() })
	owner, peer, x = connect(t, p), connect(t, p), connect(t, p)
	ownRoot, block, err := owner.Malloc(64, 0)
	if err != nil {
		t.Fatal(err)
	}
	if root, err = peer.AttachRoot(block); err != nil {
		t.Fatal(err)
	}
	if _, err := owner.ReleaseRoot(ownRoot); err != nil {
		t.Fatal(err)
	}
	return p, owner, peer, x, root, block
}

// The one case in which a dead owner's scan still consults a list: a live
// client chose to push its free onto client_free while the owner was alive,
// and the owner died before the push landed. The free-marked block names that
// live freeer, so it is pending — the segment must not be released under the
// push — until client_free holds it. The access hook is the scheduling point:
// it runs the owner's death and a scan between the freeer's free-mark and the
// first access of its push.
func TestDeadOwnerScanWaitsForLivePush(t *testing.T) {
	var between func()
	var freeer int
	var cf layout.Addr
	p, owner, peer, x, root, block := peerHeldBlock(t, func(cid int, kind cxl.AccessKind, a cxl.Addr) {
		if f := between; f != nil && cid == freeer && kind == cxl.OpLoad && a == cf {
			between = nil
			f()
		}
	})
	seg := p.Geometry().SegmentIndexOf(block)
	freeer, cf = peer.ID(), p.Geometry().SegClientFreeAddr(seg)
	between = func() {
		if err := p.MarkClientDead(owner.ID()); err != nil {
			t.Fatal(err)
		}
		if m := layout.UnpackMeta(p.Device().Load(block + layout.MetaOff)); m.Allocated() || int(m.EmbedCnt) != freeer {
			t.Fatalf("block not free-marked by the live freeer before its push: %+v", m)
		}
		if rep := x.ScanSegment(seg, true); rep.Pending != 1 || rep.Quiet || rep.Freed {
			t.Fatalf("scan under a push in flight: %+v, want the block pending and the segment kept", rep)
		}
	}
	if freed, err := peer.ReleaseRoot(root); err != nil || !freed {
		t.Fatalf("ReleaseRoot: freed=%v err=%v", freed, err)
	}
	if between != nil {
		t.Fatal("the release never reached its client_free push")
	}
	if got := p.Device().Load(cf); got != block {
		t.Fatalf("client_free head %#x after the push, want the block %#x", got, block)
	}
	if rep := x.ScanSegment(seg, true); rep.Pending != 0 || !rep.Freed {
		t.Fatalf("scan after the push landed: %+v, want the segment released", rep)
	}
	if st := p.SegState(seg); st.State != layout.SegFree {
		t.Fatalf("segment state %d after the release, want FREE", st.State)
	}
}

// The push of a live freeer may have left client_free again before the owner
// died: the owner collects that list into its pages' free lists. The block
// still names the live freeer, so a dead owner's scan must look for it on the
// page lists too, or the segment would stay pending for as long as the freeer
// lives.
func TestDeadOwnerScanFindsCollectedPush(t *testing.T) {
	p, owner, peer, x, root, block := peerHeldBlock(t, nil)
	if freed, err := peer.ReleaseRoot(root); err != nil || !freed {
		t.Fatalf("ReleaseRoot: freed=%v err=%v", freed, err)
	}
	geo, dev := p.Geometry(), p.Device()
	seg := geo.SegmentIndexOf(block)
	cf := geo.SegClientFreeAddr(seg)
	if dev.Load(cf) != block {
		t.Fatal("the peer's free did not land on client_free")
	}
	// What the owner's collection does: client_free emptied, the block chained
	// onto its page's free list.
	pmFree := geo.PageMetaAddr(seg, geo.PageIndexOf(seg, block)) + 1
	dev.Store(cf, 0)
	dev.Store(block+layout.DataOff, dev.Load(pmFree))
	dev.Store(pmFree, block)
	if err := p.MarkClientDead(owner.ID()); err != nil {
		t.Fatal(err)
	}
	if rep := x.ScanSegment(seg, true); rep.Pending != 0 || !rep.Freed {
		t.Fatalf("scan: %+v, want the segment released", rep)
	}
}
