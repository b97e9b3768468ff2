package shm_test

import (
	"testing"

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
// panic, over free chains a corruption damaged, and classify every block
// exactly as the hash-set scan it replaced did — the expected reports were
// recorded from that version.
func TestScanDamagedFreeChains(t *testing.T) {
	tail := func(f *scanFixture) layout.Addr { return f.pub[len(f.pub)-1] + layout.DataOff }
	// 12 owner RootRefs swept (the slots then re-linked with the 4 lost ones
	// and the 4 lost blocks); the survivor's 4 blocks stay live.
	relinked := func(n int) shm.ScanReport {
		return shm.ScanReport{Relinked: n, SweptRoots: 12, Live: 4}
	}
	cases := []struct {
		name   string
		damage func(f *scanFixture)
		want   shm.ScanReport
	}{
		{
			name:   "undamaged",
			damage: func(f *scanFixture) {},
			want:   relinked(20),
		},
		{
			// (a) the page free list's tail points back at its head.
			name: "cycle",
			damage: func(f *scanFixture) {
				f.p.Device().Store(tail(f), f.pub[0])
			},
			want: relinked(20),
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
			want: relinked(19),
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
			want: relinked(19),
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
			want: relinked(20),
		},
	}
	for _, backend := range []string{"heap", "mmap"} {
		for _, tc := range cases {
			t.Run(backend+"/"+tc.name, func(t *testing.T) {
				f := newScanFixture(t, backend)
				tc.damage(f)
				if got := f.x.ScanSegment(f.seg, true); got != tc.want {
					t.Errorf("first scan:\n got %+v\nwant %+v", got, tc.want)
				}
			})
		}
	}
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
	// Half the free blocks reach the lists through the owner's own
	// publication, the other half through the executor's sweep of the dead
	// owner's RootRefs, which pushes them onto client_free.
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

// A steady-state scan allocates nothing: the membership set, the re-link
// candidates and the reclaim cascade's stack are per-client scratch.
func TestScanSegmentAllocatesNothing(t *testing.T) {
	x, seg := newMixedScanSegment(t, 512, 32)
	geo, dev := x.Pool().Geometry(), x.Pool().Device()
	listed := 0
	for b := dev.Load(geo.SegClientFreeAddr(seg)); b != 0; b = dev.Load(b + layout.DataOff) {
		listed++
	}
	for pg := 0; pg < int(dev.Load(geo.SegNextPageAddr(seg))); pg++ {
		meta := geo.PageMetaAddr(seg, pg)
		if layout.UnpackPageMeta(dev.Load(meta)).Kind != layout.PageKindNormal {
			continue
		}
		for b := dev.Load(meta + 1); b != 0; b = dev.Load(b + layout.DataOff) { // pmFree
			listed++
		}
	}
	if listed < 500 {
		t.Fatalf("%d blocks on the segment's free lists, want at least 500", listed)
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
