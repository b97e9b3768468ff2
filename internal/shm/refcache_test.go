package shm

import (
	"testing"

	"repro/internal/layout"
	"repro/internal/obs"
)

// TestRefShadowMisses feeds the dense lookups every kind of address that is
// not a live entry of an owned page. A map lookup used to miss on these for
// free; a slice index has to be told to. Each must miss — through every
// helper that takes an arbitrary address — without panicking and without
// disturbing the live entries next to it.
func TestRefShadowMisses(t *testing.T) {
	p, err := NewPool(Config{Geometry: layout.GeometryConfig{
		MaxClients: 4, NumSegments: 8, SegmentWords: 1 << 13, PageWords: 1 << 9, MaxQueues: 4,
	}})
	if err != nil {
		t.Fatal(err)
	}
	c, err := p.Connect()
	if err != nil {
		t.Fatal(err)
	}
	other, err := p.Connect()
	if err != nil {
		t.Fatal(err)
	}
	root, block, err := c.Malloc(64, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, foreign, err := other.Malloc(64, 0)
	if err != nil {
		t.Fatal(err)
	}
	droppedRoot, dropped, err := c.Malloc(64, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReleaseRoot(droppedRoot); err != nil {
		t.Fatal(err)
	}
	if c.rootRef(root) == nil || c.blockRef(block) == nil {
		t.Fatal("live RootRef / block not shadowed")
	}
	geo := c.geo
	own := c.owned[0]

	for _, tc := range []struct {
		name     string
		addr     layout.Addr
		wantSeg  bool // ownedSegOf hits
		wantPage bool // ownedPageOf hits
	}{
		{name: "named-root directory word (segment -1)", addr: geo.RootDirAddr(0)},
		{name: "telemetry word (segment -1)", addr: geo.TelemetryBase},
		{name: "foreign segment", addr: foreign},
		{name: "segment header of an owned segment", addr: geo.SegmentBase(own.seg) + 1, wantSeg: true},
		{name: "unclaimed page of an owned segment", addr: geo.PageBase(own.seg, own.nextPage), wantSeg: true},
		{name: "RootRef pptr word (interior)", addr: root + layout.RootRefPptrOff, wantSeg: true, wantPage: true},
		{name: "block meta word (interior)", addr: block + layout.MetaOff, wantSeg: true, wantPage: true},
		{name: "block data word (interior)", addr: block + layout.DataOff, wantSeg: true, wantPage: true},
		{name: "freed RootRef slot", addr: droppedRoot, wantSeg: true, wantPage: true},
		{name: "freed block", addr: dropped, wantSeg: true, wantPage: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := tc.addr
			seg := geo.SegmentIndexOf(a)
			if got := c.ownedSegOf(seg) != nil; got != tc.wantSeg {
				t.Errorf("ownedSegOf(%d) hit=%v, want %v", seg, got, tc.wantSeg)
			}
			if got := c.ownedPageOf(seg, a) != nil; got != tc.wantPage {
				t.Errorf("ownedPageOf(%d, %#x) hit=%v, want %v", seg, a, got, tc.wantPage)
			}
			if rs := c.rootRef(a); rs != nil {
				t.Errorf("rootRef(%#x) = %+v, want miss", a, *rs)
			}
			if bs := c.blockRef(a); bs != nil {
				t.Errorf("blockRef(%#x) = %+v, want miss", a, *bs)
			}
			// Every helper that takes an arbitrary address must treat it as
			// a miss: no panic, the device fallback where it has one, and
			// the live neighbours untouched.
			c.noteRootTarget(a+layout.RootRefPptrOff, 0xdead)
			c.rootRef(a).drop()
			c.blockRef(a).noteHeader(0xdead)
			c.blockRef(a).drop()
			if op, bs := c.blockOf(a); bs != nil || (op != nil && !tc.wantPage) {
				t.Errorf("blockOf(%#x) = page %v, shadow %v; want no shadow, and no page outside an owned one", a, op != nil, bs != nil)
			}
		})
	}

	// A RootRef page has no block table and a normal page no root table.
	if rs := c.rootRef(block); rs != nil {
		t.Errorf("rootRef(block %#x) = %+v, want miss", block, *rs)
	}
	if bs := c.blockRef(root); bs != nil {
		t.Errorf("blockRef(root %#x) = %+v, want miss", root, *bs)
	}
	if rs := c.rootRef(root); rs == nil || rs.cnt != 1 || rs.target != block {
		t.Errorf("live RootRef shadow disturbed: %+v", rs)
	}
	if bs := c.blockRef(block); bs == nil || bs.header == 0xdead || bs.meta == 0xdead {
		t.Errorf("live block shadow disturbed: %+v", bs)
	}
	if err := c.CheckShadow(); err != nil {
		t.Errorf("shadow after the misses: %v", err)
	}
	if err := other.CheckShadow(); err != nil {
		t.Errorf("other client's shadow: %v", err)
	}
}

// A hand-off drops the sender's header guess: the receiver's release rewrites
// the header before the sender comes back to the block, and a stale guess
// costs a failed CAS, a re-load and a re-logged redo entry where no guess
// costs the load. Sender and receiver both retry nothing, and both shadows
// stay coherent with the device.
func TestHandOffDropsHeaderGuess(t *testing.T) {
	p, err := NewPool(Config{Geometry: layout.GeometryConfig{
		MaxClients: 4, NumSegments: 8, SegmentWords: 1 << 13, PageWords: 1 << 9, MaxQueues: 4,
	}})
	if err != nil {
		t.Fatal(err)
	}
	snd, err := p.Connect()
	if err != nil {
		t.Fatal(err)
	}
	rcv, err := p.Connect()
	if err != nil {
		t.Fatal(err)
	}
	_, q, err := snd.CreateQueue(rcv.ID(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rcv.OpenQueue(q); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		root, block, err := snd.Malloc(64, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := snd.Send(q, block); err != nil {
			t.Fatal(err)
		}
		if w, guessed := snd.guessHeader(snd.blockRef(block), block); guessed {
			t.Fatalf("the sender still guesses header %#x after the hand-off", w)
		}
		if err := snd.CheckShadow(); err != nil {
			t.Fatal(err)
		}
		got, _, err := rcv.Receive(q)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rcv.ReleaseRoot(got); err != nil {
			t.Fatal(err)
		}
		if freed, err := snd.ReleaseRoot(root); err != nil || !freed {
			t.Fatalf("sender's release: freed=%v err=%v", freed, err)
		}
	}
	for _, c := range []*Client{snd, rcv} {
		if n := c.Count(obs.CtrCASRetry); n != 0 {
			t.Fatalf("client %d retried %d CAS over 100 hand-offs", c.ID(), n)
		}
		if err := c.CheckShadow(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSlotIndexReciprocal checks the multiply that replaced the slot-index
// division against / and % for every offset of a page, for every block size
// and the RootRef slot size, at every page size the repository configures.
func TestSlotIndexReciprocal(t *testing.T) {
	for pw := uint64(1 << 9); pw <= 1<<12; pw <<= 1 {
		units := []layout.Addr{layout.RootRefWords}
		for _, c := range layout.BuildSizeClasses(pw) {
			units = append(units, layout.Addr(c.BlockWords))
		}
		for _, unit := range units {
			op := &ownedPage{base: 1 << 20, unit: unit, recip: recipOf(unit)}
			for off := layout.Addr(0); off < layout.Addr(pw); off++ {
				i, ok := op.slotOf(op.base + off)
				if i != int(off/unit) || ok != (off%unit == 0) {
					t.Fatalf("PageWords %d, unit %d, offset %d: slotOf = (%d, %v), want (%d, %v)",
						pw, unit, off, i, ok, off/unit, off%unit == 0)
				}
			}
		}
	}
}
