package cxl

import (
	"bytes"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func newTestDevice(t *testing.T, words int) *Device {
	t.Helper()
	d, err := NewDevice(Config{Words: words, MaxClients: 16, CountAccesses: true})
	if err != nil {
		t.Fatalf("NewDevice: %v", err)
	}
	return d
}

func TestNewDeviceRejectsBadConfig(t *testing.T) {
	if _, err := NewDevice(Config{Words: 0, MaxClients: 4}); err == nil {
		t.Fatal("expected error for zero-size pool")
	}
	if _, err := NewDevice(Config{Words: -5, MaxClients: 4}); err == nil {
		t.Fatal("expected error for negative pool")
	}
	if _, err := NewDevice(Config{Words: 64, MaxClients: 0}); err == nil {
		t.Fatal("expected error for zero MaxClients")
	}
}

func TestLoadStoreRoundTrip(t *testing.T) {
	d := newTestDevice(t, 128)
	h := d.Open(1)
	for a := Addr(1); a < 128; a++ {
		h.Store(a, a*3+7)
	}
	for a := Addr(1); a < 128; a++ {
		if got := h.Load(a); got != a*3+7 {
			t.Fatalf("word %d: got %d, want %d", a, got, a*3+7)
		}
	}
}

func TestNilAndOutOfRangePanics(t *testing.T) {
	d := newTestDevice(t, 16)
	h := d.Open(1)
	for _, a := range []Addr{0, 16, 1 << 40} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("access at %#x: expected panic", a)
				}
			}()
			h.Load(a)
		}()
	}
}

func TestCASSemantics(t *testing.T) {
	d := newTestDevice(t, 16)
	h := d.Open(1)
	h.Store(5, 10)
	if !h.CAS(5, 10, 20) {
		t.Fatal("CAS with matching old value should succeed")
	}
	if h.CAS(5, 10, 30) {
		t.Fatal("CAS with stale old value should fail")
	}
	if got := h.Load(5); got != 20 {
		t.Fatalf("after CAS: got %d, want 20", got)
	}
}

func TestRASFencingDropsWrites(t *testing.T) {
	d := newTestDevice(t, 16)
	h := d.Open(3)
	h.Store(4, 99)
	d.FenceClient(3)
	if !h.Fenced() {
		t.Fatal("handle should observe fence")
	}
	h.Store(4, 123)
	if h.CAS(4, 99, 7) {
		t.Fatal("fenced CAS must fail")
	}
	if got := h.Load(4); got != 99 {
		t.Fatalf("fenced store leaked: got %d, want 99", got)
	}
	// Another client is unaffected.
	h2 := d.Open(4)
	h2.Store(4, 55)
	if got := h.Load(4); got != 55 {
		t.Fatalf("unfenced client's store lost: got %d", got)
	}
	// The fence ends the incarnation, not the client ID: a handle opened
	// after it (the slot's next lessee) writes, and the pre-fence handle
	// stays fenced beside it, also across a second fence and the handle
	// opened after that.
	next := d.Open(3)
	if next.Fenced() {
		t.Fatal("a handle opened after the fence starts fenced")
	}
	next.Store(4, 77)
	h.Store(4, 78)
	if h.CAS(4, 77, 79) {
		t.Fatal("the pre-fence handle's CAS landed beside the new incarnation")
	}
	if got := h.Load(4); got != 77 || !h.Fenced() {
		t.Fatalf("word %d, pre-fence handle fenced %v: want 77 written by the new handle, and fenced", got, h.Fenced())
	}
	d.FenceClient(3)
	third := d.Open(3)
	third.Store(4, 80)
	h.Store(4, 81)
	next.Store(4, 82)
	if got := h.Load(4); got != 80 || !next.Fenced() || third.Fenced() {
		t.Fatalf("after a second fence: word %d, fenced %v/%v/%v; want 80 and only the newest handle unfenced",
			got, h.Fenced(), next.Fenced(), third.Fenced())
	}
}

func TestFenceUnknownClientIsNoop(t *testing.T) {
	d := newTestDevice(t, 16)
	hs := make([]*Handle, d.MaxClients()+1)
	for cid := 1; cid <= d.MaxClients(); cid++ {
		hs[cid] = d.Open(cid)
	}
	d.FenceClient(-1)
	d.FenceClient(0)
	d.FenceClient(1 << 20)
	for cid := 1; cid <= d.MaxClients(); cid++ {
		if hs[cid].Fenced() {
			t.Fatalf("an out-of-range fence fenced client %d", cid)
		}
		hs[cid].Store(1, uint64(cid))
		if got := hs[cid].Load(1); got != uint64(cid) {
			t.Fatalf("client %d's store lost after out-of-range fences: word %d", cid, got)
		}
	}
}

func TestConcurrentCASCounter(t *testing.T) {
	d := newTestDevice(t, 16)
	const goroutines = 8
	const perG = 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(cid int) {
			defer wg.Done()
			h := d.Open(cid)
			for i := 0; i < perG; i++ {
				for {
					old := h.Load(1)
					if h.CAS(1, old, old+1) {
						break
					}
				}
			}
		}(g + 1)
	}
	wg.Wait()
	if got := d.Load(1); got != goroutines*perG {
		t.Fatalf("counter = %d, want %d", got, goroutines*perG)
	}
}

func TestReadWriteBytesRoundTrip(t *testing.T) {
	d := newTestDevice(t, 64)
	h := d.Open(1)
	f := func(data []byte, off uint8) bool {
		if len(data) > 100 {
			data = data[:100]
		}
		o := int(off % 24)
		h.WriteBytes(8, o, data)
		got := make([]byte, len(data))
		h.ReadBytes(8, o, got)
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestWriteBytesDoesNotClobberNeighbours(t *testing.T) {
	d := newTestDevice(t, 64)
	h := d.Open(1)
	h.Store(8, ^uint64(0))
	h.Store(9, ^uint64(0))
	h.Store(10, ^uint64(0))
	// Write 8 bytes starting at byte offset 4: spans words 8 and 9 partially.
	h.WriteBytes(8, 4, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	got := make([]byte, 24)
	h.ReadBytes(8, 0, got)
	want := []byte{
		0xff, 0xff, 0xff, 0xff, 1, 2, 3, 4,
		5, 6, 7, 8, 0xff, 0xff, 0xff, 0xff,
		0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("neighbour bytes clobbered:\n got %v\nwant %v", got, want)
	}
}

func TestStatsAccounting(t *testing.T) {
	d := newTestDevice(t, 16)
	d.ResetStats()
	h := d.Open(1)
	h.Store(1, 1)
	h.Load(1)
	h.CAS(1, 1, 2)
	h.Flush(1)
	h.SFence()
	s := d.Stats()
	if s.Stores != 1 || s.Loads != 1 || s.CASes != 1 || s.Flushes != 1 || s.Fences != 1 {
		t.Fatalf("stats = %+v, want one of each", s)
	}
	d.ResetStats()
	if s := d.Stats(); s != (Stats{}) {
		t.Fatalf("after reset stats = %+v, want zero", s)
	}
}

func TestLineCacheHitsAndInvalidation(t *testing.T) {
	var c lineCache
	if c.touch(8) {
		t.Fatal("first touch should miss")
	}
	if !c.touch(9) {
		t.Fatal("same line should hit")
	}
	if !c.touch(15) {
		t.Fatal("word 15 shares the line starting at word 8")
	}
	if c.touch(16) {
		t.Fatal("next line should miss")
	}
	c.invalidate(8)
	if c.touch(8) {
		t.Fatal("invalidated line should miss")
	}
}

func TestLatencyModelChargesMisses(t *testing.T) {
	d, err := NewDevice(Config{Words: 1 << 14, MaxClients: 2})
	if err != nil {
		t.Fatal(err)
	}
	d.SetIntercept(Intercept{Latency: Latency{MissNS: 2000}})
	h := d.Open(1)
	// Repeated access to one line: first is a miss, the rest hit.
	t0 := time.Now()
	h.Load(8)
	firstAccess := time.Since(t0)
	t0 = time.Now()
	for i := 0; i < 100; i++ {
		h.Load(8)
	}
	perHit := time.Since(t0) / 100
	if firstAccess < 1500*time.Nanosecond {
		t.Fatalf("miss charged only %v, want ~2µs", firstAccess)
	}
	if perHit > firstAccess/2 {
		t.Fatalf("cache hits not cheaper than misses: hit %v vs miss %v", perHit, firstAccess)
	}
	// CAS invalidates the line: the next load misses again.
	h.CAS(8, h.Load(8), 1)
	t0 = time.Now()
	h.Load(8)
	if afterCAS := time.Since(t0); afterCAS < 1500*time.Nanosecond {
		t.Fatalf("post-CAS load charged only %v, want a miss", afterCAS)
	}
}

func TestLatencyProfilesOrdering(t *testing.T) {
	if !(LatencyLocalNUMA.MissNS < LatencyRemoteNUMA.MissNS &&
		LatencyRemoteNUMA.MissNS < LatencyCXL.MissNS) {
		t.Fatal("latency profiles must order local < remote NUMA < CXL")
	}
}
