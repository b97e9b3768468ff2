package cxl

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// openBoth returns a device of the given size on each backend, by name.
func openBoth(t *testing.T, words int, count bool) map[string]*Device {
	t.Helper()
	cfg := Config{Words: words, MaxClients: 4, CountAccesses: count}
	heap, err := NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mm, err := NewAnonMapDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mm.Close() })
	return map[string]*Device{"heap": heap, "mmap": mm}
}

// TestStoreOrderMessagePassing is the message-passing litmus test of the
// device's store: a writer stores payload words, each on its own cache
// line, then a sequence word; a reader loads the sequence word, then the
// payload, and must never find a payload word older than the sequence it
// read. Both run on fast-path handles, so the stores are the bare primitive
// (a plain MOVQ on amd64): the test holds because x86-TSO keeps a store
// ordered after earlier stores and a load after earlier loads. The writer
// runs until the reader has seen the sequence move rounds times.
func TestStoreOrderMessagePassing(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("a litmus test needs the writer and the reader running at once")
	}
	const (
		rounds = 100_000
		seqA   = Addr(1)
	)
	payload := []Addr{8, 16, 24, 32}
	for name, d := range openBoth(t, 64, false) {
		t.Run(name, func(t *testing.T) {
			w, r := d.Open(1), d.Open(2)
			if w.words == nil || r.words == nil {
				t.Fatal("handles are off the fast path")
			}
			var stop atomic.Bool
			done := make(chan struct{})
			go func() {
				defer close(done)
				for i := uint64(1); !stop.Load(); i++ {
					for _, a := range payload {
						w.Store(a, i)
					}
					w.Store(seqA, i)
				}
			}()
			var reads, moved, stale int
			for last := uint64(0); moved < rounds; reads++ {
				seq := r.Load(seqA)
				if seq != last {
					moved, last = moved+1, seq
				}
				for _, a := range payload {
					if v := r.Load(a); v < seq {
						if stale++; stale <= 3 {
							t.Errorf("read sequence %d, then payload word %d = %d", seq, a, v)
						}
					}
				}
			}
			stop.Store(true)
			<-done
			t.Logf("%d reads, %d of them saw the sequence move", reads, moved)
			if stale > 0 {
				t.Fatalf("%d payload loads in %d reads were older than their sequence", stale, reads)
			}
		})
	}
}

// TestStorePathsAgree stores one set of words through each of the three
// callers of the store primitive — the management plane's Device.Store, a
// fast-path Handle.Store and a slow-path one (an access hook, and access
// counting) — on both backends, and demands identical words and, where
// counting is on, one counted store per call.
func TestStorePathsAgree(t *testing.T) {
	const words = 32
	values := []uint64{0, 1, 1 << 63, ^uint64(0), 0x0123456789abcdef, 0xfedcba9876543210}
	script := func(store func(Addr, uint64)) (n uint64) {
		for a := Addr(1); a < words; a++ {
			store(a, values[int(a)%len(values)]^a<<32)
			n++
		}
		store(5, 0)
		store(words-1, ^uint64(0))
		return n + 2
	}
	paths := []struct {
		name                      string
		count, hook, device, fast bool
	}{
		{name: "Device.Store", device: true},
		{name: "Device.Store/counted", count: true, device: true},
		{name: "Handle.Store/fast", fast: true},
		{name: "Handle.Store/slow-hook", hook: true},
		{name: "Handle.Store/slow-counted", count: true},
	}
	want := map[Addr]uint64{}
	for _, p := range paths {
		for name, d := range openBoth(t, words, p.count) {
			t.Run(fmt.Sprintf("%s/%s", name, p.name), func(t *testing.T) {
				hooked := 0
				if p.hook {
					d.SetIntercept(Intercept{Access: func(int, AccessKind, Addr) { hooked++ }})
				}
				store := d.Store
				if !p.device {
					h := d.Open(1)
					if fast := h.words != nil; fast != p.fast {
						t.Fatalf("fast path taken: %v, want %v", fast, p.fast)
					}
					store = h.Store
				}
				n := script(store)
				for a := Addr(1); a < words; a++ {
					got := d.Load(a)
					if w, ok := want[a]; !ok {
						want[a] = got
					} else if got != w {
						t.Errorf("word %d = %#x, want %#x", a, got, w)
					}
				}
				wantCount := uint64(0)
				if p.count {
					wantCount = n
				}
				if s := d.Stats(); s.Stores != wantCount || s.CASes != 0 {
					t.Errorf("Stats() = %+v, want %d stores and no CAS", s, wantCount)
				}
				if p.hook && hooked != int(n)+words-1 { // the stores and the check loads
					t.Errorf("access hook saw %d accesses, want %d", hooked, int(n)+words-1)
				}
			})
		}
	}
}
