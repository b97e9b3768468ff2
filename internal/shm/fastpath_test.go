package shm_test

import (
	"math/rand"
	"testing"

	"repro/internal/layout"
	"repro/internal/shm"
)

// Access-budget regression tests: the fast paths' cost is counted in device
// words touched per operation, the cost that carries over to real CXL
// hardware, so it is pinned here as budgets about 5 % over the measured steady
// state (malloc 7.17, free 5.03, send+receive+release 30.02 on both
// backends), so a regression that reintroduces per-op metadata traffic trips
// them immediately. `go test -v -run TestDeviceAccessBudget`
// prints the measured counts.

func newCountingPool(t *testing.T) *shm.Pool {
	t.Helper()
	p, err := shm.NewPool(shm.Config{
		Geometry: layout.GeometryConfig{
			MaxClients:   8,
			NumSegments:  128,
			SegmentWords: 1 << 15,
			PageWords:    1 << 11,
		},
		CountAccesses: true,
	})
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	return p
}

func TestDeviceAccessBudget(t *testing.T) {
	p := newCountingPool(t)
	c := connect(t, p)
	dev := p.Device()
	const n = 4000
	roots := make([]layout.Addr, 0, n)
	// Warm up so page claiming amortizes out of the measured window.
	for i := 0; i < 256; i++ {
		r, _, err := c.Malloc(64, 0)
		if err != nil {
			t.Fatal(err)
		}
		roots = append(roots, r)
	}
	for _, r := range roots {
		if _, err := c.ReleaseRoot(r); err != nil {
			t.Fatal(err)
		}
	}
	roots = roots[:0]

	perOp := func(f func()) float64 {
		dev.ResetStats()
		f()
		s := dev.Stats()
		return float64(s.Loads+s.Stores+s.CASes) / n
	}

	mallocCost := perOp(func() {
		for i := 0; i < n; i++ {
			r, _, err := c.Malloc(64, 0)
			if err != nil {
				t.Fatal(err)
			}
			roots = append(roots, r)
		}
	})
	freeCost := perOp(func() {
		for _, r := range roots {
			if _, err := c.ReleaseRoot(r); err != nil {
				t.Fatal(err)
			}
		}
	})
	t.Logf("malloc %.3f, free %.3f, pair %.3f device accesses/op", mallocCost, freeCost, mallocCost+freeCost)
	if mallocCost > 7.5 {
		t.Errorf("malloc touches %.2f device words/op, budget 7.5", mallocCost)
	}
	if freeCost > 5.3 {
		t.Errorf("free touches %.2f device words/op, budget 5.3", freeCost)
	}
	if pair := mallocCost + freeCost; pair > 12.8 {
		t.Errorf("malloc+free pair touches %.2f device words, budget 12.8", pair)
	}

	snd := connect(t, p)
	rcv := connect(t, p)
	_, q, err := snd.CreateQueue(rcv.ID(), 64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rcv.OpenQueue(q); err != nil {
		t.Fatal(err)
	}
	_, obj, err := snd.Malloc(64, 0)
	if err != nil {
		t.Fatal(err)
	}
	trioCost := perOp(func() {
		for i := 0; i < n; i++ {
			if err := snd.Send(q, obj); err != nil {
				t.Fatal(err)
			}
			root, _, err := rcv.Receive(q)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := rcv.ReleaseRoot(root); err != nil {
				t.Fatal(err)
			}
		}
	})
	t.Logf("send+receive+release %.3f device accesses/op", trioCost)
	if trioCost > 31.5 {
		t.Errorf("send+receive+release touches %.2f device words, budget 31.5", trioCost)
	}
}

// TestShadowCoherentAfterWorkload drives a mixed workload — allocation in
// several size classes, frees in shuffled order, cross-client frees through
// the deferred list, embedded attach/release, and queue traffic — then
// verifies every client's shadow word-for-word against the device.
func TestShadowCoherentAfterWorkload(t *testing.T) {
	p := newTestPool(t)
	a := connect(t, p)
	b := connect(t, p)
	rng := rand.New(rand.NewSource(7))

	type held struct{ root, block layout.Addr }
	var live []held
	for i := 0; i < 3000; i++ {
		switch {
		case len(live) == 0 || rng.Intn(3) != 0:
			size := []int{16, 64, 256, 900}[rng.Intn(4)]
			root, block, err := a.Malloc(size, 0)
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, held{root, block})
		default:
			j := rng.Intn(len(live))
			h := live[j]
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			if rng.Intn(2) == 0 {
				// Cross-client release path: b attaches, a drops its root,
				// then b's release defers the free onto a's client_free list.
				broot, err := b.AttachRoot(h.block)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := a.ReleaseRoot(h.root); err != nil {
					t.Fatal(err)
				}
				if _, err := b.ReleaseRoot(broot); err != nil {
					t.Fatal(err)
				}
			} else {
				if _, err := a.ReleaseRoot(h.root); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	// Queue traffic between the two clients.
	_, q, err := a.CreateQueue(b.ID(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.OpenQueue(q); err != nil {
		t.Fatal(err)
	}
	_, obj, err := a.Malloc(64, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := a.Send(q, obj); err != nil {
			t.Fatal(err)
		}
		root, _, err := b.Receive(q)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.ReleaseRoot(root); err != nil {
			t.Fatal(err)
		}
	}
	for _, h := range live {
		if _, err := a.ReleaseRoot(h.root); err != nil {
			t.Fatal(err)
		}
	}
	// Remote frees of a one-block-per-page class: b frees a's block into a's
	// client_free list, so a's next refill of the class has no page left and
	// must collect it — dropping the block's reference shadow on the way —
	// instead of claiming a fresh page.
	var prev layout.Addr
	for i := 0; i < 4; i++ {
		root, block, err := a.Malloc(2000, 0)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && block != prev {
			t.Fatalf("refill %d claimed %#x instead of collecting the remotely freed %#x", i, block, prev)
		}
		broot, err := b.AttachRoot(block)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.ReleaseRoot(root); err != nil {
			t.Fatal(err)
		}
		if freed, err := b.ReleaseRoot(broot); err != nil || !freed {
			t.Fatalf("remote release: freed=%v err=%v", freed, err)
		}
		if err := a.CheckShadow(); err != nil {
			t.Fatalf("client a with block %#x on its client_free list: %v", block, err)
		}
		prev = block
	}
	if err := a.CheckShadow(); err != nil {
		t.Errorf("client a: %v", err)
	}
	if err := b.CheckShadow(); err != nil {
		t.Errorf("client b: %v", err)
	}
	mustValidate(t, p)
}

// TestFastPathZeroAllocs pins the host side of the fast paths: on a warmed
// client (pages claimed, reference tables allocated, pending lists grown) a
// malloc/free pair, an attach/release pair and a queue hand-off allocate
// nothing on the Go heap.
func TestFastPathZeroAllocs(t *testing.T) {
	p := newTestPool(t)
	a := connect(t, p)
	b := connect(t, p)
	_, q, err := a.CreateQueue(b.ID(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.OpenQueue(q); err != nil {
		t.Fatal(err)
	}
	_, obj, err := a.Malloc(64, 0)
	if err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name string
		op   func()
	}{
		{"Malloc+ReleaseRoot", func() {
			root, _, err := a.Malloc(64, 0)
			must(err)
			_, err = a.ReleaseRoot(root)
			must(err)
		}},
		{"AttachRoot+ReleaseRoot", func() {
			root, err := b.AttachRoot(obj)
			must(err)
			_, err = b.ReleaseRoot(root)
			must(err)
		}},
		{"Send+Receive+ReleaseRoot", func() {
			must(a.Send(q, obj))
			root, _, err := b.Receive(q)
			must(err)
			_, err = b.ReleaseRoot(root)
			must(err)
		}},
	} {
		// Warm-up past pendCap, so every publication burst's slices have
		// reached their steady-state capacity.
		for i := 0; i < 600; i++ {
			tc.op()
		}
		if n := testing.AllocsPerRun(1000, tc.op); n != 0 {
			t.Errorf("%s allocates %.2f objects/op, want 0", tc.name, n)
		}
	}
}
