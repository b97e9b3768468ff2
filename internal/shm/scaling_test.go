package shm_test

import (
	"testing"

	"repro/internal/cxl"
	"repro/internal/layout"
	"repro/internal/shm"
)

// The client-scaling curve: how attachment and per-operation device cost
// behave as the number of attached clients grows toward the slot-lease
// design target of 256. The load-bearing claim is that attach cost depends
// neither on the slot table size nor on the number of clients already
// attached: the free-slot bitmap makes the claim two CASes and the era row
// is seeded lazily instead of with MaxClients eager loads.

// scalePoint is one client count of the curve, in device accesses.
type scalePoint struct {
	clients int
	// connectCAS / connectAcc are the mean CASes and accesses per Connect
	// over all N attachments; lastCAS / lastAcc isolate the N-th, where a
	// scan-based claim or an eager era-row load would show its growth.
	connectCAS, connectAcc float64
	lastCAS, lastAcc       float64
	// alloc / free are the accesses per Malloc / ReleaseRoot with all N
	// clients attached and allocating round-robin.
	alloc, free float64
}

// measureScalePoint attaches n clients to one pool whose slot table is sized
// past the 256-client target (so any dependence on it shows at every n),
// then has every client allocate 2048/n objects round-robin and free them.
func measureScalePoint(t *testing.T, n int) scalePoint {
	t.Helper()
	p, err := shm.NewPool(shm.Config{
		Geometry: layout.GeometryConfig{
			MaxClients:   260,
			NumSegments:  600,
			SegmentWords: 1 << 13,
			PageWords:    1 << 9,
			MaxQueues:    8,
		},
		CountAccesses: true,
	})
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	defer p.CloseDevice()
	dev := p.Device()
	accesses := func(s cxl.Stats) float64 { return float64(s.Loads + s.Stores + s.CASes) }

	clients := make([]*shm.Client, 0, n)
	dev.ResetStats()
	for i := 0; i < n-1; i++ {
		clients = append(clients, connect(t, p))
	}
	bulk := dev.Stats()
	dev.ResetStats()
	clients = append(clients, connect(t, p))
	last := dev.Stats()
	pt := scalePoint{
		clients:    n,
		connectCAS: float64(bulk.CASes+last.CASes) / float64(n),
		connectAcc: (accesses(bulk) + accesses(last)) / float64(n),
		lastCAS:    float64(last.CASes),
		lastAcc:    accesses(last),
	}

	opsPer := max(2048/n, 4)
	roots := make([][]layout.Addr, n)
	dev.ResetStats()
	for i := 0; i < opsPer; i++ {
		for ci, c := range clients {
			r, _, err := c.Malloc(64, 0)
			if err != nil {
				t.Fatal(err)
			}
			roots[ci] = append(roots[ci], r)
		}
	}
	pt.alloc = accesses(dev.Stats()) / float64(n*opsPer)
	dev.ResetStats()
	for ci, c := range clients {
		for _, r := range roots[ci] {
			if _, err := c.ReleaseRoot(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	pt.free = accesses(dev.Stats()) / float64(n*opsPer)
	return pt
}

// TestClientScalingAccessBudget pins the whole curve: two CASes per attach
// at every point, and per-point budgets for attach, alloc and free about 5 %
// over the measured counts. `go test -v` prints the measured curve.
func TestClientScalingAccessBudget(t *testing.T) {
	for _, b := range []struct {
		clients     int
		alloc, free float64
	}{
		{1, 7.60, 5.33},
		{4, 7.56, 5.33},
		{16, 7.60, 5.31},
		{64, 7.84, 3.15},
		{128, 8.34, 3.15},
		{256, 9.32, 3.15},
	} {
		pt := measureScalePoint(t, b.clients)
		t.Logf("%3d clients: connect %.2f CAS / %.2f accesses, last connect %.0f / %.0f, alloc %.3f, free %.3f",
			pt.clients, pt.connectCAS, pt.connectAcc, pt.lastCAS, pt.lastAcc, pt.alloc, pt.free)
		if pt.connectCAS != 2 || pt.lastCAS != 2 {
			t.Errorf("%d clients: connect takes %.2f CASes (last %.0f), want 2", b.clients, pt.connectCAS, pt.lastCAS)
		}
		if pt.connectAcc > 206 || pt.lastAcc > 208 {
			t.Errorf("%d clients: connect costs %.2f accesses (last %.0f), budget 206 (208)",
				b.clients, pt.connectAcc, pt.lastAcc)
		}
		if pt.alloc > b.alloc {
			t.Errorf("%d clients: malloc touches %.3f device words/op, budget %.2f", b.clients, pt.alloc, b.alloc)
		}
		if pt.free > b.free {
			t.Errorf("%d clients: free touches %.3f device words/op, budget %.2f", b.clients, pt.free, b.free)
		}
	}
}

// TestClientScalingAttachIsO1 pins the claim relative to one client:
// attaching the 256th client costs the same CASes as attaching the 1st, and
// its accesses grow only by the bitmap words the claim skips.
func TestClientScalingAttachIsO1(t *testing.T) {
	base := measureScalePoint(t, 1)
	for _, n := range []int{64, 256} {
		pt := measureScalePoint(t, n)
		if pt.lastCAS != base.lastCAS {
			t.Errorf("attach at %d clients took %.0f CASes, at 1 client %.0f — claim is not O(1)",
				n, pt.lastCAS, base.lastCAS)
		}
		// The only tolerated growth is the bitmap scan skipping full words:
		// one extra load per 64 exhausted slots, nowhere near the 260-word
		// era row an eager attach would read.
		extra := pt.lastAcc - base.lastAcc
		if allowed := float64(n)/64 + 2; extra > allowed {
			t.Errorf("attach at %d clients costs %.0f accesses vs %.0f at 1 client (+%.0f > %.0f allowed)",
				n, pt.lastAcc, base.lastAcc, extra, allowed)
		}
	}
}
