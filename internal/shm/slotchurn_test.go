package shm_test

// Property test for the slot-lease protocol under concurrent churn: several
// goroutines race Connect / Close / kill-9 / recovery over a slot table
// smaller than the goroutine count would like, so claims constantly collide
// and recycle. Two invariants are asserted over every observed lease:
//
//   - generation monotonicity: successive leases of the same slot carry
//     strictly increasing (odd) generations;
//   - exclusivity: no two live handles ever share a client ID.
//
// The test runs on both backends and is part of the -race CI leg — the
// claim path is lock-free CAS code, so the race detector doing its worst is
// the point.

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/layout"
	"repro/internal/recovery"
	"repro/internal/shm"
)

func TestSlotChurnConcurrentHeap(t *testing.T) { runSlotChurn(t, "heap") }
func TestSlotChurnConcurrentMmap(t *testing.T) { runSlotChurn(t, "mmap") }

func runSlotChurn(t *testing.T, backend string) {
	p, err := shm.NewPool(shm.Config{
		Geometry: layout.GeometryConfig{
			MaxClients:   12,
			NumSegments:  32,
			SegmentWords: 1 << 13,
			PageWords:    1 << 9,
			MaxQueues:    8,
		},
		Backend: backend,
	})
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	defer p.CloseDevice()
	svc, err := recovery.NewServiceWorkers(p, 4)
	if err != nil {
		t.Fatalf("NewServiceWorkers: %v", err)
	}

	const (
		workers = 6
		iters   = 40
	)
	var (
		mu      sync.Mutex
		lastGen = map[int]uint64{}
		live    = map[int]bool{}
	)
	// claimCheck records a fresh lease under mu and asserts both invariants;
	// dropLive deregisters the handle BEFORE the slot can become claimable
	// again (Close/kill only park the slot at DEAD; it re-enters the bitmap
	// when our own RecoverClient call finishes, after which another worker
	// may legitimately hold the cid).
	claimCheck := func(cid int, gen uint64) {
		mu.Lock()
		defer mu.Unlock()
		if gen%2 != 1 {
			t.Errorf("live lease on slot %d has even generation %d", cid, gen)
		}
		if live[cid] {
			t.Errorf("two live handles share client ID %d", cid)
		}
		live[cid] = true
		if prev, ok := lastGen[cid]; ok && gen <= prev {
			t.Errorf("slot %d generation not monotonic: %d after %d", cid, gen, prev)
		}
		lastGen[cid] = gen
	}
	dropLive := func(cid int) {
		mu.Lock()
		delete(live, cid)
		mu.Unlock()
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < iters; i++ {
				c, err := p.Connect()
				if err != nil {
					var full *shm.SlotExhaustedError
					if errors.As(err, &full) {
						continue // every slot leased or awaiting recovery; retry
					}
					t.Errorf("connect: %v", err)
					return
				}
				cid := c.ID()
				claimCheck(cid, c.Generation())

				// Some real work so kill-9 leaves objects for recovery.
				var roots []layout.Addr
				for j := 0; j < 1+rng.Intn(3); j++ {
					r, _, err := c.Malloc(48, 0)
					if err != nil {
						t.Errorf("malloc: %v", err)
						return
					}
					roots = append(roots, r)
				}
				if rng.Intn(2) == 0 { // clean exit path: release, then Close
					for _, r := range roots {
						if _, err := c.ReleaseRoot(r); err != nil {
							t.Errorf("release: %v", err)
							return
						}
					}
					dropLive(cid)
					if err := c.Close(); err != nil {
						t.Errorf("close: %v", err)
						return
					}
				} else { // kill-9: abandon the handle with objects still rooted
					dropLive(cid)
					if err := p.MarkClientDead(cid); err != nil {
						t.Errorf("mark dead: %v", err)
						return
					}
				}
				// Another worker's pass over an earlier lease of this slot may
				// still hold the recovery claim, which it releases after the
				// slot: the documented, retriable ErrRecoveryInProgress. Retry
				// that alone, for at most about five seconds.
				_, err = svc.RecoverClient(cid)
				for tries := 0; errors.Is(err, shm.ErrRecoveryInProgress) && tries < 5000; tries++ {
					time.Sleep(time.Millisecond)
					_, err = svc.RecoverClient(cid)
				}
				if err != nil {
					t.Errorf("recover %d: %v", cid, err)
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()

	// Settle and validate: every slot was released through recovery, so the
	// pool must be claimable end to end and fsck-clean with zero objects.
	p.ReconcileSlotMap()
	res := check.Validate(p)
	if !res.Clean() {
		t.Fatalf("pool not clean after churn: %v", res.Issues)
	}
	if res.AllocatedObjects != 0 {
		t.Fatalf("%d objects survived full churn", res.AllocatedObjects)
	}
}
