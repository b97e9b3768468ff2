package recovery_test

import (
	"sync"
	"testing"
	"time"

	"repro/internal/cxl"
	"repro/internal/layout"
	"repro/internal/recovery"
	"repro/internal/shm"
)

// speedupVictims is k: the independent dead clients the comparison recovers,
// matching the pooled service's worker count.
const speedupVictims = 8

// timedRecovery builds a pool with speedupVictims crashed clients, each
// owning objs objects in its own segments, and times recovering all of them
// concurrently through a service with the given executor count. The latency
// model charges a large sleep-based cost per modelled cache miss, which
// makes recovery latency-bound the way it is on real far memory: the sleeps
// overlap across executors even on a single-core host, so the measured
// speedup reflects the service's concurrency structure, not the CPU count.
func timedRecovery(t *testing.T, objs, workers int) time.Duration {
	t.Helper()
	p, err := shm.NewPool(shm.Config{
		Geometry: layout.GeometryConfig{
			MaxClients:   24,
			NumSegments:  64,
			SegmentWords: 1 << 13,
			PageWords:    1 << 9,
			MaxQueues:    8,
		},
		Intercept: cxl.Intercept{Latency: cxl.Latency{MissNS: 40_000, Sleep: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.CloseDevice()

	victims := make([]*shm.Client, speedupVictims)
	for i := range victims {
		if victims[i], err = p.Connect(); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < objs; j++ {
			if _, _, err := victims[i].Malloc(48, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, v := range victims {
		if err := v.Crash(); err != nil {
			t.Fatal(err)
		}
	}
	svc, err := recovery.NewServiceWorkers(p, workers)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, len(victims))
	for i, v := range victims {
		wg.Add(1)
		go func(i, cid int) {
			defer wg.Done()
			_, errs[i] = svc.RecoverClient(cid)
		}(i, v.ID())
	}
	wg.Wait()
	el := time.Since(start)
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	return el
}

// TestConcurrentRecoverySpeedup pins the concurrent-recovery acceptance bar:
// with recovery latency-bound (sleep-modelled far-memory misses), 8 workers
// recovering 8 independent dead clients must finish in well under 0.6x the
// serial wall-clock.
func TestConcurrentRecoverySpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second latency-modelled recovery comparison")
	}
	const objs = 75
	serial := timedRecovery(t, objs, 1)
	conc := timedRecovery(t, objs, speedupVictims)
	t.Logf("recovery of %d dead clients: serial %v, %d workers %v (%.2fx)",
		speedupVictims, serial.Round(time.Millisecond), speedupVictims, conc.Round(time.Millisecond),
		float64(conc)/float64(serial))
	if float64(conc) >= 0.6*float64(serial) {
		t.Fatalf("%d-worker recovery of %d dead clients took %v vs %v serial (%.2fx): want < 0.6x",
			speedupVictims, speedupVictims, conc, serial, float64(conc)/float64(serial))
	}
}
