package recovery_test

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/layout"
	"repro/internal/recovery"
	"repro/internal/shm"
)

// TestTwoClientsCrashTogether recovers two clients that died while holding
// references to each other's objects.
func TestTwoClientsCrashTogether(t *testing.T) {
	p := newTestPool(t)
	a := connect(t, p)
	b := connect(t, p)
	svc, err := recovery.NewService(p)
	if err != nil {
		t.Fatal(err)
	}
	// Cross-shared objects: a's object referenced by b and vice versa.
	_, objA, err := a.Malloc(64, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, objB, err := b.Malloc(64, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.AttachRoot(objA); err != nil {
		t.Fatal(err)
	}
	if _, err := a.AttachRoot(objB); err != nil {
		t.Fatal(err)
	}
	// Plus a queue with an in-flight reference between them.
	_, q, err := a.CreateQueue(b.ID(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.OpenQueue(q); err != nil {
		t.Fatal(err)
	}
	rm, m, err := a.Malloc(32, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Send(q, m); err != nil {
		t.Fatal(err)
	}
	if _, err := a.ReleaseRoot(rm); err != nil {
		t.Fatal(err)
	}

	if err := a.Crash(); err != nil {
		t.Fatal(err)
	}
	if err := b.Crash(); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.RecoverClient(a.ID()); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.RecoverClient(b.ID()); err != nil {
		t.Fatal(err)
	}
	mon := recovery.NewMonitor(svc, recovery.MonitorConfig{})
	for i := 0; i < 4; i++ {
		mon.Tick()
	}
	res := mustClean(t, p, "two-crash")
	if res.AllocatedObjects != 0 {
		t.Fatalf("%d objects leaked after double failure", res.AllocatedObjects)
	}
	if res.SegmentsOther != 0 {
		t.Fatalf("%d segments stuck", res.SegmentsOther)
	}
}

// TestRecoveryExecutorCrashesMidRecovery kills the recovery service itself
// (its executor client and its management-plane writes) before a seeded
// random device write of the pass that recovers a victim; a fresh service
// must converge — the recovery is fail-safe (§3.2).
func TestRecoveryExecutorCrashesMidRecovery(t *testing.T) {
	// trial runs one recovery story under f and reports whether the
	// executor died.
	trial := func(seed int64, f *fault) bool {
		p := newTestPool(t, f.hook())
		defer p.CloseDevice()
		victim := connect(t, p)
		o := connect(t, p)
		// The victim dies holding a mix of plain, shared, embedded objects.
		oRoots := scenario(t, victim, o)
		// Give the victim some unreleased objects too.
		for i := 0; i < 20; i++ {
			if _, _, err := victim.Malloc(48, 1); err != nil {
				t.Fatal(err)
			}
		}
		if err := victim.Crash(); err != nil {
			t.Fatal(err)
		}

		svc1, err := recovery.NewService(p)
		if err != nil {
			t.Fatal(err)
		}
		execCrash := f.crash(-1, func() { _, _ = svc1.RecoverClient(victim.ID()) })
		if execCrash != nil {
			// The recovery service died mid-recovery. Fence it, recover it,
			// and run a fresh service for the original victim.
			if err := p.MarkClientDead(svc1.Executor().ID()); err != nil {
				t.Fatal(err)
			}
			svc2, err := recovery.NewService(p)
			if err != nil {
				t.Fatal(err)
			}
			if f.n > 1 && p.ClientStatus(victim.ID()) == layout.ClientDead {
				// The claim CAS is the pass's first write: the dead executor
				// holds the victim's claim, so the victim waits for the
				// executor's recovery, and the refusal writes nothing.
				f.sw.StartCounting()
				_, err := svc2.RecoverClient(victim.ID())
				if w := f.sw.StopCounting(); !errors.Is(err, shm.ErrRecoveryInProgress) || w != 0 {
					t.Fatalf("seed %d: victim recovery before its dead executor's: %v after %d writes", seed, err, w)
				}
			}
			if _, err := svc2.RecoverClient(svc1.Executor().ID()); err != nil {
				t.Fatalf("seed %d: recover executor: %v", seed, err)
			}
			// The victim may be mid-recovered (status Dead still): re-run.
			// Any other status means the pass got as far as RECOVERED —
			// svc2's own executor may already have leased the slot.
			if p.ClientStatus(victim.ID()) == layout.ClientDead {
				if _, err := svc2.RecoverClient(victim.ID()); err != nil {
					t.Fatalf("seed %d: re-recover victim: %v", seed, err)
				}
			}
			svc1 = svc2
		}
		for _, r := range oRoots {
			if _, err := o.ReleaseRoot(r); err != nil {
				t.Fatalf("seed %d: survivor release: %v", seed, err)
			}
		}
		mon := recovery.NewMonitor(svc1, recovery.MonitorConfig{})
		for i := 0; i < 5; i++ {
			mon.Tick()
		}
		res := mustClean(t, p, fmt.Sprintf("exec-crash seed=%d write=%d", seed, f.n))
		if res.AllocatedObjects != 0 {
			t.Fatalf("seed %d write %d: %d objects leaked", seed, f.n, res.AllocatedObjects)
		}
		return execCrash != nil
	}

	count := newFault(0)
	trial(-1, count)
	crashed := 0
	const seeds = 30
	for seed := int64(0); seed < seeds; seed++ {
		n := 1 + rand.New(rand.NewSource(seed)).Intn(count.writes)
		if trial(seed, newFault(n)) {
			crashed++
		}
	}
	t.Logf("executor crashed in %d/%d trials (pass has %d writes)", crashed, seeds, count.writes)
	if crashed != seeds {
		t.Fatalf("only %d/%d trials crashed the executor", crashed, seeds)
	}
}

// TestConcurrentWorkloadWithCrash runs several clients doing random
// create/share/release concurrently while one of them dies, then validates.
func TestConcurrentWorkloadWithCrash(t *testing.T) {
	p, err := shm.NewPool(shm.Config{Geometry: layout.GeometryConfig{
		MaxClients: 12, NumSegments: 64, SegmentWords: 1 << 13, PageWords: 1 << 9, MaxQueues: 32,
	}})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := recovery.NewService(p)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 5
	type worker struct {
		c    *shm.Client
		done chan error
	}
	ws := make([]*worker, workers)
	for i := range ws {
		c, err := p.Connect()
		if err != nil {
			t.Fatal(err)
		}
		ws[i] = &worker{c: c, done: make(chan error, 1)}
	}
	for i, w := range ws {
		go func(i int, w *worker) {
			rng := rand.New(rand.NewSource(int64(i)))
			var roots []layout.Addr
			for op := 0; op < 2000; op++ {
				if i == 0 && op == 1000 {
					// Worker 0 dies abruptly, mid-stream, holding roots.
					w.done <- nil
					return
				}
				switch rng.Intn(3) {
				case 0, 1:
					root, _, err := w.c.Malloc(16+rng.Intn(200), rng.Intn(2))
					if err != nil {
						w.done <- err
						return
					}
					roots = append(roots, root)
				case 2:
					if len(roots) > 0 {
						k := rng.Intn(len(roots))
						if _, err := w.c.ReleaseRoot(roots[k]); err != nil {
							w.done <- err
							return
						}
						roots[k] = roots[len(roots)-1]
						roots = roots[:len(roots)-1]
					}
				}
			}
			for _, r := range roots {
				if _, err := w.c.ReleaseRoot(r); err != nil {
					w.done <- err
					return
				}
			}
			w.done <- nil
		}(i, w)
	}
	for _, w := range ws {
		if err := <-w.done; err != nil {
			t.Fatal(err)
		}
	}
	// Worker 0 "died": fence and recover it while nothing else runs.
	if err := ws[0].c.Crash(); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.RecoverClient(ws[0].c.ID()); err != nil {
		t.Fatal(err)
	}
	mon := recovery.NewMonitor(svc, recovery.MonitorConfig{})
	for i := 0; i < 4; i++ {
		mon.Tick()
	}
	res := mustClean(t, p, "concurrent-crash")
	if res.AllocatedObjects != 0 {
		t.Fatalf("%d objects leaked", res.AllocatedObjects)
	}
}
