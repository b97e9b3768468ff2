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

// Property test for the owner-local shadow cache (shadow.go): for a victim
// killed before a random device write of a seeded mixed workload (the write
// index is drawn from the workload's own rng, after a counting pass), recovery
// from the device words alone must leave the pool clean — in particular no
// free block lost off every list and none double-listed — the survivor's
// shadow must still match the device word-for-word, and a fresh incarnation
// must be able to rebuild its caches from the device and keep allocating.
// This is the safety half of the shadow-cache bargain: caches may die with
// their client, the device state must always be sufficient.
func TestShadowCrashRecoveryProperty(t *testing.T) {
	crashed := 0
	const seeds = 25
	for seed := int64(0); seed < seeds; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			count := newFault(0)
			rng, _ := shadowCrashTrial(t, seed, count)
			_, died := shadowCrashTrial(t, seed, newFault(1+rng.Intn(count.writes)))
			if died {
				crashed++
			}
		})
	}
	t.Logf("victim crashed mid-workload in %d/%d trials", crashed, seeds)
	if crashed != seeds {
		t.Fatalf("only %d/%d trials crashed the victim", crashed, seeds)
	}
}

// shadowCrashTrial runs one seeded story with the victim under f. It returns
// the workload's rng (positioned after the workload) and whether the victim
// died mid-workload.
func shadowCrashTrial(t *testing.T, seed int64, f *fault) (*rand.Rand, bool) {
	p := newTestPool(t, f.hook())
	defer p.CloseDevice()
	survivor := connect(t, p)
	victim := connect(t, p)
	svc, err := recovery.NewService(p)
	if err != nil {
		t.Fatal(err)
	}

	// Queue A: victim sends to survivor. Queue B: survivor sends to
	// victim (pre-filled), so victim crashes can also land between a
	// Receive's slot release and its head advance — the stale-slot
	// window a successor must step past.
	qaRoot, qa, err := victim.CreateQueue(survivor.ID(), 8)
	if err != nil {
		t.Fatal(err)
	}
	saRoot, err := survivor.OpenQueue(qa)
	if err != nil {
		t.Fatal(err)
	}
	_ = qaRoot // dies with the victim; survivor's reference keeps qa alive
	qbRoot, qb, err := survivor.CreateQueue(victim.ID(), 8)
	if err != nil {
		t.Fatal(err)
	}
	var bFill []layout.Addr
	for i := 0; i < 6; i++ {
		root, block, err := survivor.Malloc(32, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := survivor.Send(qb, block); err != nil {
			t.Fatal(err)
		}
		bFill = append(bFill, root)
	}

	rng := rand.New(rand.NewSource(seed))
	var roots []layout.Addr
	var lent layout.Addr // survivor root of case 6, while the victim may die or fail under it
	crash := f.crash(victim.ID(), func() {
		for op := 0; op < 400; op++ {
			switch rng.Intn(7) {
			case 0, 1:
				root, _, err := victim.Malloc(16+rng.Intn(240), rng.Intn(3))
				if err != nil {
					return
				}
				roots = append(roots, root)
			case 2:
				if len(roots) > 0 {
					k := rng.Intn(len(roots))
					if _, err := victim.ReleaseRoot(roots[k]); err != nil {
						return
					}
					roots[k] = roots[len(roots)-1]
					roots = roots[:len(roots)-1]
				}
			case 3:
				root, block, err := victim.Malloc(48, 0)
				if err != nil {
					return
				}
				if err := victim.Send(qa, block); err != nil && !errors.Is(err, shm.ErrQueueFull) {
					return
				}
				roots = append(roots, root)
			case 4:
				root, _, err := victim.Receive(qb)
				if err == nil {
					roots = append(roots, root)
				}
			case 5:
				// Parent with an embedded child, then a cascade release.
				proot, parent, err := victim.Malloc(64, 1)
				if err != nil {
					return
				}
				croot, child, err := victim.Malloc(24, 0)
				if err != nil {
					return
				}
				if err := victim.SetEmbed(parent, 0, child); err != nil {
					return
				}
				if _, err := victim.ReleaseRoot(croot); err != nil {
					return
				}
				roots = append(roots, proot)
			case 6:
				// Remote free: the victim drops the last reference to a
				// survivor block of a one-block-per-page class, pushing it
				// onto the survivor's client_free list (or dying on the way).
				sroot, sblock, err := survivor.Malloc(2000, 0)
				if err != nil {
					return
				}
				lent = sroot
				vroot, err := victim.AttachRoot(sblock)
				if err != nil {
					return
				}
				if _, err := survivor.ReleaseRoot(sroot); err != nil {
					t.Fatal(err)
				}
				lent = 0
				if _, err := victim.ReleaseRoot(vroot); err != nil {
					return
				}
			}
		}
	})
	if lent != 0 {
		bFill = append(bFill, lent) // released with the survivor's other roots
	}
	// On the counting pass nothing fired: the victim still dies,
	// holding whatever it holds (same recovery obligations).
	if err := p.MarkClientDead(victim.ID()); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.RecoverClient(victim.ID()); err != nil {
		t.Fatalf("recover: %v", err)
	}
	// Keep the survivor heartbeating through the monitor ticks — a
	// silent live client would (correctly) be fenced and recovered
	// after MonitorConfig's miss threshold, which is monitor behavior
	// under test elsewhere, not here.
	mon := recovery.NewMonitor(svc, recovery.MonitorConfig{})
	for i := 0; i < 5; i++ {
		survivor.Heartbeat()
		mon.Tick()
	}

	// Survivor's shadow must have stayed exact through the crash and
	// recovery of its peer.
	if err := survivor.CheckShadow(); err != nil {
		t.Fatalf("survivor shadow: %v", err)
	}

	// The survivor's next refills of the remotely freed class collect its
	// client_free lists, dropping those blocks' reference shadows.
	var sroots []layout.Addr
	for i := 0; i < 3; i++ {
		root, _, err := survivor.Malloc(2000, 0)
		if err != nil {
			t.Fatalf("survivor malloc: %v", err)
		}
		sroots = append(sroots, root)
	}
	if err := survivor.CheckShadow(); err != nil {
		t.Fatalf("survivor shadow after collecting remote frees: %v", err)
	}
	for _, r := range sroots {
		if _, err := survivor.ReleaseRoot(r); err != nil {
			t.Fatal(err)
		}
	}

	// Drain queue A (anything the victim published is survivor's to
	// take) and release everything the survivor holds.
	for i := 0; i < 10; i++ {
		root, _, err := survivor.Receive(qa)
		if err == nil {
			if _, err := survivor.ReleaseRoot(root); err != nil {
				t.Fatal(err)
			}
		}
	}

	// A fresh incarnation must rebuild purely from device words:
	// allocate and free across classes, take over queue B's receive
	// side (stepping past any stale slots the victim's crash left),
	// and end with an exact shadow.
	fresh := connect(t, p)
	var froots []layout.Addr
	for i := 0; i < 80; i++ {
		root, _, err := fresh.Malloc(16+(i%4)*90, 0)
		if err != nil {
			t.Fatalf("fresh malloc: %v", err)
		}
		froots = append(froots, root)
	}
	for _, r := range froots {
		if _, err := fresh.ReleaseRoot(r); err != nil {
			t.Fatal(err)
		}
	}
	fqbRoot, err := fresh.OpenQueue(qb)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		root, _, err := fresh.Receive(qb)
		if err == nil {
			if _, err := fresh.ReleaseRoot(root); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := fresh.CheckShadow(); err != nil {
		t.Fatalf("fresh shadow: %v", err)
	}

	for _, r := range append(bFill, saRoot, qbRoot) {
		if _, err := survivor.ReleaseRoot(r); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := fresh.ReleaseRoot(fqbRoot); err != nil {
		t.Fatal(err)
	}
	if err := survivor.CheckShadow(); err != nil {
		t.Fatalf("survivor shadow (final): %v", err)
	}
	for i := 0; i < 5; i++ {
		survivor.Heartbeat()
		fresh.Heartbeat()
		mon.Tick()
	}
	res := mustClean(t, p, fmt.Sprintf("shadow-property seed=%d crash=%v", seed, crash))
	if res.AllocatedObjects != 0 {
		t.Fatalf("seed %d: %d objects leaked", seed, res.AllocatedObjects)
	}
	return rng, crash != nil
}
