package recovery_test

import (
	"math"
	"testing"

	"repro/internal/layout"
	"repro/internal/recovery"
	"repro/internal/shm"
)

// victimSizes spans the size classes from 16 B to 4 KiB, the benchmark's mix.
var victimSizes = [...]int{16, 32, 48, 64, 96, 128, 192, 256, 384, 512, 768, 1024, 1536, 2048, 3072, 4096}

// victimCycles drives the shape of the benchmark's crash-recover workload
// (benchmark/recover.go) on a counting pool: each cycle the survivor drops
// what it shared with the previous victim, a new victim builds 508 small
// objects (32 of them also held by the survivor) and 4 huge two-segment runs
// and dies without Close; it is recovered and the monitor ticks once. each
// sees every cycle's RecoverClient report and the device accesses of that
// call alone.
func victimCycles(t *testing.T, cycles int, each func(rep recovery.Report, loads, stores, cas uint64)) {
	t.Helper()
	p, err := shm.NewPool(shm.Config{
		Geometry:      layout.GeometryConfig{MaxClients: 8, NumSegments: 64, SegmentWords: 1 << 16},
		CountAccesses: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.CloseDevice() })
	svc, err := recovery.NewService(p)
	if err != nil {
		t.Fatal(err)
	}
	mon := recovery.NewMonitor(svc, recovery.MonitorConfig{Threshold: math.MaxInt32})
	survivor := connect(t, p)
	var shared []layout.Addr
	for cycle := 0; cycle < cycles; cycle++ {
		for _, root := range shared {
			if freed, err := survivor.ReleaseRoot(root); err != nil || !freed {
				t.Fatalf("survivor ReleaseRoot: freed=%v err=%v", freed, err)
			}
		}
		shared = shared[:0]
		survivor.Heartbeat()
		victim := connect(t, p)
		for j := 0; j < 508; j++ {
			_, block, err := victim.Malloc(victimSizes[(j+cycle)%len(victimSizes)], 0)
			if err != nil {
				t.Fatal(err)
			}
			if j < 32 {
				root, err := survivor.AttachRoot(block)
				if err != nil {
					t.Fatal(err)
				}
				shared = append(shared, root)
			}
		}
		for j := 0; j < 4; j++ {
			if _, _, err := victim.Malloc(768<<10, 0); err != nil {
				t.Fatal(err)
			}
		}
		if err := p.MarkClientDead(victim.ID()); err != nil {
			t.Fatal(err)
		}
		p.Device().ResetStats()
		rep, err := svc.RecoverClient(victim.ID())
		if err != nil {
			t.Fatal(err)
		}
		s := p.Device().Stats()
		each(rep, s.Loads, s.Stores, s.CASes)
		mon.Tick()
	}
	if fails := mon.Failures(); len(fails) > 0 {
		t.Fatalf("monitor recorded %d failed duties, first: %v", len(fails), fails[0].Err)
	}
}

// The deterministic gate behind the crash-recover workload: device accesses
// of one recovery pass over the benchmark-shaped victim, in steady state
// (ceilings are the measured counts plus ten per cent).
func TestRecoveryPassAccessBudget(t *testing.T) {
	const maxLoads, maxStores, maxCAS = 6900, 4150, 575
	const cycles = 6
	n := 0
	victimCycles(t, cycles, func(rep recovery.Report, loads, stores, cas uint64) {
		if n++; n < cycles {
			return
		}
		t.Logf("RecoverClient: %d loads, %d stores, %d CAS; %+v", loads, stores, cas, rep)
		if rep.SweptRoots != 512 {
			t.Fatalf("swept %d roots, want 512", rep.SweptRoots)
		}
		if loads > maxLoads || stores > maxStores || cas > maxCAS {
			t.Fatalf("one recovery pass costs %d loads / %d stores / %d CAS, budget %d / %d / %d",
				loads, stores, cas, maxLoads, maxStores, maxCAS)
		}
	})
}

// The root sweep frees a victim's huge objects before sweepHugeOwned looks
// for zero-count heads; the report must count them all the same.
func TestReportCountsHugeFreedBySweep(t *testing.T) {
	victimCycles(t, 2, func(rep recovery.Report, _, _, _ uint64) {
		if rep.HugeFreed != 4 {
			t.Fatalf("HugeFreed = %d, want 4 (report %+v)", rep.HugeFreed, rep)
		}
	})
}
