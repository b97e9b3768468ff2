package recovery_test

import (
	"math"
	"testing"

	"repro/internal/cxl"
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
// sees every cycle's RecoverClient report, the device accesses of that call
// alone, and those of the tick after it.
func victimCycles(t *testing.T, cycles int, each func(rep recovery.Report, pass, tick cxl.Stats)) {
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
		pass := p.Device().Stats()
		p.Device().ResetStats()
		mon.Tick()
		each(rep, pass, p.Device().Stats())
	}
	if fails := mon.Failures(); len(fails) > 0 {
		t.Fatalf("monitor recorded %d failed duties, first: %v", len(fails), fails[0].Err)
	}
}

// The deterministic gate behind the crash-recover workload: device accesses
// of one recovery pass over the benchmark-shaped victim and of the monitor
// tick that follows it — which rescans the previous victim's segments, flagged
// by the survivor's frees, and leaves this victim's alone — in steady state
// (ceilings are the measured counts plus ten per cent, or ISSUE 21's where
// that is lower).
func TestRecoveryPassAccessBudget(t *testing.T) {
	const maxLoads, maxStores, maxCAS = 4900, 1330, 577
	const maxTickLoads, maxTickStores = 1300, 60
	const cycles = 6
	n := 0
	victimCycles(t, cycles, func(rep recovery.Report, pass, tick cxl.Stats) {
		if n++; n < cycles {
			return
		}
		t.Logf("RecoverClient: %d loads, %d stores, %d CAS; %+v", pass.Loads, pass.Stores, pass.CASes, rep)
		t.Logf("Tick: %d loads, %d stores, %d CAS", tick.Loads, tick.Stores, tick.CASes)
		if rep.SweptRoots != 512 {
			t.Fatalf("swept %d roots, want 512", rep.SweptRoots)
		}
		if pass.Loads > maxLoads || pass.Stores > maxStores || pass.CASes > maxCAS {
			t.Fatalf("one recovery pass costs %d loads / %d stores / %d CAS, budget %d / %d / %d",
				pass.Loads, pass.Stores, pass.CASes, maxLoads, maxStores, maxCAS)
		}
		if tick.Loads > maxTickLoads || tick.Stores > maxTickStores {
			t.Fatalf("the tick after it costs %d loads / %d stores, budget %d / %d",
				tick.Loads, tick.Stores, maxTickLoads, maxTickStores)
		}
	})
}

// The root sweep frees a victim's huge objects before sweepHugeOwned looks
// for zero-count heads; the report must count them all the same.
func TestReportCountsHugeFreedBySweep(t *testing.T) {
	victimCycles(t, 2, func(rep recovery.Report, _, _ cxl.Stats) {
		if rep.HugeFreed != 4 {
			t.Fatalf("HugeFreed = %d, want 4 (report %+v)", rep.HugeFreed, rep)
		}
	})
}

// The serving tier's shape (serving.RunChaos, benchmark/serve.go): a loader
// builds the whole data set, dies and is recovered, and every one of its
// segments stays ABANDONED under records the survivors hold. Nothing happens
// to those segments afterwards, so a tick must not walk them: after a
// monitor's first tick (which scans them all once) a tick costs what the
// client, segment and queue vectors cost, until the 128-tick backstop walks
// again. The -v output is EXPERIMENTS.md's idle-tick table.
func TestIdleTickAfterLoaderDeath(t *testing.T) {
	const maxLoads, maxStores = 1000, 40
	for _, objects := range []int{0, 12_500, 50_000, 200_000} {
		p, err := shm.NewPool(shm.Config{
			Geometry:      layout.GeometryConfig{MaxClients: 8, NumSegments: 256, SegmentWords: 1 << 14},
			CountAccesses: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		svc, err := recovery.NewService(p)
		if err != nil {
			t.Fatal(err)
		}
		survivor, loader := connect(t, p), connect(t, p)
		for i := 0; i < objects; i++ {
			_, block, err := loader.Malloc(64, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := survivor.AttachRoot(block); err != nil {
				t.Fatal(err)
			}
		}
		if err := p.MarkClientDead(loader.ID()); err != nil {
			t.Fatal(err)
		}
		if _, err := svc.RecoverClient(loader.ID()); err != nil {
			t.Fatal(err)
		}
		abandoned := p.Usage().SegmentsAbandoned
		mon := recovery.NewMonitor(svc, recovery.MonitorConfig{Threshold: math.MaxInt32})
		tick := func() cxl.Stats {
			p.Device().ResetStats()
			mon.Tick()
			return p.Device().Stats()
		}
		first := tick()
		var idle cxl.Stats
		for n := 2; n <= 127; n++ {
			if idle = tick(); idle.Loads > maxLoads || idle.Stores > maxStores {
				t.Fatalf("%d objects: tick %d costs %d loads / %d stores, budget %d / %d",
					objects, n, idle.Loads, idle.Stores, maxLoads, maxStores)
			}
		}
		walk, n := idle, 127
		for walk.Loads <= maxLoads && n < 130 {
			walk, n = tick(), n+1
		}
		t.Logf("| %d | %d | %d | %d / %d | %d (tick %d) |",
			objects, abandoned, first.Loads, idle.Loads, idle.Stores, walk.Loads, n)
		if objects >= 12_500 && (first.Loads < uint64(objects) || walk.Loads < uint64(objects)) {
			t.Fatalf("%d objects: first tick %d loads, tick %d %d loads: neither walked the abandoned segments",
				objects, first.Loads, n, walk.Loads)
		}
		if fails := mon.Failures(); len(fails) > 0 {
			t.Fatalf("monitor recorded %d failed duties, first: %v", len(fails), fails[0].Err)
		}
		p.CloseDevice()
	}
}
