package recovery_test

import (
	"math"
	"path/filepath"
	"testing"

	"repro/internal/layout"
	"repro/internal/obs"
	"repro/internal/recovery"
	"repro/internal/shm"
)

// regionSum sums the pool block and every committed client block of p's
// telemetry region, read block by block.
func regionSum(p *shm.Pool) (ctrs [obs.NumCounters]uint64, histos [obs.NumHistos][obs.HistBuckets]uint64) {
	tel := p.Telemetry()
	for idx := 0; idx <= p.Geometry().MaxClients; idx++ {
		b, ok := tel.ReadBlock(idx)
		if !ok {
			continue
		}
		for i, v := range b.Counters {
			ctrs[i] += v
		}
		for h := range b.Histos {
			for i, v := range b.Histos[h] {
				histos[h][i] += v
			}
		}
	}
	return ctrs, histos
}

// Pool.Obs reads the one store: after monitor ticks, a leak flag raised by
// the recovery side, a fence, a recovery pass and client traffic, with every
// live client flushed, each counter and histogram it reports equals the sum
// of the pool block and the client blocks, and the pool-wide facts are in the
// pool block.
func TestObsIsTheRegionSum(t *testing.T) {
	for _, backend := range []string{"heap", "mmap"} {
		t.Run(backend, func(t *testing.T) {
			p, err := shm.NewPool(shm.Config{
				Geometry: layout.GeometryConfig{MaxClients: 8, NumSegments: 16, SegmentWords: 1 << 13, PageWords: 1 << 9},
				Backend:  backend,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer p.CloseDevice()
			svc, err := recovery.NewService(p)
			if err != nil {
				t.Fatal(err)
			}
			mon := recovery.NewMonitor(svc, recovery.MonitorConfig{Threshold: math.MaxInt32})
			survivor, victim := connect(t, p), connect(t, p)
			var block layout.Addr
			for i := 0; i < 40; i++ {
				if _, block, err = victim.Malloc(64, 0); err != nil {
					t.Fatal(err)
				}
				if i%4 == 0 {
					if _, err := survivor.AttachRoot(block); err != nil {
						t.Fatal(err)
					}
				}
			}
			victim.Heartbeat() // its block keeps this vector after the fence
			const ticks = 5
			for i := 0; i < ticks; i++ {
				mon.Tick()
			}
			p.FlagSegmentLeaking(p.Geometry().SegmentIndexOf(block))
			if err := p.MarkClientDead(victim.ID()); err != nil {
				t.Fatal(err)
			}
			if _, err := svc.RecoverClient(victim.ID()); err != nil {
				t.Fatal(err)
			}
			mon.Tick()
			survivor.FlushMetrics()
			svc.Executor().FlushMetrics()

			snap := p.Obs().Snapshot()
			ctrs, histos := regionSum(p)
			for c := obs.Counter(0); c < obs.NumCounters; c++ {
				if got := snap.Counters[c.Name()]; got != ctrs[c] {
					t.Errorf("%s: Obs reads %d, the region sums to %d", c.Name(), got, ctrs[c])
				}
			}
			for h := obs.Histo(0); h < obs.NumHistos; h++ {
				want := obs.MakeHistogramSnapshot(histos[h])
				got := snap.Histograms[h.Name()]
				if got.Count != want.Count || len(got.Buckets) != len(want.Buckets) {
					t.Errorf("%s: Obs reads %d observations, the region sums to %d", h.Name(), got.Count, want.Count)
					continue
				}
				for i := range want.Buckets {
					if got.Buckets[i] != want.Buckets[i] {
						t.Errorf("%s bucket %d: Obs reads %d, the region sums to %d", h.Name(), i, got.Buckets[i], want.Buckets[i])
					}
				}
			}
			pool, _ := p.Telemetry().ReadBlock(0)
			for c, want := range map[obs.Counter]uint64{
				obs.CtrMonitorTick:  ticks + 1,
				obs.CtrLeakFlag:     1,
				obs.CtrClientFenced: 1,
				obs.CtrRecoveryPass: 1,
			} {
				if pool.Counters[c] != want {
					t.Errorf("pool block %s = %d, want %d", c.Name(), pool.Counters[c], want)
				}
			}
			if snap.Counters[obs.CtrAlloc.Name()] < 40 {
				t.Errorf("alloc_ops = %d after the dead victim published 40 Mallocs", snap.Counters[obs.CtrAlloc.Name()])
			}
		})
	}
}

// The counters are the pool's, not the process's: a new Pool over the same
// file reads the fences, recovery passes and monitor ticks of the Pool that
// closed it.
func TestCountersSurvivePoolReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pool.cxl")
	p, err := shm.NewPool(shm.Config{
		Geometry: layout.GeometryConfig{MaxClients: 8, NumSegments: 16, SegmentWords: 1 << 13, PageWords: 1 << 9},
		File:     path,
	})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := recovery.NewService(p)
	if err != nil {
		t.Fatal(err)
	}
	mon := recovery.NewMonitor(svc, recovery.MonitorConfig{Threshold: math.MaxInt32})
	victim := connect(t, p)
	if _, _, err := victim.Malloc(64, 0); err != nil {
		t.Fatal(err)
	}
	if err := p.MarkClientDead(victim.ID()); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.RecoverClient(victim.ID()); err != nil {
		t.Fatal(err)
	}
	mon.Tick()
	mon.Tick()
	before := p.Obs().Snapshot().Counters
	if err := p.CloseDevice(); err != nil {
		t.Fatal(err)
	}

	q, err := shm.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer q.CloseDevice()
	after := q.Obs().Snapshot().Counters
	for _, c := range []obs.Counter{obs.CtrClientFenced, obs.CtrRecoveryPass, obs.CtrMonitorTick} {
		if before[c.Name()] == 0 {
			t.Errorf("%s read 0 before the close", c.Name())
		}
		if after[c.Name()] < before[c.Name()] {
			t.Errorf("%s: %d before the close, %d in a new Pool over the file", c.Name(), before[c.Name()], after[c.Name()])
		}
	}
}
