package recovery

import (
	"errors"
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/layout"
	"repro/internal/obs"
	"repro/internal/shm"
)

func newMonitorPool(t *testing.T) *shm.Pool {
	t.Helper()
	p, err := shm.NewPool(shm.Config{Geometry: layout.GeometryConfig{
		MaxClients: 8, NumSegments: 16, SegmentWords: 1 << 13, PageWords: 1 << 9, MaxQueues: 8,
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.CloseDevice() })
	return p
}

// events returns the pool ring's events of type typ about client cid.
func events(p *shm.Pool, typ obs.EventType, cid int) []obs.Event {
	var out []obs.Event
	for _, e := range p.Telemetry().Events() {
		if e.Type == typ && e.Client == cid {
			out = append(out, e)
		}
	}
	return out
}

// A client stuck in ClientDead because its recovery keeps failing must stay
// one death with one fence — the monitor never re-fences it — every error
// must surface through Failures(), and retries must back off instead of
// hammering every tick.
func TestMonitorRecordsFoundDeadOnce(t *testing.T) {
	p := newMonitorPool(t)
	x, err := p.Connect()
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewService(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.MarkClientDead(x.ID()); err != nil {
		t.Fatal(err)
	}

	m := NewMonitor(svc, MonitorConfig{})
	attempts := 0
	injected := errors.New("injected recovery failure")
	m.recoverFn = func(cid int) (Report, error) {
		attempts++
		return Report{}, injected
	}
	for i := 0; i < 6; i++ {
		m.Tick()
	}

	oneFence := func(when string) {
		t.Helper()
		fences := events(p, obs.EvClientFenced, x.ID())
		if len(fences) != 1 || obs.FenceReason(fences[0].A) != obs.FenceExplicit {
			t.Fatalf("%s: fence events %+v, want exactly one, explicit", when, fences)
		}
		if tl, _ := p.Telemetry().ReadTimeline(x.ID()); tl.Deaths != 1 {
			t.Fatalf("%s: timeline deaths = %d, want 1", when, tl.Deaths)
		}
	}
	oneFence("while recovery fails")
	// Backoff: attempt at tick 1, next at tick 3 (backoff 2), then not again
	// until tick 7 (backoff 4) — so 6 ticks give exactly 2 attempts.
	if attempts != 2 {
		t.Fatalf("recovery attempts in 6 ticks = %d, want 2 (exponential backoff)", attempts)
	}
	fails := m.Failures()
	if len(fails) != 2 {
		t.Fatalf("Failures() = %d records, want 2", len(fails))
	}
	for _, f := range fails {
		if f.Client != x.ID() || !errors.Is(f.Err, injected) || f.Error == "" {
			t.Fatalf("bad failure record: %+v", f)
		}
	}

	// Let recovery work again: the backoff window expires at tick 7 and the
	// client must actually be recovered, with the fence still recorded once.
	m.recoverFn = func(cid int) (Report, error) { return svc.RecoverClient(cid) }
	for i := 0; i < 2; i++ {
		m.Tick()
	}
	if got := p.ClientStatus(x.ID()); got != layout.ClientRecovered {
		t.Fatalf("client status after backoff expiry = %d, want recovered", got)
	}
	if tl, _ := p.Telemetry().ReadTimeline(x.ID()); tl.Completed != 1 {
		t.Fatalf("timeline completed = %d, want 1", tl.Completed)
	}
	oneFence("after recovery")
}

// EvRecoveryFailed counts the failed attempts of the slot's current death:
// a recovery that succeeds resets it, so the next incarnation's first
// failure reads 1 however often an earlier death failed.
func TestRecoveryFailedCountsThisDeath(t *testing.T) {
	p := newMonitorPool(t)
	x, err := p.Connect()
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewService(p)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMonitor(svc, MonitorConfig{})
	injected := errors.New("injected recovery failure")
	failing := func(cid int) (Report, error) { return Report{}, injected }

	// First death: fails at ticks 1 and 3, recovered at tick 7.
	if err := p.MarkClientDead(x.ID()); err != nil {
		t.Fatal(err)
	}
	m.recoverFn = failing
	for i := 0; i < 6; i++ {
		m.Tick()
	}
	m.recoverFn = func(cid int) (Report, error) { return svc.RecoverClient(cid) }
	m.Tick()
	if got := p.ClientStatus(x.ID()); got != layout.ClientRecovered {
		t.Fatalf("first death not recovered (status %d)", got)
	}

	// Second death of the same slot, first failed attempt.
	y, err := p.Connect()
	if err != nil {
		t.Fatal(err)
	}
	if y.ID() != x.ID() {
		t.Fatalf("reconnect took slot %d, want the recovered slot %d", y.ID(), x.ID())
	}
	m.Tick()
	if err := p.MarkClientDead(y.ID()); err != nil {
		t.Fatal(err)
	}
	m.recoverFn = failing
	m.Tick()

	var counts []uint64
	for _, e := range events(p, obs.EvRecoveryFailed, x.ID()) {
		counts = append(counts, e.A)
	}
	if want := []uint64{1, 2, 1}; !slices.Equal(counts, want) {
		t.Fatalf("EvRecoveryFailed.A over two deaths = %v, want %v", counts, want)
	}
}

// A freshly observed client whose heartbeat counter happens to equal the
// monitor's zero-valued baseline must not accrue spurious misses: the first
// observation seeds the baseline, and only later unchanged reads count.
func TestMonitorHeartbeatBootstrap(t *testing.T) {
	p := newMonitorPool(t)
	x, err := p.Connect()
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewService(p)
	if err != nil {
		t.Fatal(err)
	}
	// Force the worst case: the first beat the monitor ever sees is 0, equal
	// to an unseeded row's zero value.
	p.Device().Store(p.Geometry().ClientHeartbeatAddr(x.ID()), 0)

	m := NewMonitor(svc, MonitorConfig{Threshold: 3})
	for i := 0; i < 3; i++ {
		m.Tick()
	}
	// Tick 1 seeds, ticks 2-3 accrue misses 1-2: still below threshold.
	if got := p.ClientStatus(x.ID()); got != layout.ClientAlive {
		t.Fatalf("client status %d at tick 3, want alive (bootstrap counted as a miss)", got)
	}
	// The genuinely silent client is still fenced, one tick later.
	m.Tick()
	if got := p.ClientStatus(x.ID()); got == layout.ClientAlive {
		t.Fatal("silent client not fenced by tick 4")
	}
	fences := events(p, obs.EvClientFenced, x.ID())
	if len(fences) != 1 || obs.FenceReason(fences[0].A) != obs.FenceHeartbeat {
		t.Fatalf("fence events %+v, want exactly one, heartbeat-timeout", fences)
	}
	tl, _ := p.Telemetry().ReadTimeline(x.ID())
	if tl.Deaths != 1 || tl.FirstMissNS <= 0 || tl.FencedNS < tl.FirstMissNS {
		t.Fatalf("timeline %+v, want one death with a first miss before the fence", tl)
	}
}

// A tick over an idle pool allocates nothing: the monitor runs every 10 ms
// for the life of the pool, so any per-tick garbage is steady GC work.
func TestMonitorTickAllocatesNothing(t *testing.T) {
	p := newMonitorPool(t)
	x, err := p.Connect()
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewService(p)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMonitor(svc, MonitorConfig{Threshold: math.MaxInt32})
	m.Tick() // first observations fill the monitor's maps
	if n := testing.AllocsPerRun(100, func() { x.Heartbeat(); m.Tick() }); n != 0 {
		t.Fatalf("Monitor.Tick allocates %.1f times per tick, want 0", n)
	}
}

// Ticks driven by hand while the monitor's own goroutine ticks share the
// heartbeat gather's buffer; the race detector checks they take turns.
func TestConcurrentTicksShareTheBeatBuffer(t *testing.T) {
	p := newMonitorPool(t)
	if _, err := p.Connect(); err != nil {
		t.Fatal(err)
	}
	svc, err := NewService(p)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMonitor(svc, MonitorConfig{Interval: time.Microsecond, Threshold: math.MaxInt32})
	m.Start()
	for i := 0; i < 200; i++ {
		m.Tick()
	}
	m.Stop()
}

// A maintenance scan that panics on damaged metadata must not kill the
// monitor: it surfaces as an Op=="scan" failure with per-segment backoff,
// and the rest of the tick (heartbeats, other segments) keeps running.
func TestMonitorScanPanicBacksOff(t *testing.T) {
	p := newMonitorPool(t)
	x, err := p.Connect()
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewService(p)
	if err != nil {
		t.Fatal(err)
	}
	root, _, err := x.Malloc(64, 0)
	if err != nil {
		t.Fatal(err)
	}
	geo := p.Geometry()
	dev := p.Device()
	// Find the claimed segment, poison something a dead owner's scan still
	// dereferences — the pptr of its in_use RootRef slot (the free lists are
	// not walked there) — and force it abandoned and flagged, so maintenance
	// tries to scan it at every tick its backoff allows.
	seg := -1
	for s := 0; s < geo.NumSegments; s++ {
		if p.SegState(s).CID == uint16(x.ID()) {
			seg = s
			break
		}
	}
	if seg < 0 {
		t.Fatal("no segment claimed")
	}
	dev.Store(root+layout.RootRefPptrOff, 1<<60)
	st := p.SegState(seg)
	st.State, st.Flags = layout.SegAbandoned, layout.SegFlagPotentialLeaking
	dev.Store(geo.SegStateAddr(seg), layout.PackSegState(st))
	if err := p.MarkClientDead(x.ID()); err != nil {
		t.Fatal(err)
	}

	m := NewMonitor(svc, MonitorConfig{})
	m.recoverFn = func(cid int) (Report, error) { return Report{}, nil }
	for i := 0; i < 6; i++ {
		m.Tick()
	}
	scans := 0
	for _, f := range m.Failures() {
		if f.Op == "scan" {
			scans++
			if f.Segment != seg || f.Error == "" {
				t.Fatalf("bad scan failure record: %+v", f)
			}
		}
	}
	// Backoff: panic at tick 1, retry at tick 3, then tick 7 — 2 in 6 ticks.
	if scans != 2 {
		t.Fatalf("scan failures in 6 ticks = %d, want 2 (backoff)", scans)
	}
}

// Two passes over independent dead clients run on the service's two
// executors while the monitor's maintenance scans borrow whichever is free.
// The scan's scratch (membership bitset, re-link candidates, cascade stack)
// lives on the executor, so no two goroutines ever share one: `make race`
// runs this under the race detector, which is what proves it.
func TestConcurrentPassesKeepScanScratchPerExecutor(t *testing.T) {
	p, err := shm.NewPool(shm.Config{Geometry: layout.GeometryConfig{
		MaxClients: 8, NumSegments: 32, SegmentWords: 1 << 13, PageWords: 1 << 9, MaxQueues: 8,
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.CloseDevice() })
	svc, err := NewServiceWorkers(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	// The test runs the passes itself; the monitor only maintains.
	m := NewMonitor(svc, MonitorConfig{Threshold: math.MaxInt32})
	m.recoverFn = func(cid int) (Report, error) { return Report{}, nil }
	survivor, err := p.Connect()
	if err != nil {
		t.Fatal(err)
	}
	// The survivor holds each round's shared objects until the next round's
	// passes are over, so those passes overlap maintenance scans of the
	// segments the previous round abandoned.
	var held []layout.Addr
	for round := 0; round < 4; round++ {
		var cids [2]int
		var shared []layout.Addr
		for i := range cids {
			v, err := p.Connect()
			if err != nil {
				t.Fatal(err)
			}
			cids[i] = v.ID()
			var prev layout.Addr
			for j := 0; j < 300; j++ {
				root, block, err := v.Malloc(32+j%5*40, j%4/3)
				if err != nil {
					t.Fatal(err)
				}
				switch {
				case j%4 == 3: // reclaimed by a cascade through its embedded reference
					if err := v.SetEmbed(block, 0, prev); err != nil {
						t.Fatal(err)
					}
				case j%10 == 0:
					r, err := survivor.AttachRoot(block)
					if err != nil {
						t.Fatal(err)
					}
					shared = append(shared, r)
				case j%8 == 1: // lost: free-marked, publication deferred
					if _, err := v.ReleaseRoot(root); err != nil {
						t.Fatal(err)
					}
				}
				prev = block
			}
			if err := p.MarkClientDead(cids[i]); err != nil {
				t.Fatal(err)
			}
		}
		var wg sync.WaitGroup
		for _, cid := range cids {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := svc.RecoverClient(cid); err != nil {
					t.Errorf("RecoverClient(%d): %v", cid, err)
				}
			}()
		}
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		for passes := true; passes; {
			select {
			case <-done:
				passes = false
			default:
				m.Tick()
			}
		}
		for _, r := range held {
			if _, err := survivor.ReleaseRoot(r); err != nil {
				t.Fatal(err)
			}
		}
		held = shared
		survivor.Heartbeat()
		m.Tick()
	}
	for _, r := range held {
		if _, err := survivor.ReleaseRoot(r); err != nil {
			t.Fatal(err)
		}
	}
	survivor.Heartbeat()
	m.Tick()
	m.Tick()
	if fails := m.Failures(); len(fails) > 0 {
		t.Fatalf("monitor recorded %d failed duties, first: %+v", len(fails), fails[0])
	}
	if u := p.Usage(); u.SegmentsAbandoned != 0 {
		t.Fatalf("abandoned segments left behind: %+v", u)
	}
	if res := check.Validate(p); !res.Clean() {
		t.Fatalf("pool not clean: %v", res.Issues)
	}
}
