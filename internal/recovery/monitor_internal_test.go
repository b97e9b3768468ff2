package recovery

import (
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/layout"
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

// A client stuck in ClientDead because its recovery keeps failing must yield
// exactly one found-dead fence record, every error must surface through
// Failures(), and retries must back off instead of hammering every tick.
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

	var fences int
	for _, f := range m.Fences() {
		if f.Client == x.ID() {
			fences++
			if f.Reason != "found-dead" {
				t.Errorf("fence reason = %q, want found-dead", f.Reason)
			}
		}
	}
	if fences != 1 {
		t.Fatalf("found-dead fences = %d, want exactly 1", fences)
	}
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
	if len(m.Reports()) != 1 {
		t.Fatalf("reports = %d, want 1", len(m.Reports()))
	}
	for _, f := range m.Fences()[1:] {
		if f.Client == x.ID() {
			t.Fatalf("extra fence recorded after recovery: %+v", f)
		}
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
	// to the untracked map's zero value.
	p.Device().Store(p.Geometry().ClientHeartbeatAddr(x.ID()), 0)

	m := NewMonitor(svc, MonitorConfig{Threshold: 3})
	for i := 0; i < 3; i++ {
		m.Tick()
	}
	// Tick 1 seeds, ticks 2-3 accrue misses 1-2: still below threshold.
	if f, ok := m.LastFence(); ok {
		t.Fatalf("client fenced after %d misses at tick 3: %+v (bootstrap counted as a miss)", f.Misses, f)
	}
	// The genuinely silent client is still fenced, one tick later.
	m.Tick()
	f, ok := m.LastFence()
	if !ok || f.Client != x.ID() {
		t.Fatalf("silent client not fenced by tick 4 (fence=%+v ok=%v)", f, ok)
	}
	if f.Misses != 3 {
		t.Fatalf("fence misses = %d, want 3", f.Misses)
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
