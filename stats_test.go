package cxlshm_test

import (
	"encoding/json"
	"testing"
	"time"

	cxlshm "repro"
	"repro/internal/obs"
	"repro/internal/shm"
)

// TestStatsAfterCrashAndRecover is the observability acceptance check: after
// a crash-and-recover round trip, Pool.Stats() must report non-zero alloc,
// free, send, and receive counters, and Pool.TraceEvents() must carry the
// recovery lifecycle.
func TestStatsAfterCrashAndRecover(t *testing.T) {
	p := newPool(t)
	a, err := p.Connect()
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Connect()
	if err != nil {
		t.Fatal(err)
	}

	// Normal traffic: allocate, transfer through a queue, release.
	q, err := a.NewQueueTo(b.ID(), 8)
	if err != nil {
		t.Fatal(err)
	}
	qb, err := b.OpenQueueFrom(a.ID())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		ref, err := a.Malloc(64, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Send(q, ref); err != nil {
			t.Fatal(err)
		}
		if _, err := ref.Release(); err != nil {
			t.Fatal(err)
		}
		got, err := b.Receive(qb)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := got.Release(); err != nil {
			t.Fatal(err)
		}
	}

	// Heartbeats publish each client's locally accumulated counters (the
	// hot paths only publish every few era bumps).
	a.Heartbeat()
	b.Heartbeat()

	// Client a dies holding live objects; the pool recovers it.
	for i := 0; i < 5; i++ {
		if _, err := a.Malloc(128, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Recover(a.ID()); err != nil {
		t.Fatal(err)
	}
	p.Maintain()

	st := p.Stats()
	for _, name := range []string{
		obs.CtrAlloc.Name(), obs.CtrFree.Name(),
		obs.CtrQueueSend.Name(), obs.CtrQueueReceive.Name(),
		obs.CtrClientFenced.Name(), obs.CtrRecoveryPass.Name(),
	} {
		if st.Counters[name] == 0 {
			t.Errorf("Stats counter %q is zero after crash-and-recover run", name)
		}
	}
	if st.Counters[obs.CtrQueueSend.Name()] < 10 || st.Counters[obs.CtrQueueReceive.Name()] < 10 {
		t.Errorf("queue counters below traffic: send=%d receive=%d",
			st.Counters[obs.CtrQueueSend.Name()], st.Counters[obs.CtrQueueReceive.Name()])
	}
	// b plus the recovery service's own client remain alive; a was fenced.
	if st.Usage.ClientsAlive != 2 {
		t.Errorf("usage in stats reports %d live clients, want 2", st.Usage.ClientsAlive)
	}

	events := p.TraceEvents()
	if len(events) == 0 {
		t.Fatal("TraceEvents empty after recovery")
	}
	var recovered bool
	for _, e := range events {
		if e.Type == obs.EvRecoveryFinished && e.Client == a.ID() {
			recovered = true
		}
	}
	if !recovered {
		t.Errorf("no recovery-finished trace event for client %d in %d events",
			a.ID(), len(events))
	}

	// Stats and the trace must marshal, and snapshots must be disjoint per
	// pool: a fresh pool starts from zero.
	if _, err := json.MarshalIndent(struct {
		Stats  any
		Events []obs.Event
	}{st, events}, "", "  "); err != nil {
		t.Fatal(err)
	}
	fresh := newPool(t)
	if n := fresh.Stats().Counters[obs.CtrAlloc.Name()]; n != 0 {
		t.Errorf("fresh pool starts with alloc_ops=%d", n)
	}
}

// timeline returns cid's entry in Stats().Timelines.
func timeline(st cxlshm.Stats, cid int) (shm.TelemetryTimeline, bool) {
	for _, tl := range st.Timelines {
		if tl.Client == cid {
			return tl, true
		}
	}
	return shm.TelemetryTimeline{}, false
}

// TestStatsCarriesMonitorRecoveries: once the monitor recovers a silent
// client, Pool.Stats() must surface that client's timeline — fenced for a
// heartbeat timeout, recovered, with its detection-to-recovered duration.
func TestStatsCarriesMonitorRecoveries(t *testing.T) {
	p := newPool(t)
	defer p.Close()
	victim, err := p.Connect()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := victim.Malloc(64, 0); err != nil {
		t.Fatal(err)
	}
	// The victim goes silent; the monitor must notice on its own.
	p.StartMonitor(2*time.Millisecond, 2)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if tl, ok := timeline(p.Stats(), victim.ID()); ok && tl.Completed > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("monitor never recovered the silent client")
		}
		time.Sleep(2 * time.Millisecond)
	}
	st := p.Stats()
	tl, _ := timeline(st, victim.ID())
	if tl.Deaths != 1 || tl.Completed != 1 || tl.DurationNS <= 0 || tl.FirstMissNS <= 0 {
		t.Errorf("timeline = %+v, want one detected death, recovered, with positive duration", tl)
	}
	if tl.ReasonName != obs.FenceHeartbeat.String() {
		t.Errorf("fence reason = %q, want %q", tl.ReasonName, obs.FenceHeartbeat)
	}
	if len(st.Failures) != 0 {
		t.Errorf("monitor failures: %+v", st.Failures)
	}
}

// TestStatsCarriesRecoveryWithoutMonitor: the pool, not the monitor, keeps
// the record, so a recovery run by Pool.Recover with no monitor started
// shows in Stats() too.
func TestStatsCarriesRecoveryWithoutMonitor(t *testing.T) {
	p := newPool(t)
	victim, err := p.Connect()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := victim.Malloc(64, 0); err != nil {
		t.Fatal(err)
	}
	if err := p.Recover(victim.ID()); err != nil {
		t.Fatal(err)
	}
	tl, ok := timeline(p.Stats(), victim.ID())
	if !ok || tl.Deaths < 1 || tl.Completed < 1 || tl.DurationNS <= 0 {
		t.Fatalf("Stats timeline = %+v (ok %v), want a completed death with positive duration", tl, ok)
	}
	if tl.ReasonName != obs.FenceExplicit.String() {
		t.Errorf("fence reason = %q, want %q", tl.ReasonName, obs.FenceExplicit)
	}
}
