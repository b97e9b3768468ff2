package recovery_test

import (
	"testing"
	"time"

	"repro/internal/layout"
	"repro/internal/obs"
	"repro/internal/recovery"
)

// TestMonitorRecoveryTimeline drives a heartbeat-loss death through the
// monitor and asserts the crash-surviving timeline records every stage in
// order — first miss, fence, recovery attempt, recovered — with a positive
// detection-to-recovered duration that also lands in the SLO histogram.
func TestMonitorRecoveryTimeline(t *testing.T) {
	p := newTestPool(t)
	victim := connect(t, p)
	for i := 0; i < 5; i++ {
		if _, _, err := victim.Malloc(64, 0); err != nil {
			t.Fatal(err)
		}
	}
	cid := victim.ID()
	// The victim hangs: it never beats again, never closes.

	svc, err := recovery.NewService(p)
	if err != nil {
		t.Fatal(err)
	}
	mon := recovery.NewMonitor(svc, recovery.MonitorConfig{Threshold: 2})
	// Tick 1 seeds the baseline, tick 2 counts the first miss (stamping
	// detection time), tick 3 crosses the threshold: fence + recover. The
	// sleeps keep the stamps strictly ordered on coarse clocks.
	for i := 0; i < 3; i++ {
		mon.Tick()
		time.Sleep(2 * time.Millisecond)
	}
	if st := p.ClientStatus(cid); st != layout.ClientRecovered {
		t.Fatalf("victim status = %d after 3 ticks, want recovered", st)
	}

	tl, ok := p.Telemetry().ReadTimeline(cid)
	if !ok {
		t.Fatal("no timeline for the recovered victim")
	}
	if tl.Deaths != 1 || tl.Completed != 1 {
		t.Errorf("deaths=%d completed=%d, want 1/1", tl.Deaths, tl.Completed)
	}
	if tl.ReasonName != "heartbeat-timeout" {
		t.Errorf("fence reason = %q, want heartbeat-timeout", tl.ReasonName)
	}
	if tl.FirstMissNS <= 0 {
		t.Fatalf("timeline carries no detection stamp (first miss %d)", tl.FirstMissNS)
	}
	if tl.FencedNS < tl.FirstMissNS {
		t.Errorf("fence (%d) precedes first miss (%d)", tl.FencedNS, tl.FirstMissNS)
	}
	if tl.AttemptNS < tl.FencedNS {
		t.Errorf("recovery attempt (%d) precedes fence (%d)", tl.AttemptNS, tl.FencedNS)
	}
	if tl.Attempts != 1 {
		t.Errorf("attempts = %d, want 1", tl.Attempts)
	}
	if tl.RecoveredNS < tl.AttemptNS {
		t.Errorf("recovered (%d) precedes attempt (%d)", tl.RecoveredNS, tl.AttemptNS)
	}
	if tl.DurationNS <= 0 {
		t.Errorf("detect-to-recovered duration = %d, want > 0", tl.DurationNS)
	}
	if want := tl.RecoveredNS - tl.FirstMissNS; tl.DurationNS != want {
		t.Errorf("duration %d != recovered-firstmiss %d", tl.DurationNS, want)
	}
	if tl.SweptRoots == 0 {
		t.Error("victim died holding 5 roots but timeline records none swept")
	}
	if fs := fences(p, cid); len(fs) != 1 || obs.FenceReason(fs[0].A) != obs.FenceHeartbeat {
		t.Errorf("fence events %+v, want exactly one, heartbeat-timeout", fs)
	}

	// The duration lands in the SLO histogram of the crash-surviving pool
	// block.
	pb, _ := p.Telemetry().ReadBlock(0)
	var slo uint64
	for _, c := range pb.Histos[obs.HistDetectRecoverNS] {
		slo += c
	}
	if slo == 0 {
		t.Error("pool-block detect_to_recovered_ns histogram is empty")
	}
	if pb.Counters[obs.CtrClientFenced] == 0 || pb.Counters[obs.CtrRecoveryPass] == 0 {
		t.Errorf("pool block fences=%d recoveries=%d, want both > 0",
			pb.Counters[obs.CtrClientFenced], pb.Counters[obs.CtrRecoveryPass])
	}
	mustClean(t, p, "after monitored recovery")
}

// TestTimelineCountsEveryDeath: the pool's timeline, not the monitor, is
// the record of a slot's deaths. One slot closed and recovered a thousand
// times reads a thousand deaths, all completed, and the monitor books no
// failure.
func TestTimelineCountsEveryDeath(t *testing.T) {
	p := newTestPool(t)
	svc, err := recovery.NewService(p)
	if err != nil {
		t.Fatal(err)
	}
	mon := recovery.NewMonitor(svc, recovery.MonitorConfig{})
	const cycles = 1000
	cid := 0
	for i := 0; i < cycles; i++ {
		c := connect(t, p)
		if cid == 0 {
			cid = c.ID()
		} else if c.ID() != cid {
			t.Fatalf("cycle %d connected to slot %d, want %d", i, c.ID(), cid)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		mon.Tick()
	}
	tl, ok := p.Telemetry().ReadTimeline(cid)
	if !ok || tl.Deaths != cycles || tl.Completed != cycles {
		t.Fatalf("timeline deaths=%d completed=%d (ok %v), want %d/%d", tl.Deaths, tl.Completed, ok, cycles, cycles)
	}
	if tl.ReasonName != obs.FenceClose.String() {
		t.Errorf("last death's reason = %q, want %q", tl.ReasonName, obs.FenceClose)
	}
	if fails := mon.Failures(); len(fails) != 0 {
		t.Fatalf("monitor recorded %d failures, first: %+v", len(fails), fails[0])
	}
	mustClean(t, p, "after slot churn")
}

// TestTimelineExplicitFenceHasNoDetectionGap: an explicitly killed client
// has no heartbeat-miss stamp, so the SLO clock starts at the fence and the
// reason says explicit.
func TestTimelineExplicitFence(t *testing.T) {
	p := newTestPool(t)
	victim := connect(t, p)
	if _, _, err := victim.Malloc(64, 0); err != nil {
		t.Fatal(err)
	}
	svc, err := recovery.NewService(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.MarkClientDead(victim.ID()); err != nil {
		t.Fatal(err)
	}
	time.Sleep(time.Millisecond)
	if _, err := svc.RecoverClient(victim.ID()); err != nil {
		t.Fatal(err)
	}
	tl, ok := p.Telemetry().ReadTimeline(victim.ID())
	if !ok {
		t.Fatal("no timeline after explicit fence + recovery")
	}
	if tl.FirstMissNS != 0 {
		t.Errorf("explicit fence has first-miss stamp %d, want none", tl.FirstMissNS)
	}
	if tl.ReasonName != "explicit" {
		t.Errorf("reason = %q, want explicit", tl.ReasonName)
	}
	if tl.DurationNS <= 0 || tl.DurationNS != tl.RecoveredNS-tl.FencedNS {
		t.Errorf("duration %d, want recovered-fenced = %d", tl.DurationNS, tl.RecoveredNS-tl.FencedNS)
	}
}
