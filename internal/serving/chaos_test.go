package serving_test

import (
	"testing"
	"time"

	"repro/internal/netrpc"
	"repro/internal/serving"
	"repro/internal/shm"
)

// TestChaosInProcess runs the full serving chaos harness with in-process
// workers on the heap backend: preload, three workers serving zipfian
// traffic, one killed mid-stream, monitor-driven recovery, metadata-only
// partition takeover, and a clean fsck at the end.
func TestChaosInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run in -short mode")
	}
	cfg := serving.ChaosConfig{
		Workers:    3,
		Keys:       4000,
		ValSize:    48,
		WriteRatio: 0.3,
		Zipf:       0.9,
		Conns:      4,
		OpsPerConn: 4000,
		ScanEvery:  64,
		ScanSpan:   32,
		Seed:       1,
		Kill:       true,
		Net:        netrpc.Config{ReadTimeout: 10 * time.Second, WriteTimeout: 10 * time.Second},
	}
	p, err := shm.NewPool(shm.Config{Geometry: serving.SizeGeometry(cfg)})
	if err != nil {
		t.Fatal(err)
	}
	defer p.CloseDevice()

	res, err := serving.RunChaos(p, serving.InProcSpawner(p), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("ops=%d (%.0f/s) read p99=%v write p99=%v window p99=%v", res.Ops, res.OpsPerSec,
		time.Duration(res.ReadP99NS), time.Duration(res.WriteP99NS), time.Duration(res.WindowP99NS))
	t.Logf("victim worker %d cid %d: detect→recovered=%v takeover=%v disruption=%v victimErrs=%d stalled=%d",
		res.VictimWorker, res.VictimCID, time.Duration(res.DetectToRecoveredNS),
		time.Duration(res.TakeoverNS), time.Duration(res.DisruptionNS),
		res.VictimErrors, res.StalledWrites)

	if !res.Killed {
		t.Fatal("chaos run did not kill")
	}
	if res.SurvivorErrors != 0 {
		t.Errorf("survivors errored %d times, want 0", res.SurvivorErrors)
	}
	if res.LostWrites != 0 {
		t.Errorf("%d writes lost, want 0", res.LostWrites)
	}
	if res.Corruptions != 0 {
		t.Errorf("%d corrupt reads, want 0", res.Corruptions)
	}
	if res.DetectToRecoveredNS <= 0 {
		t.Error("no detect→recovered SLO measured")
	}
	if res.DetectToRecoveredNS > (10 * time.Second).Nanoseconds() {
		t.Errorf("detect→recovered %v implausibly slow", time.Duration(res.DetectToRecoveredNS))
	}
	if !res.FsckClean {
		t.Errorf("pool not fsck-clean after chaos (%d issues)", res.FsckIssues)
	}
	if res.Ops == 0 || res.ReadP99NS == 0 {
		t.Error("no traffic measured")
	}
}

// trackedWorker counts Kill calls and can report an address nobody listens
// on, so that every driver connection fails to dial it.
type trackedWorker struct {
	serving.WorkerProc
	unreachable bool
	kills       *int
}

func (w trackedWorker) Addr() string {
	if w.unreachable {
		return "@cxlshm-netrpc-nobody-listens-here"
	}
	return w.WorkerProc.Addr()
}

func (w trackedWorker) Kill() error {
	*w.kills++
	return w.WorkerProc.Kill()
}

// TestChaosDriverStopsBeforeKillPoint: when the traffic driver returns before
// the kill point (here every connection fails to dial worker 1), RunChaos
// must return the driver's error instead of waiting forever for operations
// that will never come, and must kill the workers it spawned.
func TestChaosDriverStopsBeforeKillPoint(t *testing.T) {
	cfg := serving.ChaosConfig{
		Workers:    2,
		Keys:       2000,
		Conns:      2,
		OpsPerConn: 500,
		Kill:       true,
	}
	p, err := shm.NewPool(shm.Config{Geometry: serving.SizeGeometry(cfg)})
	if err != nil {
		t.Fatal(err)
	}
	defer p.CloseDevice()
	inproc := serving.InProcSpawner(p)
	kills := 0
	spawn := func(idx int, wc serving.WorkerConfig) (serving.WorkerProc, error) {
		w, err := inproc(idx, wc)
		if err != nil {
			return nil, err
		}
		return trackedWorker{w, idx == 1, &kills}, nil
	}

	errc := make(chan error, 1)
	go func() {
		_, err := serving.RunChaos(p, spawn, cfg)
		errc <- err
	}()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("RunChaos succeeded with an undialable worker")
		}
		t.Logf("RunChaos: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("RunChaos still waiting for the kill point 5s after its driver stopped")
	}
	if kills != cfg.Workers {
		t.Errorf("failed run killed %d of its %d workers", kills, cfg.Workers)
	}
}

// TestChaosNoKill is the control: same harness, no failure injected —
// nothing stalls, nothing reroutes, fsck clean.
func TestChaosNoKill(t *testing.T) {
	cfg := serving.ChaosConfig{
		Workers:    2,
		Keys:       1000,
		ValSize:    32,
		WriteRatio: 0.3,
		Zipf:       0.5,
		Conns:      2,
		OpsPerConn: 1000,
		Seed:       2,
		Net:        netrpc.Config{ReadTimeout: 10 * time.Second, WriteTimeout: 10 * time.Second},
	}
	p, err := shm.NewPool(shm.Config{Geometry: serving.SizeGeometry(cfg)})
	if err != nil {
		t.Fatal(err)
	}
	defer p.CloseDevice()

	res, err := serving.RunChaos(p, serving.InProcSpawner(p), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Killed || res.VictimErrors != 0 || res.SurvivorErrors != 0 ||
		res.StalledWrites != 0 || res.Rerouted != 0 {
		t.Errorf("control run saw disruption: %+v", res)
	}
	if res.Corruptions != 0 || res.LostWrites != 0 || !res.FsckClean {
		t.Errorf("control run integrity: %+v", res)
	}
	if res.Ops != 2000 {
		t.Errorf("ops=%d, want 2000", res.Ops)
	}
}
