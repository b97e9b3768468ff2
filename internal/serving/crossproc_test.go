//go:build unix

package serving_test

import (
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"repro/internal/netrpc"
	"repro/internal/serving"
	"repro/internal/shm"
)

// TestServingCrossProcess is the serving tier's acceptance story across
// real OS processes: worker children (this test binary re-exec'd) attach
// the same mmap pool file and serve over Unix-domain sockets, the driver runs
// zipfian traffic against them, one child is SIGKILLed mid-stream, the
// monitor in THIS process detects the frozen heartbeat through the shared
// file and recovers the slot, a surviving child steals the dead writer's
// partition, and the run ends with zero survivor errors, zero lost
// writes, and a clean fsck.
func TestServingCrossProcess(t *testing.T) {
	if os.Getenv("CXLSHM_SERVING_HELPER") == "1" {
		t.Skip("helper mode is driven by the parent test")
	}
	if testing.Short() {
		t.Skip("cross-process chaos in -short mode")
	}

	cfg := serving.ChaosConfig{
		Workers:    3,
		Keys:       5_000,
		ValSize:    48,
		WriteRatio: 0.3,
		Zipf:       0.9,
		Conns:      4,
		OpsPerConn: 4_000,
		ScanEvery:  64,
		ScanSpan:   32,
		Seed:       7,
		Kill:       true,
		Net:        netrpc.Config{ReadTimeout: 15 * time.Second, WriteTimeout: 15 * time.Second},
	}
	path := filepath.Join(t.TempDir(), "pool.cxl")
	p, err := shm.NewPool(shm.Config{Geometry: serving.SizeGeometry(cfg), File: path})
	if err != nil {
		t.Fatal(err)
	}
	defer p.CloseDevice()

	children := serving.ExecSpawner(cfg.Net, func(idx int) *exec.Cmd {
		cmd := exec.Command(os.Args[0], "-test.run", "^TestServingWorkerHelper$", "-test.v")
		cmd.Env = append(os.Environ(),
			"CXLSHM_SERVING_HELPER=1",
			"CXLSHM_SERVING_POOL="+path,
			"CXLSHM_SERVING_PARTITION="+strconv.Itoa(idx),
		)
		return cmd
	})
	var addrs []string
	spawn := func(idx int, wc serving.WorkerConfig) (serving.WorkerProc, error) {
		proc, err := children(idx, wc)
		if err == nil {
			addrs = append(addrs, proc.Addr())
		}
		return proc, err
	}

	res, err := serving.RunChaos(p, spawn, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("ops=%d (%.0f/s) detect→recovered=%v disruption=%v victimErrs=%d stalled=%d rerouted=%d",
		res.Ops, res.OpsPerSec, time.Duration(res.DetectToRecoveredNS),
		time.Duration(res.DisruptionNS), res.VictimErrors, res.StalledWrites, res.Rerouted)

	if !res.Killed {
		t.Fatal("no worker was killed")
	}
	if res.SurvivorErrors != 0 {
		t.Errorf("survivors errored %d times, want 0", res.SurvivorErrors)
	}
	if res.LostWrites != 0 {
		t.Errorf("%d writes lost across the failover, want 0", res.LostWrites)
	}
	if res.Corruptions != 0 {
		t.Errorf("%d corrupt reads, want 0", res.Corruptions)
	}
	if res.DetectToRecoveredNS <= 0 {
		t.Error("no detect→recovered SLO measured for the SIGKILLed worker")
	}
	if slo := time.Duration(res.DetectToRecoveredNS); slo > 10*time.Second {
		t.Errorf("detect→recovered %v, want under the 10s SLO ceiling", slo)
	}
	// The SLO is read from the pool file: the victim's timeline is the record.
	if tl, ok := p.Telemetry().ReadTimeline(res.VictimCID); !ok || tl.Deaths == 0 ||
		tl.Completed != tl.Deaths || tl.DurationNS != res.DetectToRecoveredNS ||
		tl.ReasonName != "heartbeat-timeout" {
		t.Errorf("victim timeline %+v (ok %v), want its heartbeat-timeout death recovered in %dns",
			tl, ok, res.DetectToRecoveredNS)
	}
	if !res.FsckClean {
		t.Errorf("pool not fsck-clean after cross-process chaos (%d issues)", res.FsckIssues)
	}
	// Every child is gone, one of them by SIGKILL: none may have left its
	// address bound (an abstract name dies with its process; a socket file
	// would not).
	if len(addrs) != cfg.Workers {
		t.Fatalf("saw %d worker addresses, want %d", len(addrs), cfg.Workers)
	}
	for _, addr := range addrs {
		ln, err := net.Listen("unix", addr)
		if err != nil {
			t.Errorf("worker address %s still bound after its process died: %v", addr, err)
			continue
		}
		ln.Close()
	}
}

// TestServingWorkerHelper is the child half of TestServingCrossProcess: a
// worker process that attaches the shared pool file, serves its partition,
// and parks until FnQuit or SIGKILL.
func TestServingWorkerHelper(t *testing.T) {
	if os.Getenv("CXLSHM_SERVING_HELPER") != "1" {
		t.Skip("helper process for TestServingCrossProcess")
	}
	part, err := strconv.Atoi(os.Getenv("CXLSHM_SERVING_PARTITION"))
	if err != nil {
		t.Fatal(err)
	}
	w, err := serving.StartWorkerFile(os.Getenv("CXLSHM_SERVING_POOL"), serving.WorkerConfig{
		Partitions: []int{part},
		Net:        netrpc.Config{ReadTimeout: 15 * time.Second, WriteTimeout: 15 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	fmt.Println(serving.ReadyLine(w.Addr(), w.CID()))
	select {
	case <-w.QuitRequested():
		w.Stop()
	case <-time.After(60 * time.Second):
		// Orphan guard only; the parent either quits or kills us.
		w.Stop()
	}
}
