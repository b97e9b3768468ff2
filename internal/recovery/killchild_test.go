//go:build unix

package recovery_test

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/layout"
	"repro/internal/obs"
	"repro/internal/recovery"
	"repro/internal/shm"
)

// childAllocs is the workload the helper process runs before parking in a
// heartbeat loop; the parent asserts this exact count survives the kill.
const childAllocs = 10

// TestKillChildCrossProcess is the full observability acceptance story
// across real OS processes: a child process joins a file-backed pool, does
// work, publishes its counters, and is killed with SIGKILL mid-heartbeat.
// The parent — a different process, a different mapping — must still read
// the child's final counter vector, watch the monitor detect and recover
// the death, and find a complete detection→fence→recovery→recovered
// timeline with a positive SLO duration in the pool itself.
func TestKillChildCrossProcess(t *testing.T) {
	if os.Getenv("CXLSHM_KILLCHILD_HELPER") == "1" {
		t.Skip("helper mode is driven by the parent test")
	}
	path := filepath.Join(t.TempDir(), "pool.cxl")
	p, err := shm.NewPool(shm.Config{Geometry: layout.GeometryConfig{
		MaxClients: 8, NumSegments: 16, SegmentWords: 1 << 13, PageWords: 1 << 9, MaxQueues: 8,
	}, File: path})
	if err != nil {
		t.Fatal(err)
	}
	defer p.CloseDevice()

	cmd := exec.Command(os.Args[0], "-test.run", "^TestKillChildHelper$", "-test.v")
	cmd.Env = append(os.Environ(),
		"CXLSHM_KILLCHILD_HELPER=1",
		"CXLSHM_KILLCHILD_POOL="+path,
	)
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()

	// Wait for the child to report it has connected and published.
	cid := 0
	sc := bufio.NewScanner(out)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if n, ok := strings.CutPrefix(line, "READY "); ok {
			cid, err = strconv.Atoi(n)
			if err != nil {
				t.Fatalf("helper READY line %q: %v", line, err)
			}
			break
		}
	}
	if cid == 0 {
		t.Fatalf("helper never reported READY (scan err %v)", sc.Err())
	}

	// Cross-process read of the live child's published vector.
	tel := p.Telemetry()
	deadline := time.Now().Add(10 * time.Second)
	var b shm.TelemetryBlock
	for {
		var ok bool
		if b, ok = tel.ReadBlock(cid); ok && b.Consistent && b.Counters[obs.CtrAlloc] >= childAllocs {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("child's published counters never became visible (block %+v)", b)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if b.Identity != uint64(cmd.Process.Pid) {
		t.Errorf("published identity = %d, want child pid %d", b.Identity, cmd.Process.Pid)
	}

	// kill -9: no defer runs in the child, no Close, no final publish.
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()

	// The monitor (in this process) must detect the stalled heartbeat,
	// fence, and recover — driven deterministically tick by tick.
	svc, err := recovery.NewService(p)
	if err != nil {
		t.Fatal(err)
	}
	mon := recovery.NewMonitor(svc, recovery.MonitorConfig{Threshold: 2})
	recovered := false
	for i := 0; i < 500; i++ {
		mon.Tick()
		if p.ClientStatus(cid) == layout.ClientRecovered {
			recovered = true
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if !recovered {
		t.Fatalf("monitor never recovered the killed child (status %d)", p.ClientStatus(cid))
	}

	// The dead child's final counter vector survives the kill.
	fin, ok := tel.ReadBlock(cid)
	if !ok || !fin.Consistent {
		t.Fatal("killed child's telemetry block unreadable after recovery")
	}
	if fin.Counters[obs.CtrAlloc] != b.Counters[obs.CtrAlloc] {
		t.Errorf("final alloc counter %d != last published %d", fin.Counters[obs.CtrAlloc], b.Counters[obs.CtrAlloc])
	}
	if fin.Counters[obs.CtrAlloc] < childAllocs {
		t.Errorf("final alloc counter %d, want >= %d", fin.Counters[obs.CtrAlloc], childAllocs)
	}

	// And the timeline tells the death's whole story.
	tl, ok := tel.ReadTimeline(cid)
	if !ok {
		t.Fatal("no recovery timeline for the killed child")
	}
	if tl.ReasonName != "heartbeat-timeout" {
		t.Errorf("fence reason = %q, want heartbeat-timeout", tl.ReasonName)
	}
	if tl.FirstMissNS <= 0 || tl.FencedNS < tl.FirstMissNS ||
		tl.AttemptNS < tl.FencedNS || tl.RecoveredNS < tl.AttemptNS {
		t.Errorf("timeline out of order: miss=%d fence=%d attempt=%d recovered=%d",
			tl.FirstMissNS, tl.FencedNS, tl.AttemptNS, tl.RecoveredNS)
	}
	if tl.DurationNS <= 0 {
		t.Errorf("detect-to-recovered duration %d, want > 0", tl.DurationNS)
	}
	if tl.SweptRoots == 0 {
		t.Error("child died holding roots but the timeline records none swept")
	}
	if tl.Deaths != 1 || tl.Completed != 1 {
		t.Errorf("timeline deaths=%d completed=%d, want 1/1", tl.Deaths, tl.Completed)
	}
	if fs := fences(p, cid); len(fs) != 1 || obs.FenceReason(fs[0].A) != obs.FenceHeartbeat {
		t.Errorf("fence events %+v, want exactly one, heartbeat-timeout", fs)
	}
}

// TestKillChildHelper is the child half of TestKillChildCrossProcess; it is
// skipped unless re-executed by the parent with the helper env set.
func TestKillChildHelper(t *testing.T) {
	if os.Getenv("CXLSHM_KILLCHILD_HELPER") != "1" {
		t.Skip("helper process for TestKillChildCrossProcess")
	}
	p, err := shm.OpenFile(os.Getenv("CXLSHM_KILLCHILD_POOL"))
	if err != nil {
		t.Fatal(err)
	}
	c, err := p.Connect()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < childAllocs; i++ {
		if _, _, err := c.Malloc(64, 0); err != nil {
			t.Fatal(err)
		}
	}
	c.FlushMetrics()
	fmt.Printf("READY %d\n", c.ID())
	// Beat until SIGKILLed; the deadline only guards an orphaned helper.
	for end := time.Now().Add(30 * time.Second); time.Now().Before(end); {
		c.Heartbeat()
		time.Sleep(2 * time.Millisecond)
	}
}
