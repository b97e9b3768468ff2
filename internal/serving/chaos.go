package serving

import (
	"bufio"
	"errors"
	"fmt"
	"math/bits"
	"os"
	"os/exec"
	"strings"
	"sync"
	"time"

	"repro/internal/check"
	"repro/internal/kv"
	"repro/internal/layout"
	"repro/internal/netrpc"
	"repro/internal/recovery"
	"repro/internal/shm"
)

// ChaosConfig shapes one serving run: geometry, workload, and the failure
// to inject.
type ChaosConfig struct {
	Workers int // serving workers (= writer partitions)

	Keys    int
	ValSize int
	Buckets int // 0: sized from Keys

	WriteRatio float64
	Zipf       float64

	Conns      int // driver goroutines
	OpsPerConn int
	ScanEvery  int
	ScanSpan   int
	Seed       int64

	// Kill injects the partial failure: one worker is killed abruptly
	// mid-traffic, the monitor must fence and recover it, and a survivor
	// takes over its partition.
	Kill bool

	RootSlot int
	Net      netrpc.Config

	HeartbeatEvery   time.Duration
	MonitorInterval  time.Duration
	MonitorThreshold int
	RecoveryWorkers  int
	FailoverWait     time.Duration
}

func (c *ChaosConfig) fill() {
	if c.Workers <= 0 {
		c.Workers = 3
	}
	if c.Keys <= 0 {
		c.Keys = 50_000
	}
	if c.ValSize <= 0 {
		c.ValSize = 64
	}
	if c.Buckets <= 0 {
		c.Buckets = defaultBuckets(c.Keys)
	}
	if c.Conns <= 0 {
		c.Conns = 4
	}
	if c.OpsPerConn <= 0 {
		c.OpsPerConn = 5_000
	}
	if c.WriteRatio == 0 {
		c.WriteRatio = 0.3
	}
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = 2 * time.Millisecond
	}
	if c.MonitorInterval <= 0 {
		c.MonitorInterval = 10 * time.Millisecond
	}
	if c.MonitorThreshold <= 0 {
		// ~50ms of grace against a 2ms heartbeat. Tighter settings (5ms x 3)
		// false-positive on small machines: a worker's heartbeat goroutine
		// can be starved for >15ms by scheduler queueing or dirty-page
		// writeback throttling on the mmap backend, and fencing a live
		// worker turns a chaos drill into real survivor damage.
		c.MonitorThreshold = 5
	}
	if c.RecoveryWorkers <= 0 {
		c.RecoveryWorkers = 4
	}
	if c.FailoverWait <= 0 {
		c.FailoverWait = 10 * time.Second
	}
}

// defaultBuckets sizes the hash table at roughly keys/4 (mean chain ~4),
// rounded up to a power of two and capped at 32Ki — the bucket count is
// the index object's embedded-reference count, which the meta word caps
// at layout.MaxEmbedRefs (65535).
func defaultBuckets(keys int) int {
	b := keys / 4
	if b < 1024 {
		return 1024
	}
	if b > 32768 {
		return 32768
	}
	return 1 << bits.Len(uint(b-1))
}

// SizeGeometry computes a pool geometry that fits the configured store
// with headroom: each record costs its value plus header words, the index
// is one huge object of ~Buckets words, and segments are doubled so
// recovery always has clean segments to adopt into.
func SizeGeometry(cfg ChaosConfig) layout.GeometryConfig {
	cfg.fill()
	recWords := uint64(cfg.ValSize+15)/8 + 6
	need := uint64(cfg.Keys)*recWords + uint64(cfg.Buckets)*2 + 1<<16
	const segWords = 1 << 16
	segs := int(2 * need / segWords)
	if segs < 64 {
		segs = 64
	}
	if segs > 8192 {
		segs = 8192
	}
	return layout.GeometryConfig{
		MaxClients:   cfg.Workers + cfg.RecoveryWorkers + 8,
		NumSegments:  segs,
		SegmentWords: segWords,
	}
}

// WorkerProc is one serving worker as the orchestrator sees it — in this
// process or a child OS process.
type WorkerProc interface {
	Addr() string
	CID() int
	// Kill ends the worker abruptly: no goodbye, no client close — the
	// slot is left for the monitor to fence (kill -9 semantics).
	Kill() error
	// Shutdown ends the worker cleanly (serve-drain then client close).
	Shutdown() error
}

// Spawner starts worker idx with the given config.
type Spawner func(idx int, cfg WorkerConfig) (WorkerProc, error)

type inprocProc struct{ w *Worker }

func (p *inprocProc) Addr() string    { return p.w.Addr() }
func (p *inprocProc) CID() int        { return p.w.CID() }
func (p *inprocProc) Kill() error     { p.w.Abandon(); return nil }
func (p *inprocProc) Shutdown() error { return p.w.Stop() }

// InProcSpawner runs workers as goroutine sets inside this process,
// sharing pool. Kill abandons the worker's client slot without closing it
// — the same corpse a killed process leaves. Works on any backend,
// including heap.
func InProcSpawner(pool *shm.Pool) Spawner {
	return func(idx int, cfg WorkerConfig) (WorkerProc, error) {
		w, err := StartWorker(pool, cfg)
		if err != nil {
			return nil, err
		}
		return &inprocProc{w}, nil
	}
}

// ReadyPrefix starts the line a child worker process prints on stdout once
// it is serving: "SERVING <addr> <cid>".
const ReadyPrefix = "SERVING "

// ReadyLine formats the child readiness line.
func ReadyLine(addr string, cid int) string {
	return fmt.Sprintf("%s%s %d", ReadyPrefix, addr, cid)
}

type childProc struct {
	cmd  *exec.Cmd
	addr string
	cid  int
	net  netrpc.Config
}

func (p *childProc) Addr() string { return p.addr }
func (p *childProc) CID() int     { return p.cid }

func (p *childProc) Kill() error {
	if err := p.cmd.Process.Kill(); err != nil {
		return err
	}
	p.cmd.Wait()
	return nil
}

func (p *childProc) Shutdown() error {
	conn, err := DialWorker(p.addr, p.net)
	if err == nil {
		conn.Quit()
		conn.Close()
	}
	done := make(chan error, 1)
	go func() { done <- p.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		p.cmd.Process.Kill()
		return fmt.Errorf("serving: worker %d did not exit on quit", p.cid)
	}
}

// ExecSpawner runs each worker as a child OS process built by mkCmd (which
// must arrange for the child to attach the pool file, start a worker, and
// print ReadyLine on stdout). The spawner waits for that line, then
// forwards the rest of the child's stdout to ours.
func ExecSpawner(net netrpc.Config, mkCmd func(idx int) *exec.Cmd) Spawner {
	return func(idx int, cfg WorkerConfig) (WorkerProc, error) {
		cmd := mkCmd(idx)
		cmd.Stderr = os.Stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if !strings.HasPrefix(line, ReadyPrefix) {
				fmt.Fprintln(os.Stderr, line)
				continue
			}
			var addr string
			var cid int
			if _, err := fmt.Sscanf(line, ReadyPrefix+"%s %d", &addr, &cid); err != nil {
				cmd.Process.Kill()
				cmd.Wait()
				return nil, fmt.Errorf("serving: bad ready line %q: %w", line, err)
			}
			go func() { // drain the rest so the child never blocks on stdout
				for sc.Scan() {
				}
			}()
			return &childProc{cmd: cmd, addr: addr, cid: cid, net: net}, nil
		}
		cmd.Process.Kill()
		cmd.Wait()
		return nil, fmt.Errorf("serving: worker %d exited before ready (%v)", idx, sc.Err())
	}
}

// ChaosResult is the outcome of one serving run.
type ChaosResult struct {
	Workers    int
	Keys       int
	ValSize    int
	Buckets    int
	WriteRatio float64
	Zipf       float64
	Conns      int
	OpsPerConn int

	Ops       uint64
	WallNS    int64
	OpsPerSec float64

	ReadP50NS   int64
	ReadP99NS   int64
	WriteP50NS  int64
	WriteP99NS  int64
	ScanP50NS   int64
	ScanP99NS   int64
	WindowP99NS int64

	SurvivorErrors uint64
	VictimErrors   uint64
	StalledWrites  uint64
	LostWrites     uint64
	Corruptions    uint64
	Rerouted       uint64

	Killed              bool
	VictimWorker        int
	VictimCID           int
	DetectToRecoveredNS int64
	TakeoverNS          int64
	DisruptionNS        int64

	FsckClean  bool
	FsckIssues int
}

// RunChaos executes one full serving run on pool: preload, spawn workers
// through spawn, drive traffic, optionally kill one worker mid-stream and
// fail its partition over, then drain, recover every slot, and fsck.
func RunChaos(pool *shm.Pool, spawn Spawner, cfg ChaosConfig) (res *ChaosResult, err error) {
	cfg.fill()

	// Preload through a direct pool client: partition leases are all zero
	// at this point, so the single-writer rule is unenforced and one
	// loader can fill every partition.
	creator, err := pool.Connect()
	if err != nil {
		return nil, err
	}
	loader, err := kv.Create(creator, cfg.RootSlot, cfg.Buckets, cfg.ValSize, cfg.Workers)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, cfg.ValSize)
	for k := 0; k < cfg.Keys; k++ {
		valFor(uint64(k), buf)
		if err := loader.Put(uint64(k), buf); err != nil {
			return nil, fmt.Errorf("serving: preload key %d: %w", k, err)
		}
	}
	loader.Close()
	creator.FlushMetrics()
	creator.Close()

	// The loader slot parks dead until recovered; do it now so the monitor
	// started below only ever sees worker deaths. The named root keeps the
	// index alive through its creator's death (§5.3 roots outlive owners).
	svc, err := recovery.NewServiceWorkers(pool, cfg.RecoveryWorkers)
	if err != nil {
		return nil, err
	}
	if _, err := svc.RecoverClient(creator.ID()); err != nil {
		return nil, fmt.Errorf("serving: recover loader: %w", err)
	}

	// procs holds the spawned workers not yet killed or shut down. An error
	// return kills them all, so a failed run leaves no orphan child process.
	procs := make([]WorkerProc, cfg.Workers)
	defer func() {
		if err != nil {
			for _, p := range procs {
				if p != nil {
					p.Kill()
				}
			}
		}
	}()
	addrs := make([]string, cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		p, err := spawn(i, WorkerConfig{
			RootSlot:       cfg.RootSlot,
			Partitions:     []int{i},
			HeartbeatEvery: cfg.HeartbeatEvery,
			Net:            cfg.Net,
		})
		if err != nil {
			return nil, fmt.Errorf("serving: spawn worker %d: %w", i, err)
		}
		procs[i] = p
		addrs[i] = p.Addr()
	}

	mon := recovery.NewMonitor(svc, recovery.MonitorConfig{
		Interval:  cfg.MonitorInterval,
		Threshold: cfg.MonitorThreshold,
	})
	mon.Start()
	var monStop sync.Once
	stopMon := func() { monStop.Do(mon.Stop) }
	defer stopMon()

	driver, err := NewDriver(addrs, DriverConfig{
		Keys: cfg.Keys, ValSize: cfg.ValSize,
		Buckets: cfg.Buckets, Writers: cfg.Workers,
		WriteRatio: cfg.WriteRatio, Zipf: cfg.Zipf,
		Conns: cfg.Conns, OpsPerConn: cfg.OpsPerConn,
		ScanEvery: cfg.ScanEvery, ScanSpan: cfg.ScanSpan,
		Seed: cfg.Seed, Net: cfg.Net, FailoverWait: cfg.FailoverWait,
	})
	if err != nil {
		return nil, err
	}

	var out struct {
		rep *DriverReport
		err error
	}
	finished := make(chan struct{})
	go func() {
		out.rep, out.err = driver.Run()
		close(finished)
	}()

	res = &ChaosResult{
		Workers: cfg.Workers, Keys: cfg.Keys, ValSize: cfg.ValSize,
		Buckets: cfg.Buckets, WriteRatio: cfg.WriteRatio, Zipf: cfg.Zipf,
		Conns: cfg.Conns, OpsPerConn: cfg.OpsPerConn,
	}

	victim := -1
	if cfg.Kill {
		victim = cfg.Workers / 2
		total := uint64(cfg.Conns) * uint64(cfg.OpsPerConn)
		for driver.OpsDone() < total/3 {
			select {
			case <-finished: // a driver that returns nil has done every op
				if out.err != nil {
					return nil, fmt.Errorf("serving: driver stopped before the kill point: %w", out.err)
				}
			case <-time.After(time.Millisecond):
			}
		}
		victimCID := procs[victim].CID()
		// A worker can reuse the loader's slot: the victim's death is the
		// first one its timeline shows after this read.
		tel := pool.Telemetry()
		before, _ := tel.ReadTimeline(victimCID)
		driver.ExpectDown(victim)
		driver.SetWindow(true)
		killAt := time.Now()
		if err := procs[victim].Kill(); err != nil {
			return nil, fmt.Errorf("serving: kill worker %d: %w", victim, err)
		}
		procs[victim] = nil

		// Metadata-only failover: a survivor steals the dead writer's
		// partition lease, and the driver re-routes writes to it. The monitor
		// owns detection and recovery; until it has recovered the victim the
		// worker refuses the steal as pending, and we retry.
		survivor := (victim + 1) % cfg.Workers
		conn, err := DialWorker(addrs[survivor], cfg.Net)
		if err != nil {
			return nil, err
		}
		var t0 time.Time
		for {
			t0 = time.Now()
			err = conn.Takeover(victim)
			if !errors.Is(err, ErrTakeoverPending) || time.Since(killAt) > 30*time.Second {
				break
			}
			time.Sleep(time.Millisecond)
		}
		conn.Close()
		if err != nil {
			return nil, fmt.Errorf("serving: takeover by worker %d of victim cid %d: %w", survivor, victimCID, err)
		}
		res.TakeoverNS = time.Since(t0).Nanoseconds()
		driver.SetRoute(victim, survivor)
		driver.SetWindow(false)
		res.DisruptionNS = time.Since(killAt).Nanoseconds()

		// The recovery that let the steal through is on the victim's
		// timeline once its pass returns: a new death, completed.
		for {
			tl, _ := tel.ReadTimeline(victimCID)
			if tl.Deaths > before.Deaths && tl.Completed == tl.Deaths {
				break
			}
			if time.Since(killAt) > 30*time.Second {
				return nil, fmt.Errorf("serving: victim cid %d not recovered within 30s", victimCID)
			}
			time.Sleep(time.Millisecond)
		}
		// Read once more: the pass stores the duration before it counts
		// the recovery completed.
		tl, _ := tel.ReadTimeline(victimCID)
		res.Killed = true
		res.VictimWorker = victim
		res.VictimCID = victimCID
		res.DetectToRecoveredNS = tl.DurationNS
	}

	<-finished
	if out.rep != nil {
		rep := out.rep
		res.Ops = rep.Ops
		res.WallNS = rep.Wall.Nanoseconds()
		if rep.Wall > 0 {
			res.OpsPerSec = float64(rep.Ops) / rep.Wall.Seconds()
		}
		res.ReadP50NS = rep.Read.Percentile(0.50)
		res.ReadP99NS = rep.Read.Percentile(0.99)
		res.WriteP50NS = rep.Write.Percentile(0.50)
		res.WriteP99NS = rep.Write.Percentile(0.99)
		res.ScanP50NS = rep.Scan.Percentile(0.50)
		res.ScanP99NS = rep.Scan.Percentile(0.99)
		res.WindowP99NS = rep.Window.Percentile(0.99)
		res.SurvivorErrors = rep.SurvivorErrors
		res.VictimErrors = rep.VictimErrors
		res.StalledWrites = rep.StalledWrites
		res.LostWrites = rep.LostWrites
		res.Corruptions = rep.Corruptions
		res.Rerouted = rep.Rerouted
	}
	if out.err != nil {
		return res, out.err
	}

	// Drain: stop the monitor before the survivors' clean exits so their
	// parked-dead slots are recovered exactly once, by us.
	stopMon()
	for i, p := range procs {
		if p == nil {
			continue
		}
		cid := p.CID()
		if err := p.Shutdown(); err != nil {
			return res, fmt.Errorf("serving: shutdown worker %d: %w", i, err)
		}
		procs[i] = nil
		if _, err := svc.RecoverClient(cid); err != nil {
			return res, fmt.Errorf("serving: recover worker %d (cid %d): %w", i, cid, err)
		}
	}

	chk := check.Validate(pool)
	res.FsckClean = chk.Clean()
	res.FsckIssues = len(chk.Issues)
	return res, nil
}
