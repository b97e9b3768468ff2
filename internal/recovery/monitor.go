package recovery

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/layout"
	"repro/internal/obs"
)

// Monitor is the standalone failure detector (paper §3.2): it watches every
// client's heartbeat counter and, when one stalls, fences the client and
// runs recovery asynchronously — other clients never block on this. It also
// rescans abandoned segments and sweeps the queue registry.
//
// An ABANDONED segment is rescanned because something happened to it, not
// because a tick passed: nobody allocates there, so it changes only when a
// block in it is freed, and the freeer (or a scan that left work pending)
// flags it (shm's flagLeaking). A flagged segment is scanned at the next
// tick, an unflagged one every abandonedRescan-th tick since its last scan:
// a lost flag — a free racing the walker, a free whose request trusted a state
// word flagged when read and cleared since, a killed scanner, a repair action,
// a stuck CAS — is a bounded delay, not a leak. A monitor's first tick scans
// them all (it may be a restarted service's); one it meets later was scanned
// by the pass that abandoned it, and its clock starts there.
//
// Heartbeat scanning reads the device (status + beat per slot) once per tick
// outside the monitor lock, through the management plane, and only the
// bookkeeping runs under the lock. Recovery dispatch follows
// the service's executor pool: with one executor (the default) recoveries
// run inline on the monitor goroutine, exactly like the original shared
// goroutine; with more, each dead client is handed to its own goroutine
// (deduplicated while in flight) and up to Service.Workers() independent
// recoveries proceed concurrently. A recovery the monitor dispatches runs
// under the victim's recovery claim like any other; one that finds the claim
// held (shm.ErrRecoveryInProgress) is a failed attempt, retried on the
// slot's backoff. The maintenance scans touch only ABANDONED segments and
// the huge heads of unleased slots, never what a running pass works on (see
// internal/shm/scan.go's concurrency contract).
type Monitor struct {
	svc      *Service
	interval time.Duration
	// missed heartbeats (in intervals) before a client is declared dead.
	threshold int

	// tickMu serializes Ticks, which own beats, the heartbeat scan's buffer,
	// for their whole duration.
	tickMu sync.Mutex
	beats  []beatObs

	// mu guards the detector state: one row per client slot (indexed by
	// cid) and one per segment, sized from the geometry. The monitor keeps
	// no history: every fence and recovery is on the pool's per-slot
	// timeline and in its event ring, where a restarted monitor, Pool.Recover
	// and other processes see them too.
	mu       sync.Mutex
	slots    []slotRow
	segs     []segRow
	failures []RecoveryFailure
	ticks    uint64
	// wg tracks dispatched recovery goroutines; Stop waits on it.
	wg sync.WaitGroup

	// recoverFn performs one recovery attempt; defaults to the service's
	// RecoverClient. Tests override it to inject persistent failures.
	recoverFn func(cid int) (Report, error)

	stop chan struct{}
	done chan struct{}
}

// slotRow is the monitor's detector state for one client slot. Only exec is
// read outside mu (by gatherBeats), and only NewMonitor writes it.
type slotRow struct {
	// exec marks one of the service's executor slots: not watched (idle
	// pooled executors do not beat).
	exec bool
	// seen is set once lastBeat is seeded for this incarnation.
	seen bool
	// inflight marks a recovery dispatched to a worker goroutine and not yet
	// recorded (concurrent dispatch mode only), so a client is never
	// recovered by two workers at once and ticks arriving mid-recovery don't
	// pile up duplicate dispatches.
	inflight bool
	lastBeat uint64
	misses   int
	// firstMiss is when the heartbeat was first observed stalled (unix ns):
	// the detection timepoint the recovery-time SLO is measured from. 0
	// while the beat advances.
	firstMiss int64
	// failed counts this death's failed recovery attempts.
	failed int
	retry  backoff
}

// segRow is the monitor's maintenance state for one segment.
type segRow struct {
	retry backoff
	// lastScan is the tick of an ABANDONED segment's last scan (or first
	// sighting); 0 while the segment is in any other state.
	lastScan uint64
}

// backoff is the exponential retry schedule, in ticks, of a monitor duty
// that keeps failing — a slot's recovery, or a segment's scan that panics on
// damaged metadata: after each failure the duty waits 2, 4, … up to 64 ticks
// instead of failing every interval.
type backoff struct {
	ticks   int    // the current wait; 0 until the duty fails
	nextTry uint64 // the first tick the duty may run again
}

func (b *backoff) fail(now uint64) {
	b.ticks = min(max(2*b.ticks, 2), 64)
	b.nextTry = now + uint64(b.ticks)
}

// RecoveryFailure records one failed monitor duty — a recovery attempt or a
// maintenance scan; the monitor retries with exponential backoff and keeps
// every error here rather than swallowing it.
type RecoveryFailure struct {
	// Op names the duty that failed: "recovery" or "scan".
	Op     string `json:"op"`
	Client int    `json:"client,omitempty"`
	// Segment is the scanned segment for Op=="scan" (-1 otherwise).
	Segment int       `json:"segment,omitempty"`
	Time    time.Time `json:"time"`
	Err     error     `json:"-"`
	Error   string    `json:"error"`
}

// MonitorConfig tunes the monitor.
type MonitorConfig struct {
	// Interval between heartbeat checks (default 10ms).
	Interval time.Duration
	// Threshold is how many consecutive unchanged heartbeats declare a
	// client dead (default 3).
	Threshold int
}

// NewMonitor creates a monitor driving the given recovery service.
func NewMonitor(svc *Service, cfg MonitorConfig) *Monitor {
	if cfg.Interval <= 0 {
		cfg.Interval = 10 * time.Millisecond
	}
	if cfg.Threshold <= 0 {
		cfg.Threshold = 3
	}
	geo := svc.pool.Geometry()
	m := &Monitor{
		svc:       svc,
		interval:  cfg.Interval,
		threshold: cfg.Threshold,
		beats:     make([]beatObs, geo.MaxClients+1),
		slots:     make([]slotRow, geo.MaxClients+1),
		segs:      make([]segRow, geo.NumSegments),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	for _, id := range svc.ExecutorIDs() {
		m.slots[id].exec = true
	}
	m.recoverFn = func(cid int) (Report, error) { return svc.RecoverClient(cid) }
	return m
}

// Start launches the monitor goroutine.
func (m *Monitor) Start() {
	go m.run()
}

// Stop terminates the monitor and waits for it to finish, including any
// recovery workers still in flight.
func (m *Monitor) Stop() {
	close(m.stop)
	<-m.done
	m.wg.Wait()
}

// Failures returns every failed duty so far, oldest first: the one record
// the monitor keeps itself, because it is the only one that carries the Go
// error.
func (m *Monitor) Failures() []RecoveryFailure {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]RecoveryFailure, len(m.failures))
	copy(out, m.failures)
	return out
}

func (m *Monitor) run() {
	defer close(m.done)
	t := time.NewTicker(m.interval)
	defer t.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-t.C:
			m.Tick()
		}
	}
}

// beatObs is one slot's heartbeat-scan observation: status word, plus the
// heartbeat counter for live slots. cid 0 marks a skipped (executor) slot.
type beatObs struct {
	cid    int
	status uint64
	beat   uint64
}

// abandonedRescan is the period, in ticks, of an unflagged ABANDONED segment's
// rescan: ≈ 1.3 s at the default interval (§5.3: "not more than once per second").
const abandonedRescan = 128

// gatherBeats reads every slot's status (and heartbeat, for live slots) into
// m.beats without holding the monitor lock; an executor slot reads as cid 0.
// Device words are read once per tick; processing happens later under the
// lock against this stable snapshot.
func (m *Monitor) gatherBeats() []beatObs {
	p := m.svc.pool
	geo := p.Geometry()
	dev := p.Device()
	for cid := 1; cid <= geo.MaxClients; cid++ {
		o := beatObs{}
		if !m.slots[cid].exec {
			o = beatObs{cid: cid, status: p.ClientStatus(cid)}
			if o.status == layout.ClientAlive {
				o.beat = dev.Load(geo.ClientHeartbeatAddr(cid))
			}
		}
		m.beats[cid] = o
	}
	return m.beats
}

// Tick performs one round of failure detection and background maintenance.
// Exported so tests and benchmarks can drive the monitor deterministically.
func (m *Monitor) Tick() {
	m.tickMu.Lock()
	defer m.tickMu.Unlock()
	p := m.svc.pool
	beats := m.gatherBeats()

	m.mu.Lock()
	defer m.mu.Unlock()

	p.Telemetry().PoolAdd(obs.CtrMonitorTick, 1)
	m.ticks++

	for _, o := range beats {
		if o.cid == 0 {
			continue
		}
		cid := o.cid
		r := &m.slots[cid]
		switch o.status {
		case layout.ClientAlive:
			// Failures and backoff are only ever booked after the monitor saw
			// the slot DEAD; reading it ALIVE means a new incarnation, which
			// owes nothing.
			r.failed, r.retry = 0, backoff{}
			if !r.seen {
				// First observation seeds the baseline without counting a
				// miss: a fresh client whose first beat happens to equal the
				// row's zero value must not accrue toward a spurious fence.
				r.seen, r.lastBeat, r.misses = true, o.beat, 0
				break
			}
			if o.beat != r.lastBeat {
				r.lastBeat, r.misses, r.firstMiss = o.beat, 0, 0
				break
			}
			r.misses++
			if r.misses == 1 {
				r.firstMiss = time.Now().UnixNano()
			}
			if r.misses >= m.threshold && p.MarkClientDeadDetected(cid, obs.FenceHeartbeat, r.firstMiss) == nil {
				m.recoverLocked(cid)
			}
		case layout.ClientDead:
			// Fenced elsewhere (explicit kill or clean close), or by us with
			// its recovery failing: the monitor owes it recovery, on the
			// slot's backoff.
			if m.ticks >= r.retry.nextTry {
				m.recoverLocked(cid)
			}
		}
	}

	// Background maintenance: abandoned / flagged segments, dead huge
	// objects, stale queue registrations. Scans are panic-guarded: a scan
	// walking corrupted metadata surfaces as a RecoveryFailure with
	// per-segment backoff instead of killing the monitor goroutine.
	for seg := range m.segs {
		r := &m.segs[seg]
		if m.ticks < r.retry.nextTry {
			continue
		}
		st := p.SegState(seg)
		if st.State != layout.SegAbandoned {
			r.lastScan = 0
			// A DEAD owner's heads are its recovery pass's to scan.
			if st.State == layout.SegHugeHead && p.SlotUnleased(int(st.CID)) {
				m.scanLocked(seg)
			}
			continue
		}
		if r.lastScan == 0 && m.ticks > 1 {
			r.lastScan = m.ticks // abandoned, and scanned, by a pass since the last tick
		}
		if r.lastScan == 0 || st.Flags&layout.SegFlagPotentialLeaking != 0 ||
			m.ticks-r.lastScan >= abandonedRescan {
			r.lastScan = m.ticks
			m.scanLocked(seg)
		}
	}
	p.SweepQueueRegistry()
	// Heartbeat one executor so observers see the recovery plane alive;
	// borrowed, so an in-flight recovery worker never shares the client.
	exec := m.svc.borrowExec()
	exec.Heartbeat()
	m.svc.returnExec(exec)
}

// scanLocked runs one maintenance scan, converting a panic into a typed
// failure with exponential per-segment backoff and an EvRepairFailed trace.
// The scan borrows an executor (never sharing one with a recovery worker).
func (m *Monitor) scanLocked(seg int) {
	exec := m.svc.borrowExec()
	defer m.svc.returnExec(exec)
	defer func() {
		r := &m.segs[seg]
		pan := recover()
		if pan == nil {
			r.retry = backoff{}
			return
		}
		m.failures = append(m.failures, RecoveryFailure{
			Op: "scan", Segment: seg, Time: time.Now(),
			Error: fmt.Sprintf("scan of segment %d panicked: %v", seg, pan),
		})
		m.svc.pool.Trace(obs.Event{
			Type: obs.EvRepairFailed, Segment: seg, A: uint64(r.retry.ticks/2 + 1),
		})
		r.retry.fail(m.ticks)
	}()
	exec.ScanSegment(seg, true)
}

// recoverLocked runs (or dispatches) one recovery attempt. With a single
// executor it runs inline on the caller's goroutine, preserving the
// original deterministic tick behavior. With a pooled service, the attempt
// is handed to its own goroutine — bounded by the executor pool inside
// RecoverClient, deduplicated per client while in flight — and its result
// is recorded under the monitor lock when it lands, so the slot's row and
// Failures() stay coherent either way.
func (m *Monitor) recoverLocked(cid int) {
	if m.svc.Workers() > 1 {
		r := &m.slots[cid]
		if r.inflight {
			return
		}
		r.inflight = true
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			_, err := m.recoverFn(cid)
			m.mu.Lock()
			defer m.mu.Unlock()
			r.inflight = false
			m.recordLocked(cid, err)
		}()
		return
	}
	_, err := m.recoverFn(cid)
	m.recordLocked(cid, err)
}

// recordLocked books one finished recovery attempt in the slot's row;
// callers hold m.mu. The attempt itself is on the pool's timeline.
func (m *Monitor) recordLocked(cid int, err error) {
	r := &m.slots[cid]
	if err == nil {
		// The slot's next incarnation starts unseeded, owing nothing. exec
		// is left alone: gatherBeats reads it without the lock.
		r.seen, r.misses, r.firstMiss, r.failed, r.retry = false, 0, 0, 0, backoff{}
		return
	}
	r.failed++
	m.failures = append(m.failures, RecoveryFailure{
		Op: "recovery", Client: cid, Segment: -1,
		Time: time.Now(), Err: err, Error: err.Error(),
	})
	m.svc.pool.Trace(obs.Event{
		Type: obs.EvRecoveryFailed, Client: cid, A: uint64(r.failed),
	})
	r.retry.fail(m.ticks)
}
