package serving

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/kv"
	"repro/internal/netrpc"
	"repro/internal/workload"
)

// DriverConfig shapes the load driver.
type DriverConfig struct {
	Keys    int // key space size
	ValSize int // fixed value size (must match the store)
	// Store shape, needed to compute each key's writer partition.
	Buckets, Writers int

	WriteRatio float64 // fraction of writes
	Zipf       float64 // YCSB zipfian constant θ (0 = uniform)

	Conns      int // concurrent driver goroutines
	OpsPerConn int // operations each goroutine issues
	ScanEvery  int // every Nth op is a batch scan (0 disables)
	ScanSpan   int // records per scan batch

	Seed int64
	Net  netrpc.Config

	// FailoverWait bounds how long a write whose partition's worker is
	// down waits for the route to fail over before counting as lost.
	FailoverWait time.Duration
}

// DriverReport is the outcome of one Run.
type DriverReport struct {
	Ops, Reads, Writes, Scans uint64

	// SurvivorErrors counts failures on workers NOT marked as the expected
	// victim — the chaos invariant is that this stays zero.
	SurvivorErrors uint64
	// VictimErrors counts failed calls to the expected victim (in-flight
	// at the kill; inherent to abrupt death).
	VictimErrors uint64
	// Rerouted counts reads and scans redirected from a down worker to a
	// survivor.
	Rerouted uint64
	// StalledWrites counts writes that had to wait for their partition to
	// fail over.
	StalledWrites uint64
	// LostWrites counts writes whose partition never failed over within
	// FailoverWait (chaos invariant: zero).
	LostWrites uint64
	// Corruptions counts reads whose value didn't match the deterministic
	// content for the key (invariant: zero).
	Corruptions uint64

	Read, Write, Scan *LatencyHist
	// Window collects read+write latencies observed while the chaos
	// window was open (kill through restored routing).
	Window *LatencyHist

	Wall time.Duration
}

// Driver replays workload streams against a set of workers, routing each
// write to its partition's current owner and failing reads over to
// survivors the moment a worker dies.
type Driver struct {
	cfg   DriverConfig
	addrs []string

	route  []atomic.Int32 // partition → worker index
	down   []atomic.Bool  // worker index → known dead
	victim atomic.Int32   // expected-down worker index (-1: none)
	window atomic.Bool

	opsDone atomic.Uint64

	survivorErrs, victimErrs atomic.Uint64
	rerouted, stalled, lost  atomic.Uint64
	corruptions              atomic.Uint64
}

// NewDriver builds a driver over the workers at addrs; worker i initially
// owns partition i (the serving tier's startup assignment).
func NewDriver(addrs []string, cfg DriverConfig) (*Driver, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("serving: driver needs at least one worker")
	}
	if cfg.Writers != len(addrs) {
		return nil, fmt.Errorf("serving: %d workers for %d partitions", len(addrs), cfg.Writers)
	}
	if cfg.Conns <= 0 || cfg.OpsPerConn <= 0 || cfg.Keys <= 0 {
		return nil, fmt.Errorf("serving: Conns, OpsPerConn, Keys must be positive")
	}
	if cfg.FailoverWait <= 0 {
		cfg.FailoverWait = 10 * time.Second
	}
	if cfg.ScanSpan <= 0 {
		cfg.ScanSpan = 64
	}
	d := &Driver{
		cfg: cfg, addrs: addrs,
		route: make([]atomic.Int32, cfg.Writers),
		down:  make([]atomic.Bool, len(addrs)),
	}
	for p := range d.route {
		d.route[p].Store(int32(p))
	}
	d.victim.Store(-1)
	return d, nil
}

// ExpectDown marks a worker as the sanctioned chaos victim: its failures
// count as victim errors, everyone else's stay survivor errors.
func (d *Driver) ExpectDown(worker int) { d.victim.Store(int32(worker)) }

// SetRoute points a partition at a new worker (after a takeover).
func (d *Driver) SetRoute(partition, worker int) {
	d.route[partition].Store(int32(worker))
}

// SetWindow opens or closes the chaos measurement window.
func (d *Driver) SetWindow(on bool) { d.window.Store(on) }

// OpsDone reports completed operations so far (the orchestrator uses it to
// time the kill mid-traffic).
func (d *Driver) OpsDone() uint64 { return d.opsDone.Load() }

// valFor writes key's deterministic value content into buf: every write of
// a key stores the same bytes, so any read can verify what it got.
func valFor(key uint64, buf []byte) {
	x := key*0x9e3779b97f4a7c15 + 1
	for i := range buf {
		buf[i] = byte(x >> (8 * (uint(i) % 8)))
		if i%8 == 7 {
			x = x*0x9e3779b97f4a7c15 + 1
		}
	}
}

// Preload stores every key through the serving path, partition-routed,
// parallel across Conns goroutines. (The chaos harness preloads directly
// through a pool client instead — faster and identical on-device.)
func (d *Driver) Preload() error {
	var wg sync.WaitGroup
	errCh := make(chan error, d.cfg.Conns)
	per := (d.cfg.Keys + d.cfg.Conns - 1) / d.cfg.Conns
	for g := 0; g < d.cfg.Conns; g++ {
		lo, hi := g*per, min((g+1)*per, d.cfg.Keys)
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			conns, err := d.dialAll()
			if err != nil {
				errCh <- err
				return
			}
			defer closeAll(conns)
			buf := make([]byte, d.cfg.ValSize)
			for k := lo; k < hi; k++ {
				key := uint64(k)
				valFor(key, buf)
				p := kv.Partition(key, d.cfg.Buckets, d.cfg.Writers)
				if err := conns[d.route[p].Load()].Put(key, buf); err != nil {
					errCh <- fmt.Errorf("preload key %d: %w", key, err)
					return
				}
			}
		}(lo, hi)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		return err
	default:
		return nil
	}
}

func (d *Driver) dialAll() ([]*Conn, error) {
	conns := make([]*Conn, len(d.addrs))
	for i, a := range d.addrs {
		c, err := DialWorker(a, d.cfg.Net)
		if err != nil {
			closeAll(conns[:i])
			return nil, fmt.Errorf("dial worker %d (%s): %w", i, a, err)
		}
		conns[i] = c
	}
	return conns, nil
}

func closeAll(conns []*Conn) {
	for _, c := range conns {
		if c != nil {
			c.Close()
		}
	}
}

// noteError classifies a failed call to worker t and marks it down so
// subsequent operations route around it.
func (d *Driver) noteError(t int) {
	d.down[t].Store(true)
	if int(d.victim.Load()) == t {
		d.victimErrs.Add(1)
	} else {
		d.survivorErrs.Add(1)
	}
}

// liveWorker returns a live worker index, preferring hint.
func (d *Driver) liveWorker(hint int) int {
	for i := 0; i < len(d.addrs); i++ {
		t := (hint + i) % len(d.addrs)
		if !d.down[t].Load() {
			return t
		}
	}
	return hint // everyone down: caller's error will say so
}

// waitRoute waits for partition p's route to point at a live worker,
// returning it, or -1 on timeout.
func (d *Driver) waitRoute(p int) int {
	deadline := time.Now().Add(d.cfg.FailoverWait)
	for {
		t := int(d.route[p].Load())
		if !d.down[t].Load() {
			return t
		}
		if time.Now().After(deadline) {
			return -1
		}
		time.Sleep(500 * time.Microsecond)
	}
}

type driverShard struct {
	read, write, scan, window LatencyHist
	reads, writes, scans      uint64
}

// Run replays the configured workload and returns the merged report.
func (d *Driver) Run() (*DriverReport, error) {
	shards := make([]driverShard, d.cfg.Conns)
	errs := make(chan error, d.cfg.Conns)
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < d.cfg.Conns; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			errs <- d.runConn(g, &shards[g])
		}(g)
	}
	wg.Wait()
	rep := &DriverReport{
		Read: &LatencyHist{}, Write: &LatencyHist{}, Scan: &LatencyHist{}, Window: &LatencyHist{},
		Wall: time.Since(start),
	}
	for i := range shards {
		s := &shards[i]
		rep.Read.Merge(&s.read)
		rep.Write.Merge(&s.write)
		rep.Scan.Merge(&s.scan)
		rep.Window.Merge(&s.window)
		rep.Reads += s.reads
		rep.Writes += s.writes
		rep.Scans += s.scans
	}
	rep.Ops = rep.Reads + rep.Writes + rep.Scans
	rep.SurvivorErrors = d.survivorErrs.Load()
	rep.VictimErrors = d.victimErrs.Load()
	rep.Rerouted = d.rerouted.Load()
	rep.StalledWrites = d.stalled.Load()
	rep.LostWrites = d.lost.Load()
	rep.Corruptions = d.corruptions.Load()
	close(errs)
	for err := range errs {
		if err != nil {
			return rep, err
		}
	}
	return rep, nil
}

func (d *Driver) runConn(g int, sh *driverShard) error {
	stream, err := workload.NewKVStream(workload.KVConfig{
		Keys: d.cfg.Keys, WriteRatio: d.cfg.WriteRatio, Zipf: d.cfg.Zipf,
		Seed: d.cfg.Seed + int64(g)*7919,
	})
	if err != nil {
		return err
	}
	conns, err := d.dialAll()
	if err != nil {
		return err
	}
	defer closeAll(conns)
	want := make([]byte, d.cfg.ValSize)
	for i := 0; i < d.cfg.OpsPerConn; i++ {
		op := stream.Next()
		inWindow := d.window.Load()
		if d.cfg.ScanEvery > 0 && i%d.cfg.ScanEvery == d.cfg.ScanEvery-1 {
			d.doScan(g+i, op.Key, conns, sh, inWindow)
		} else if op.Kind == workload.OpWrite {
			d.doWrite(op.Key, conns, sh, inWindow, want)
		} else {
			d.doRead(op.Key, conns, sh, inWindow, want)
		}
		d.opsDone.Add(1)
	}
	return nil
}

func (d *Driver) doRead(key uint64, conns []*Conn, sh *driverShard, inWindow bool, want []byte) {
	p := kv.Partition(key, d.cfg.Buckets, d.cfg.Writers)
	t := int(d.route[p].Load())
	// Reads are partition-agnostic (multi-reader): a down owner just means
	// read from any survivor.
	if d.down[t].Load() {
		t = d.liveWorker(t + 1)
		d.rerouted.Add(1)
	}
	for attempt := 0; attempt < 2; attempt++ {
		t0 := time.Now()
		val, found, err := conns[t].Get(key)
		ns := time.Since(t0).Nanoseconds()
		if err != nil {
			d.noteError(t)
			t = d.liveWorker(t + 1)
			d.rerouted.Add(1)
			continue
		}
		sh.read.Record(ns)
		if inWindow {
			sh.window.Record(ns)
		}
		sh.reads++
		if found {
			valFor(key, want)
			if !bytes.Equal(val, want) {
				d.corruptions.Add(1)
			}
		}
		return
	}
}

func (d *Driver) doWrite(key uint64, conns []*Conn, sh *driverShard, inWindow bool, buf []byte) {
	p := kv.Partition(key, d.cfg.Buckets, d.cfg.Writers)
	valFor(key, buf)
	for attempt := 0; attempt < 2; attempt++ {
		t := int(d.route[p].Load())
		if d.down[t].Load() {
			// The partition's writer is dead: the single-writer rule means
			// this write must wait for the metadata takeover, not reroute.
			d.stalled.Add(1)
			if t = d.waitRoute(p); t < 0 {
				d.lost.Add(1)
				return
			}
		}
		t0 := time.Now()
		err := conns[t].Put(key, buf)
		ns := time.Since(t0).Nanoseconds()
		if err != nil {
			d.noteError(t)
			continue
		}
		sh.write.Record(ns)
		if inWindow {
			sh.window.Record(ns)
		}
		sh.writes++
		return
	}
	d.lost.Add(1)
}

func (d *Driver) doScan(salt int, key uint64, conns []*Conn, sh *driverShard, inWindow bool) {
	start := uint64(salt) * 2654435761 % uint64(d.cfg.Buckets)
	t := d.liveWorker(salt % len(d.addrs))
	for attempt := 0; attempt < 2; attempt++ {
		t0 := time.Now()
		_, err := conns[t].Scan(start, uint64(d.cfg.ScanSpan))
		ns := time.Since(t0).Nanoseconds()
		if err != nil {
			d.noteError(t)
			t = d.liveWorker(t + 1)
			d.rerouted.Add(1)
			continue
		}
		sh.scan.Record(ns)
		if inWindow {
			sh.window.Record(ns)
		}
		sh.scans++
		return
	}
}
