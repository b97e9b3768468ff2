// Package cxlshm is a partial-failure-resilient memory management system for
// (CXL-based) distributed shared memory — a Go reproduction of CXL-SHM
// (SOSP 2023).
//
// A Pool models a CXL-attached shared memory device with its own failure
// domain. Clients — one per goroutine, standing in for threads, processes,
// or machines — allocate fine-grained shared objects, exchange zero-copy
// references through shared queues, and may crash at any instruction without
// leaking memory, double-freeing, or leaving wild pointers behind: an
// era-based non-blocking reference counting algorithm plus an asynchronous
// recovery service reclaim everything a failed client possessed while other
// clients keep running.
//
// Quick start:
//
//	pool, _ := cxlshm.NewPool(cxlshm.Config{})
//	defer pool.Close()
//	a, _ := pool.Connect()
//	b, _ := pool.Connect()
//
//	ref, _ := a.Malloc(64, 0)          // allocate 64 shared bytes
//	ref.Write(0, []byte("hello"))       // direct access, no copies
//	q, _ := a.NewQueueTo(b.ID(), 16)    // shared SPSC transfer queue
//	a.Send(q, ref)                      // pass by reference
//	ref.Release()
//
//	qb, _ := b.OpenQueueFrom(a.ID())
//	got, _ := b.Receive(qb)             // exactly-once ownership transfer
//	buf := make([]byte, 5)
//	got.Read(0, buf)                    // reads "hello"
//	got.Release()
//
// If a client dies (or simply stops heartbeating), the pool's monitor fences
// it and recovers its references asynchronously; see Pool.StartMonitor.
package cxlshm

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/cxl"
	"repro/internal/layout"
	"repro/internal/obs"
	"repro/internal/recovery"
	"repro/internal/shm"
)

// Addr is a machine-independent pointer into the shared pool (a word
// offset; 0 is nil). Most applications never touch raw addresses — they use
// Ref — but shared-everything data structures (embedded references, direct
// word CAS) work in terms of Addr.
type Addr = layout.Addr

// Errors re-exported from the implementation.
var (
	ErrOutOfMemory      = shm.ErrOutOfMemory
	ErrTooManyClients   = shm.ErrTooManyClients
	ErrRefCountOverflow = shm.ErrRefCountOverflow
	ErrStaleReference   = shm.ErrStaleReference
	ErrFenced           = shm.ErrFenced
	ErrTooLarge         = shm.ErrTooLarge
	ErrQueueFull        = shm.ErrQueueFull
	ErrQueueEmpty       = shm.ErrQueueEmpty
	ErrLeaseAliased     = shm.ErrLeaseAliased
	ErrNoDirectAccess   = shm.ErrNoDirectAccess
	ErrReleased         = errors.New("cxlshm: use of released reference")
)

// LatencyModel selects how the simulated device charges memory latency.
// See the paper's Table 1 for the three profiles it compares.
type LatencyModel int

// Latency models.
const (
	LatencyNone       LatencyModel = iota // no injected latency (default)
	LatencyLocalNUMA                      // ~110 ns random-access
	LatencyRemoteNUMA                     // ~200 ns random-access
	LatencyCXL                            // ~390 ns random-access
)

// Config sizes a Pool. Zero fields take defaults suitable for tests and
// laptop-scale benchmarks; the paper's production geometry (64 MB segments)
// is just larger numbers.
type Config struct {
	MaxClients   int // default 32
	NumSegments  int // default 64
	SegmentBytes int // default 512 KiB, a power of two (the paper uses 64 MiB)
	PageBytes    int // default 32 KiB, a power of two: addresses map to pages by shifts
	MaxQueues    int // default 128
	Latency      LatencyModel

	// FlushCostNS optionally charges each RootRef cache-line flush, for
	// reproducing the Figure 7 breakdown. Zero means free flushes.
	FlushCostNS int
	// FenceCostNS optionally charges each allocation-path fence.
	FenceCostNS int

	// PoolFile, when set, backs the pool with an mmap'd file at this path
	// (must not already exist). The pool then survives this process: any
	// other process — or a later run — reopens it alive, no copy, with
	// Attach. Requires a POSIX platform.
	PoolFile string
}

// Pool is a shared memory pool plus its recovery machinery.
type Pool struct {
	p   *shm.Pool
	svc *recovery.Service
	mon *recovery.Monitor
	// stale is the set of leftover clients recorded at Attach time, before
	// this incarnation connected anything of its own.
	stale []int
	// closeDev marks pools explicitly tied to a file (PoolFile, Attach):
	// for those, Close unmaps the device. Pools on process-lifetime
	// backends (heap, env-selected anon mmap) stay usable after Close —
	// the documented contract — and are reclaimed with the process.
	closeDev bool
}

// NewPool creates and formats a pool, and connects its recovery service.
func NewPool(cfg Config) (*Pool, error) {
	var lat cxl.Latency
	switch cfg.Latency {
	case LatencyNone:
	case LatencyLocalNUMA:
		lat = cxl.LatencyLocalNUMA
	case LatencyRemoteNUMA:
		lat = cxl.LatencyRemoteNUMA
	case LatencyCXL:
		lat = cxl.LatencyCXL
	default:
		return nil, fmt.Errorf("cxlshm: unknown latency model %d", cfg.Latency)
	}
	lat.FlushNS = cfg.FlushCostNS
	lat.FenceNS = cfg.FenceCostNS
	if cfg.SegmentBytes&(cfg.SegmentBytes-1) != 0 || cfg.PageBytes&(cfg.PageBytes-1) != 0 {
		return nil, fmt.Errorf("cxlshm: SegmentBytes %d and PageBytes %d must each be a power of two",
			cfg.SegmentBytes, cfg.PageBytes)
	}
	p, err := shm.NewPool(shm.Config{
		Geometry: layout.GeometryConfig{
			MaxClients:   cfg.MaxClients,
			NumSegments:  cfg.NumSegments,
			SegmentWords: uint64(cfg.SegmentBytes / layout.WordBytes),
			PageWords:    uint64(cfg.PageBytes / layout.WordBytes),
			MaxQueues:    cfg.MaxQueues,
		},
		Latency: lat,
		File:    cfg.PoolFile,
	})
	if err != nil {
		return nil, err
	}
	svc, err := recovery.NewService(p)
	if err != nil {
		return nil, err
	}
	return &Pool{p: p, svc: svc, closeDev: cfg.PoolFile != ""}, nil
}

// Attach reopens the pool file at path (created by a NewPool with
// Config.PoolFile, possibly by another OS process, possibly one that
// crashed). The pool comes back alive and unmoved — the mmap'd file *is*
// the device, exactly the paper's independent-failure-domain story. The
// superblock (magic, geometry, layout version) is validated before
// anything is touched. Clients of the previous owner that never exited
// cleanly are listed by StaleClients; Recover each before connecting new
// clients.
func Attach(path string) (*Pool, error) {
	p, err := shm.OpenFile(path)
	if err != nil {
		return nil, err
	}
	// Record the leftovers before this incarnation connects anything (the
	// recovery service below takes a client slot of its own, which must not
	// end up in the stale set).
	stale := p.StaleClients()
	svc, err := recovery.NewService(p)
	if err != nil {
		p.CloseDevice()
		return nil, err
	}
	return &Pool{p: p, svc: svc, stale: stale, closeDev: true}, nil
}

// StaleClients lists client IDs left alive or dead by a previous
// incarnation of an attached pool (recorded at Attach time). Hand each to
// Recover before connecting new clients.
func (p *Pool) StaleClients() []int { return p.stale }

// Connect joins the pool as a new client. Each client must be used from a
// single goroutine (the paper's one-client-per-thread model).
func (p *Pool) Connect() (*Client, error) {
	c, err := p.p.Connect()
	if err != nil {
		return nil, err
	}
	return &Client{c: c, pool: p}, nil
}

// StartMonitor launches the asynchronous failure detector: clients that stop
// calling Heartbeat for roughly threshold×interval are fenced and recovered
// in the background without blocking anyone (paper §3.2).
func (p *Pool) StartMonitor(interval time.Duration, threshold int) {
	if p.mon != nil {
		return
	}
	p.mon = recovery.NewMonitor(p.svc, recovery.MonitorConfig{
		Interval: interval, Threshold: threshold,
	})
	p.mon.Start()
}

// Recover synchronously fences and recovers client cid (what the monitor
// does on heartbeat loss; exposed for deterministic tests and tools).
func (p *Pool) Recover(cid int) error {
	if err := p.p.MarkClientDead(cid); err != nil {
		return err
	}
	_, err := p.svc.RecoverClient(cid)
	return err
}

// Maintain runs one round of background maintenance (abandoned-segment
// scans, queue registry sweep) synchronously. The monitor does this
// continuously when started.
func (p *Pool) Maintain() {
	mon := p.mon
	if mon == nil {
		mon = recovery.NewMonitor(p.svc, recovery.MonitorConfig{})
	}
	mon.Tick()
}

// Close stops the monitor (if started). For a file-backed pool (PoolFile,
// Attach) it also unmaps the file — the pool itself survives in it and can
// be re-Attached later; such a pool must not be used after Close. Pools on
// process-lifetime backends remain usable (they are reclaimed with the
// process).
func (p *Pool) Close() {
	if p.mon != nil {
		p.mon.Stop()
		p.mon = nil
	}
	if p.closeDev {
		p.closeDev = false
		p.p.CloseDevice()
	}
}

// Usage summarizes pool occupancy (segment states, live clients, size).
func (p *Pool) Usage() shm.Usage { return p.p.Usage() }

// Stats is a point-in-time observability snapshot of a pool: occupancy,
// aggregated hot-path counters and latency histograms (summed over all
// client shards), and the monitor's fencing and recovery history —
// including every failed recovery attempt and each completed recovery's
// detection-to-recovered duration (the recovery-time SLO).
type Stats struct {
	Usage      shm.Usage                        `json:"usage"`
	Counters   map[string]uint64                `json:"counters"`
	Histograms map[string]obs.HistogramSnapshot `json:"histograms"`
	Fences     []recovery.FenceRecord           `json:"fences,omitempty"`
	Failures   []recovery.RecoveryFailure       `json:"recovery_failures,omitempty"`
	Recoveries []recovery.RecoveryRecord        `json:"recoveries,omitempty"`
}

// Stats aggregates the pool's sharded metrics into one snapshot. Safe to call
// concurrently with running clients; counters are read atomically per shard.
func (p *Pool) Stats() Stats {
	snap := p.p.Obs().Snapshot()
	st := Stats{
		Usage:      p.p.Usage(),
		Counters:   snap.Counters,
		Histograms: snap.Histograms,
	}
	if p.mon != nil {
		st.Fences = p.mon.Fences()
		st.Failures = p.mon.Failures()
		st.Recoveries = p.mon.Recoveries()
	}
	return st
}

// LastRecovery returns the most recent completed recovery (with its
// detection-to-recovered duration) and false if the monitor has not
// completed any, or was never started.
func (p *Pool) LastRecovery() (recovery.RecoveryRecord, bool) {
	if p.mon == nil {
		return recovery.RecoveryRecord{}, false
	}
	return p.mon.LastRecovery()
}

// TraceEvents returns the pool's recovery-lifecycle event trace (client
// fences, leak flags, segment scans, redo replays), oldest first. The trace
// is a bounded ring; old events are overwritten.
func (p *Pool) TraceEvents() []obs.Event { return p.p.Obs().Tracer().Events() }

// Internal exposes the underlying implementation pool for benchmarks,
// validators, and tools. Applications do not need it.
func (p *Pool) Internal() *shm.Pool { return p.p }

// Client is one RDSM participant. Not goroutine-safe; use one Client per
// goroutine.
type Client struct {
	c    *shm.Client
	pool *Pool
}

// ID returns the client's pool-wide ID.
func (c *Client) ID() int { return c.c.ID() }

// Heartbeat signals liveness to the monitor.
func (c *Client) Heartbeat() { c.c.Heartbeat() }

// Close marks the client dead; the recovery service reclaims anything it
// still holds. Release references first for a tidy exit — but exiting dirty
// is safe, that is the whole point.
func (c *Client) Close() error { return c.c.Close() }

// Internal exposes the implementation client (benchmarks and tools).
func (c *Client) Internal() *shm.Client { return c.c }

// Malloc allocates size bytes of shared memory with embedRefs embedded
// reference slots at the start of the data area, returning a counted
// reference (paper §3.1: cxl_malloc).
func (c *Client) Malloc(size, embedRefs int) (*Ref, error) {
	root, block, err := c.c.Malloc(size, embedRefs)
	if err != nil {
		return nil, err
	}
	return &Ref{c: c, root: root, block: block}, nil
}

// NewQueueTo creates a shared SPSC transfer queue from this client to
// receiver (paper §5.2). The queue is itself a counted shared object; Close
// both ends to reclaim it.
func (c *Client) NewQueueTo(receiver, capacity int) (*Queue, error) {
	root, block, err := c.c.CreateQueue(receiver, capacity)
	if err != nil {
		return nil, err
	}
	return &Queue{c: c, root: root, block: block}, nil
}

// OpenQueueFrom finds (in the pool's queue registry) and opens the queue
// whose sender is sender and whose receiver is this client.
func (c *Client) OpenQueueFrom(sender int) (*Queue, error) {
	block := c.c.FindQueueFrom(sender)
	if block == 0 {
		return nil, fmt.Errorf("cxlshm: no queue from client %d to %d", sender, c.ID())
	}
	root, err := c.c.OpenQueue(block)
	if err != nil {
		return nil, err
	}
	return &Queue{c: c, root: root, block: block}, nil
}

// Send transfers a counted reference into the queue (paper cxl_send_to).
// The sender keeps its own reference; release it when done. Ownership of
// the in-flight reference belongs to the queue until received.
func (c *Client) Send(q *Queue, ref *Ref) error {
	if ref.root == 0 {
		return ErrReleased
	}
	return c.c.Send(q.block, ref.block)
}

// Receive takes the next reference from the queue (paper cxl_receive_from),
// returning ErrQueueEmpty when nothing is in flight.
func (c *Client) Receive(q *Queue) (*Ref, error) {
	root, block, err := c.c.Receive(q.block)
	if err != nil {
		return nil, err
	}
	return &Ref{c: c, root: root, block: block}, nil
}

// Ref is a CXLRef: a smart pointer to a shared object. It is tied to the
// client that created it and is not goroutine-safe (clone-and-send to share
// across clients, paper §3.1).
type Ref struct {
	c     *Client
	root  Addr // RootRef slot in the shared pool
	block Addr // the CXLObj
}

// Addr returns the object's machine-independent address (for embedding into
// other objects or direct word operations).
func (r *Ref) Addr() Addr { return r.block }

// Clone adds a thread-local reference (no atomics, no flush — the two-tier
// count of §5.2). Both the clone and the original must be Released.
func (r *Ref) Clone() *Ref {
	r.c.c.CloneRoot(r.root)
	return &Ref{c: r.c, root: r.root, block: r.block}
}

// Release drops this reference. When the last reference anywhere drops, the
// object is reclaimed (cascading through embedded references). Returns
// whether this release freed the object.
func (r *Ref) Release() (bool, error) {
	if r.root == 0 {
		return false, ErrReleased
	}
	freed, err := r.c.c.ReleaseRoot(r.root)
	if err == nil {
		r.root = 0
	}
	return freed, err
}

// Size returns the object's usable data size in bytes.
func (r *Ref) Size() int { return r.c.c.DataBytesOf(r.block) }

// Read copies len(p) bytes from the object at byte offset off.
func (r *Ref) Read(off int, p []byte) { r.c.c.ReadData(r.block, off, p) }

// Write stores p into the object at byte offset off.
func (r *Ref) Write(off int, p []byte) { r.c.c.WriteData(r.block, off, p) }

// LoadWord atomically reads data word i.
func (r *Ref) LoadWord(i int) uint64 { return r.c.c.LoadWord(r.block, i) }

// StoreWord atomically writes data word i.
func (r *Ref) StoreWord(i int, v uint64) { r.c.c.StoreWord(r.block, i, v) }

// CASWord atomically compares-and-swaps data word i.
func (r *Ref) CASWord(i int, old, new uint64) bool { return r.c.c.CASWord(r.block, i, old, new) }

// Lease returns a zero-copy []byte view aliasing the object's data area on
// the device (the paper's §3.1 data plane: get_addr plus plain loads and
// stores). No bytes are staged through the Go heap, and the acquire/release
// cycle costs zero device metadata accesses. The Ref must stay un-Released
// for the lease's lifetime, at most one lease per object may be live per
// client (ErrLeaseAliased), and backends that cannot alias device memory
// return ErrNoDirectAccess — fall back to Read/Write there.
func (r *Ref) Lease() (*Lease, error) {
	if r.root == 0 {
		return nil, ErrReleased
	}
	l, err := r.c.c.AcquireLease(r.block)
	if err != nil {
		return nil, err
	}
	return &Lease{c: r.c, l: l}, nil
}

// Lease is a zero-copy byte window over one shared object's data area.
type Lease struct {
	c *Client
	l *shm.Lease
}

// Bytes returns the aliasing window. It must not be used after Release.
func (l *Lease) Bytes() []byte { return l.l.Bytes() }

// Release invalidates the window and recycles the lease. Releasing twice is
// a harmless no-op.
func (l *Lease) Release() { l.c.c.ReleaseLease(l.l) }

// SetEmbed links embedded reference idx to target's object (single-writer;
// see paper §4.3 and §5.4).
func (r *Ref) SetEmbed(idx int, target *Ref) error {
	return r.c.c.SetEmbed(r.block, idx, target.block)
}

// SetEmbedAddr links embedded reference idx to an object by address (for
// data structures that traverse raw embedded pointers).
func (r *Ref) SetEmbedAddr(idx int, target Addr) error {
	return r.c.c.SetEmbed(r.block, idx, target)
}

// ChangeEmbed atomically re-points embedded reference idx to target,
// releasing the previous target (the §5.4 change function).
func (r *Ref) ChangeEmbed(idx int, target *Ref) error {
	return r.c.c.ChangeEmbed(r.block, idx, target.block)
}

// ChangeEmbedAddr is ChangeEmbed by address.
func (r *Ref) ChangeEmbedAddr(idx int, target Addr) error {
	return r.c.c.ChangeEmbed(r.block, idx, target)
}

// ClearEmbed unlinks embedded reference idx, releasing its target.
func (r *Ref) ClearEmbed(idx int) error { return r.c.c.ClearEmbed(r.block, idx) }

// LoadEmbed reads embedded reference idx (0 when unset).
func (r *Ref) LoadEmbed(idx int) (Addr, error) { return r.c.c.LoadEmbed(r.block, idx) }

// PublishRoot attaches well-known named-root slot i to ref's object so it
// stays alive independent of any client (the paper's persistent root
// objects, §6.4). Drop with UnpublishRoot.
func (c *Client) PublishRoot(i int, ref *Ref) error {
	return c.c.PublishRoot(i, ref.block)
}

// OpenRoot takes this client's own counted reference to the object at
// named-root slot i.
func (c *Client) OpenRoot(i int) (*Ref, error) {
	root, block, err := c.c.OpenRoot(i)
	if err != nil {
		return nil, err
	}
	return &Ref{c: c, root: root, block: block}, nil
}

// UnpublishRoot releases named-root slot i's reference.
func (c *Client) UnpublishRoot(i int) error { return c.c.UnpublishRoot(i) }

// AttachAddr takes a new counted reference to an object this client can
// already reach (e.g. an address read from an embedded reference, under the
// data structure's own read protocol).
func (c *Client) AttachAddr(block Addr) (*Ref, error) {
	root, err := c.c.AttachRoot(block)
	if err != nil {
		return nil, err
	}
	return &Ref{c: c, root: root, block: block}, nil
}

// Queue is a shared SPSC reference-transfer queue endpoint.
type Queue struct {
	c     *Client
	root  Addr
	block Addr
}

// Len reports how many references are in flight.
func (q *Queue) Len() int { return q.c.c.QueueLen(q.block) }

// Close releases this endpoint's reference to the queue. When both ends
// (and the recovery service, if it had to step in) are done, the queue and
// any in-flight references are reclaimed.
func (q *Queue) Close() error {
	if q.root == 0 {
		return ErrReleased
	}
	_, err := q.c.c.ReleaseRoot(q.root)
	if err == nil {
		q.root = 0
	}
	return err
}
