package shm

import (
	"fmt"
	"os"
	"time"

	"repro/internal/cxl"
	"repro/internal/layout"
	"repro/internal/obs"
)

// BackendEnv is the environment variable that selects the default device
// backend for pools that do not specify one ("heap" or "mmap"). It lets
// the entire test suite and fault campaigns run over the mmap backend
// without touching a single call site: CXLSHM_BACKEND=mmap go test ./...
const BackendEnv = "CXLSHM_BACKEND"

// Config configures a Pool.
type Config struct {
	// Geometry selects pool dimensions; zero fields take defaults.
	Geometry layout.GeometryConfig
	// Latency optionally enables the device latency model (stacked as
	// cxl.WithLatency middleware over the backend).
	Latency cxl.Latency
	// CountAccesses enables the device's per-access statistics (loads,
	// stores, CAS). Counting is handle-local and merged on read, so it no
	// longer serializes concurrent clients; still, keep it off for pure
	// throughput runs.
	CountAccesses bool

	// Backend selects the device backend: "heap" (default) keeps the pool
	// in process memory; "mmap" backs it with an unlinked temporary file
	// through cxl.MapDevice (same data path as File, nothing left on
	// disk). Empty consults BackendEnv, then defaults to "heap".
	Backend string
	// File, when set, backs the pool with the mmap'd file at this path
	// (created, must not exist — see cxl.CreateMapDevice). The pool then
	// outlives this process: reopen it with OpenFile.
	File string
	// Middleware is stacked over the backend (innermost first) before any
	// client or the recovery service touches it.
	Middleware []cxl.Middleware
}

// Pool is a formatted CXL-SHM shared memory pool: a device backend plus its
// geometry. Clients Connect to a Pool; the recovery service operates on it
// directly.
type Pool struct {
	dev cxl.Memory
	geo *layout.Geometry
	obs *obs.Metrics
	tel *Telemetry
}

// newPoolAround assembles a Pool over an already-built (wrapped) device.
// mirror installs the event sink that copies recovery-lifecycle trace
// events into the pool's crash-surviving telemetry ring; read-only
// attaches leave it off (they never trace, and must never write).
func newPoolAround(dev cxl.Memory, geo *layout.Geometry, mirror bool) *Pool {
	p := &Pool{dev: dev, geo: geo, obs: newMetrics(geo), tel: NewTelemetry(dev, geo)}
	if mirror {
		p.obs.SetEventSink(p.tel.mirrorEvent)
	}
	return p
}

// traceRingCap bounds the recovery-event ring buffer per pool.
const traceRingCap = 512

// newMetrics builds the pool's observability core: shard 0 for pool-level
// and recovery-service accounting, shards 1..MaxClients per client ID.
func newMetrics(geo *layout.Geometry) *obs.Metrics {
	m := obs.New(geo.MaxClients+1, traceRingCap)
	obs.Register(m)
	return m
}

// newBackend builds the device backend cfg selects for geo.
func newBackend(cfg Config, geo *layout.Geometry) (cxl.Memory, error) {
	devCfg := cxl.Config{
		Words:         int(geo.TotalWords),
		MaxClients:    geo.MaxClients + 1, // +1: the recovery service connects as a client too
		CountAccesses: cfg.CountAccesses,
	}
	if cfg.File != "" {
		return cxl.CreateMapDevice(cfg.File, devCfg)
	}
	backend := cfg.Backend
	if backend == "" {
		backend = os.Getenv(BackendEnv)
	}
	switch backend {
	case "", "heap":
		return cxl.NewDevice(devCfg)
	case "mmap":
		return cxl.NewAnonMapDevice(devCfg)
	default:
		return nil, fmt.Errorf("shm: unknown device backend %q (want \"heap\" or \"mmap\")", backend)
	}
}

// wrap stacks the configured middleware (and latency profile) over mem.
func wrap(cfg Config, mem cxl.Memory) cxl.Memory {
	if cfg.Latency != (cxl.Latency{}) {
		mem = cxl.Wrap(mem, cxl.WithLatency(cfg.Latency))
	}
	return cxl.Wrap(mem, cfg.Middleware...)
}

// NewPool creates and formats a shared pool on the configured backend.
func NewPool(cfg Config) (*Pool, error) {
	geo, err := layout.NewGeometry(cfg.Geometry)
	if err != nil {
		return nil, err
	}
	mem, err := newBackend(cfg, geo)
	if err != nil {
		return nil, err
	}
	p := newPoolAround(wrap(cfg, mem), geo, true)
	p.format()
	return p, nil
}

// format writes the pool superblock and runtime words. Freshly created
// device words are zero, which is exactly the initial state everything else
// needs: segment entries read as {cid 0, version 0, SegFree}, client slots
// as ClientSlotFree, queue registry as empty.
func (p *Pool) format() {
	layout.WriteSuperblock(p.dev, p.geo)
	// Every client slot starts claimable (generations are zero/even already).
	for w := 0; w < int(p.geo.SlotMapWords); w++ {
		n := p.geo.MaxClients - w*64
		if n >= 64 {
			p.dev.Store(p.geo.SlotMapAddr(w), ^uint64(0))
		} else {
			p.dev.Store(p.geo.SlotMapAddr(w), (uint64(1)<<uint(n))-1)
		}
	}
	p.tel.format()
}

// AttachMemory attaches a pool that already lives on mem — typically a
// cxl.MapDevice reopened by a fresh process. The superblock is validated
// (magic, layout version, geometry) before anything touches the pool; on
// mismatch the pool is left untouched and a descriptive error returned.
// Middleware, if any, is stacked over mem.
func AttachMemory(mem cxl.Memory, mws ...cxl.Middleware) (*Pool, error) {
	return attach(mem, true, mws...)
}

// attach validates mem's superblock and its size against the geometry the
// superblock describes, then assembles the pool (see newPoolAround for
// mirror).
func attach(mem cxl.Memory, mirror bool, mws ...cxl.Middleware) (*Pool, error) {
	geo, err := layout.ReadSuperblock(mem).Geometry()
	if err != nil {
		return nil, fmt.Errorf("shm: %w", err)
	}
	if got, want := mem.Words(), int(geo.TotalWords); got != want {
		return nil, fmt.Errorf("shm: backend has %d words, geometry needs %d", got, want)
	}
	if got, want := mem.MaxClients(), geo.MaxClients+1; got < want {
		return nil, fmt.Errorf("shm: backend supports %d client IDs, geometry needs %d", got, want)
	}
	return newPoolAround(cxl.Wrap(mem, mws...), geo, mirror), nil
}

// OpenFile maps the pool file at path (created by a NewPool with
// Config.File, possibly by another OS process) and attaches it — alive, no
// copy. The previous owner's clients come back exactly as they were;
// recover the stale ones before connecting new clients.
func OpenFile(path string, mws ...cxl.Middleware) (*Pool, error) {
	md, err := cxl.OpenMapDevice(path)
	if err != nil {
		return nil, err
	}
	p, err := AttachMemory(md, mws...)
	if err != nil {
		md.Close()
		return nil, err
	}
	return p, nil
}

// OpenFileReadOnly maps the pool file at path PROT_READ and attaches it
// as an observer: superblock validated, no event sink installed, and any
// write through the device panics with a clear message instead of
// corrupting the pool (the mapping itself is hardware-read-only). This is
// what cxltop and cxlsnap -metrics attach with: they can watch a live
// pool — other processes' heartbeats, counters, recoveries — while being
// physically unable to interfere.
func OpenFileReadOnly(path string) (*Pool, error) {
	mem, err := cxl.OpenMapDeviceReadOnly(path)
	if err != nil {
		return nil, err
	}
	p, err := attach(mem, false)
	if err != nil {
		mem.Close()
		return nil, err
	}
	return p, nil
}

// CloseDevice releases the device backend (unmaps a file-backed pool). For
// a file-backed pool the pool itself survives in the file; for the heap
// backend this is a no-op. Any Client or Handle of this pool must not be
// used afterwards.
func (p *Pool) CloseDevice() error { return p.dev.Close() }

// StaleClients lists client slots whose previous incarnation never exited
// cleanly (status alive or dead in the attached image). Recover each before
// connecting new clients.
func (p *Pool) StaleClients() []int {
	var out []int
	for cid := 1; cid <= p.geo.MaxClients; cid++ {
		s := p.ClientStatus(cid)
		if s == layout.ClientAlive || s == layout.ClientDead {
			out = append(out, cid)
		}
	}
	return out
}

// Device exposes the underlying device backend (recovery, validation,
// benchmarks).
func (p *Pool) Device() cxl.Memory { return p.dev }

// DataWindow returns a zero-copy byte view of nbytes starting at word a,
// or nil when the backend cannot alias its memory (see cxl.DataWindow).
// The shm-level discipline — data words of referenced blocks only — is
// enforced by the lease layer (lease.go), the only intended caller.
func (p *Pool) DataWindow(a layout.Addr, nbytes int) []byte {
	return cxl.DataWindow(p.dev, a, nbytes)
}

// Obs exposes the pool's observability core (metrics + recovery tracer).
func (p *Pool) Obs() *obs.Metrics { return p.obs }

// Telemetry exposes the pool's crash-surviving telemetry region.
func (p *Pool) Telemetry() *Telemetry { return p.tel }

// Geometry exposes the pool geometry.
func (p *Pool) Geometry() *layout.Geometry { return p.geo }

// SegState reads segment i's state word.
func (p *Pool) SegState(i int) layout.SegState {
	return layout.UnpackSegState(p.dev.Load(p.geo.SegStateAddr(i)))
}

// ClientStatus reads client cid's status word.
func (p *Pool) ClientStatus(cid int) uint64 {
	return p.dev.Load(p.geo.ClientStatusAddr(cid))
}

// MarkClientDead transitions cid from Alive to Dead (the monitor calls this
// when heartbeats stop; tests call it to simulate a detected failure). It
// also RAS-fences the client so no in-flight write can land after recovery
// starts (§3.2).
func (p *Pool) MarkClientDead(cid int) error {
	return p.MarkClientDeadReason(cid, obs.FenceExplicit)
}

// MarkClientDeadReason is MarkClientDead carrying why the client is being
// fenced, recorded in the recovery event trace (the monitor passes
// heartbeat-timeout; Client.Close passes close).
func (p *Pool) MarkClientDeadReason(cid int, reason obs.FenceReason) error {
	return p.MarkClientDeadDetected(cid, reason, 0)
}

// MarkClientDeadDetected is MarkClientDeadReason carrying when the failure
// was first suspected (the monitor's first missed heartbeat, unix ns; 0
// when there was no detection phase). The successful fence opens a new
// death on the client's crash-surviving recovery timeline, stamped with
// both timepoints — the base the recovery-time SLO is measured from.
func (p *Pool) MarkClientDeadDetected(cid int, reason obs.FenceReason, firstMissNS int64) error {
	if cid < 1 || cid > p.geo.MaxClients {
		return fmt.Errorf("shm: client id %d out of range", cid)
	}
	a := p.geo.ClientStatusAddr(cid)
	for {
		cur := p.dev.Load(a)
		if cur != layout.ClientAlive && cur != layout.ClientDead {
			return fmt.Errorf("shm: client %d not alive (status %d)", cid, cur)
		}
		if cur == layout.ClientDead {
			// Already fenced: don't re-trace (recovery re-fences defensively).
			p.dev.FenceClient(cid)
			return nil
		}
		if p.dev.CAS(a, cur, layout.ClientDead) {
			break
		}
	}
	p.dev.FenceClient(cid)
	p.tel.StampFence(cid, reason, firstMissNS, time.Now().UnixNano())
	p.tel.PoolAdd(obs.CtrClientFenced, 1)
	p.obs.Shard(0).Inc(obs.CtrClientFenced)
	p.obs.Trace(obs.Event{Type: obs.EvClientFenced, Client: cid, A: uint64(reason)})
	return nil
}

// Usage is a cheap occupancy snapshot (segment-vector walk; no page scans).
type Usage struct {
	SegmentsFree      int `json:"segments_free"`
	SegmentsActive    int `json:"segments_active"`
	SegmentsAbandoned int `json:"segments_abandoned"`
	SegmentsHuge      int `json:"segments_huge"`
	ClientsAlive      int `json:"clients_alive"`
	// ClientsDead counts dead clients awaiting recovery; ClientsMax is the
	// slot capacity (MaxClients). Together with ClientsAlive they are the
	// slot census cxltop's header and SlotExhaustedError report.
	ClientsDead int `json:"clients_dead"`
	ClientsMax  int `json:"clients_max"`
	TotalBytes  int `json:"total_bytes"`
}

// Usage summarizes pool occupancy.
func (p *Pool) Usage() Usage {
	var u Usage
	for i := 0; i < p.geo.NumSegments; i++ {
		switch p.SegState(i).State {
		case layout.SegFree:
			u.SegmentsFree++
		case layout.SegActive:
			u.SegmentsActive++
		case layout.SegAbandoned:
			u.SegmentsAbandoned++
		case layout.SegHugeHead, layout.SegHugeBody:
			u.SegmentsHuge++
		}
	}
	u.ClientsAlive, u.ClientsDead = p.slotCensus()
	u.ClientsMax = p.geo.MaxClients
	u.TotalBytes = int(p.geo.TotalWords) * layout.WordBytes
	return u
}

// ClientDeadOrRecovered reports whether cid's slot refers to a client that
// is no longer alive (used by the segment-local scans to decide whether a
// refcount-zero block can still be mid-release by a live client).
func (p *Pool) ClientDeadOrRecovered(cid int) bool {
	if cid < 1 || cid > p.geo.MaxClients {
		// cid 0 appears in never-initialized headers; treat as dead.
		return true
	}
	s := p.ClientStatus(cid)
	return s == layout.ClientDead || s == layout.ClientRecovered || s == layout.ClientSlotFree
}

// SegGoneWord returns paged segment seg's state word (never zero there) if
// the segment will never be allocated from again — ABANDONED, or ACTIVE under
// an owner no longer alive — and 0 otherwise. Its one exit from that is
// → FREE, by a scan that judges by refcount alone (scan.go).
func (p *Pool) SegGoneWord(seg int) uint64 {
	w := p.dev.Load(p.geo.SegStateAddr(seg))
	st := layout.UnpackSegState(w)
	if st.State == layout.SegAbandoned ||
		st.State == layout.SegActive && p.ClientDeadOrRecovered(int(st.CID)) {
		return w
	}
	return 0
}
