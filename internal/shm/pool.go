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
	// CountAccesses enables the device's per-access statistics (loads,
	// stores, CAS). Counting is handle-local and merged on read, so it no
	// longer serializes concurrent clients; still, keep it off for pure
	// throughput runs.
	CountAccesses bool

	// Backend selects the device backend: "heap" (default) keeps the pool
	// in process memory; "mmap" backs it with an unlinked temporary file
	// through cxl.NewAnonMapDevice (same data path as File, nothing left
	// on disk). Empty consults BackendEnv, then defaults to "heap".
	Backend string
	// File, when set, backs the pool with the mmap'd file at this path
	// (created, must not exist — see cxl.CreateMapDevice). The pool then
	// outlives this process: reopen it with OpenFile.
	File string
	// Intercept is set on the device before any client or the recovery
	// service touches it: the latency model, an access hook, write faults.
	Intercept cxl.Intercept
}

// Pool is a formatted CXL-SHM shared memory pool: a device backend plus its
// geometry. Clients Connect to a Pool; the recovery service operates on it
// directly.
type Pool struct {
	dev *cxl.Device
	geo *layout.Geometry
	tel *Telemetry
}

// newPoolAround assembles a Pool over an already-built device.
func newPoolAround(dev *cxl.Device, geo *layout.Geometry) *Pool {
	return &Pool{dev: dev, geo: geo, tel: NewTelemetry(dev, geo)}
}

// newBackend builds the device backend cfg selects for geo.
func newBackend(cfg Config, geo *layout.Geometry) (*cxl.Device, error) {
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

// NewPool creates and formats a shared pool on the configured backend.
func NewPool(cfg Config) (*Pool, error) {
	geo, err := layout.NewGeometry(cfg.Geometry)
	if err != nil {
		return nil, err
	}
	dev, err := newBackend(cfg, geo)
	if err != nil {
		return nil, err
	}
	dev.SetIntercept(cfg.Intercept)
	p := newPoolAround(dev, geo)
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
// pool file reopened by a fresh process (cxl.OpenMapDevice). The superblock
// is validated (magic, layout version, geometry) before anything touches the
// pool; on mismatch the pool is left untouched and a descriptive error
// returned.
func AttachMemory(mem *cxl.Device) (*Pool, error) {
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
	return newPoolAround(mem, geo), nil
}

// OpenFile maps the pool file at path (created by a NewPool with
// Config.File, possibly by another OS process) and attaches it — alive, no
// copy. The previous owner's clients come back exactly as they were;
// recover the stale ones before connecting new clients.
func OpenFile(path string) (*Pool, error) {
	md, err := cxl.OpenMapDevice(path)
	if err != nil {
		return nil, err
	}
	p, err := AttachMemory(md)
	if err != nil {
		md.Close()
		return nil, err
	}
	return p, nil
}

// OpenFileReadOnly maps the pool file at path PROT_READ and attaches it
// as an observer: superblock validated, and any write through the device
// panics with a clear message instead of corrupting the pool (the mapping
// itself is hardware-read-only), so an observer must never Trace. This is
// what cxltop attaches with: it can watch a live pool — other processes'
// heartbeats, counters, recoveries — while being physically unable to
// interfere.
func OpenFileReadOnly(path string) (*Pool, error) {
	mem, err := cxl.OpenMapDeviceReadOnly(path)
	if err != nil {
		return nil, err
	}
	p, err := AttachMemory(mem)
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

// Device exposes the underlying device (recovery, validation, benchmarks).
func (p *Pool) Device() *cxl.Device { return p.dev }

// Obs reads the pool's counters and histograms: the sums of its telemetry
// region's metric blocks, the same totals in every process and every Pool
// over the same memory.
func (p *Pool) Obs() Metrics { return Metrics{p.tel} }

// Trace records one recovery-lifecycle event in the pool's crash-surviving
// event ring (Telemetry.Events reads it back). It is the one record of such
// events: it outlives the process that traced it.
func (p *Pool) Trace(e obs.Event) { p.tel.AppendEvent(e) }

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
	return p.MarkClientDeadDetected(cid, obs.FenceExplicit, 0)
}

// MarkClientDeadDetected is MarkClientDead carrying why the client is being
// fenced, recorded in the recovery event trace (the monitor passes
// heartbeat-timeout; Client.Close passes close), and when the failure was
// first suspected (the monitor's first missed heartbeat, unix ns; 0 when
// there was no detection phase). The successful fence opens a new death on
// the client's crash-surviving recovery timeline, stamped with both
// timepoints — the base the recovery-time SLO is measured from.
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
	p.Trace(obs.Event{Type: obs.EvClientFenced, Client: cid, A: uint64(reason)})
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
