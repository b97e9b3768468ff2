package serving

import (
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/kv"
	"repro/internal/netrpc"
	"repro/internal/shm"
)

// WorkerConfig shapes one serving worker.
type WorkerConfig struct {
	// RootSlot is the named-root slot the kv index is published at.
	RootSlot int
	// Partitions this worker acquires at startup (its write ownership).
	Partitions []int
	// Steal passes through to AcquirePartition: take over a dead writer's
	// lease (failover restart) instead of refusing a held one.
	Steal bool
	// HeartbeatEvery is the client heartbeat cadence (default 2ms) — the
	// liveness signal the recovery monitor watches.
	HeartbeatEvery time.Duration
	// Net tunes the RPC server (MaxPayload, deadlines).
	Net netrpc.Config
}

// WorkerStats is the FnStats response: identity, serving counters, and the
// store shape a driver needs to route partitions without out-of-band
// configuration. LockWaits counts the handler calls that found the writer
// lock held and LockWaitNS the time they waited for it.
type WorkerStats struct {
	CID        int    `json:"cid"`
	Ops        uint64 `json:"ops"`
	Errors     uint64 `json:"errors"`
	LockWaits  uint64 `json:"lock_waits"`
	LockWaitNS uint64 `json:"lock_wait_ns"`
	Partitions []int  `json:"partitions"`
	Buckets    int    `json:"buckets"`
	Writers    int    `json:"writers"`
	ValSize    int    `json:"val_size"`
}

// maxReaders is the capacity of a worker's free list of read views. A view
// is needed per connection reading at once, and 64 is well beyond the
// connections the drivers and the benchmark open against one worker.
const maxReaders = 64

// Worker is one serving process's state: a pool attachment, a kv.Store
// handle, the partitions it owns, and the RPC server in front of them.
//
// Concurrency model: one shm.Client per OS process — the paper's model —
// and a shm.Client is single-goroutine, so everything that writes through
// it (PUT, takeover, stats, the heartbeat ticker) serializes on the writer
// lock mu. Reads do not: netrpc runs a goroutine per connection, and a
// GET or SCAN takes a kv.Reader from the readers free list — each over a
// load-only shm.Reader with its own handle on the worker's cid — and reads
// lock-free beside the writer, exactly as another process's reader would.
// The record's version word keeps such a read from returning a value torn
// by this worker's own in-place PUT. handle checks the client's fence before
// either side runs; once raised, it stays up for this incarnation.
type Worker struct {
	pool     *shm.Pool
	ownsPool bool
	c        *shm.Client
	store    *kv.Store
	srv      *netrpc.Server
	// readers is the free list of views for lock-free GET/SCAN, one per
	// connection reading at once; a reader beyond its capacity is made for
	// the call and dropped. A channel, not a sync.Pool: a GC empties a
	// sync.Pool, and the views would be allocated again on the read path.
	readers chan *kv.Reader

	mu    sync.Mutex // the writer lock: serializes all use of the shm.Client
	parts map[int]bool

	ops, errs             atomic.Uint64
	lockWaits, lockWaitNS atomic.Uint64

	quit     chan struct{}
	quitOnce sync.Once

	hbStop   chan struct{}
	hbDone   chan struct{}
	stopOnce sync.Once
}

// StartWorker attaches a worker to an already-open pool (in-process mode:
// tests and the heap-backend smoke leg). The worker does not own the pool.
func StartWorker(pool *shm.Pool, cfg WorkerConfig) (*Worker, error) {
	return startWorker(pool, false, cfg)
}

// StartWorkerFile opens the mmap pool file at path and starts a worker on
// it — the child-process mode: each worker process attaches the shared
// file independently, exactly as CXL memory is shared between hosts.
func StartWorkerFile(path string, cfg WorkerConfig) (*Worker, error) {
	pool, err := shm.OpenFile(path)
	if err != nil {
		return nil, fmt.Errorf("serving: open pool %s: %w", path, err)
	}
	w, err := startWorker(pool, true, cfg)
	if err != nil {
		pool.CloseDevice()
		return nil, err
	}
	return w, nil
}

func startWorker(pool *shm.Pool, owns bool, cfg WorkerConfig) (*Worker, error) {
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = 2 * time.Millisecond
	}
	c, err := pool.Connect()
	if err != nil {
		return nil, err
	}
	store, err := kv.Open(c, cfg.RootSlot)
	if err != nil {
		c.Close()
		return nil, fmt.Errorf("serving: open kv root %d: %w", cfg.RootSlot, err)
	}
	w := &Worker{
		pool: pool, ownsPool: owns, c: c, store: store,
		parts:   make(map[int]bool),
		quit:    make(chan struct{}),
		hbStop:  make(chan struct{}),
		hbDone:  make(chan struct{}),
		readers: make(chan *kv.Reader, maxReaders),
	}
	// A view per CPU up front, so that reads allocate none.
	for i := 0; i < min(runtime.GOMAXPROCS(0), maxReaders); i++ {
		w.readers <- store.NewReader(c.NewReader())
	}
	for _, p := range cfg.Partitions {
		if !w.store.AcquirePartition(p, cfg.Steal) {
			w.teardown()
			return nil, fmt.Errorf("serving: partition %d held by live writer %d",
				p, w.store.PartitionOwner(p))
		}
		w.parts[p] = true
	}
	srv, err := netrpc.NewServerConfig(w.handle, cfg.Net)
	if err != nil {
		w.teardown()
		return nil, err
	}
	w.srv = srv
	go w.heartbeatLoop(cfg.HeartbeatEvery)
	return w, nil
}

// Addr returns the worker's RPC dial address.
func (w *Worker) Addr() string { return w.srv.Addr() }

// CID returns the worker's client slot ID.
func (w *Worker) CID() int { return w.c.ID() }

// QuitRequested is closed when a peer sends FnQuit or the worker finds itself
// fenced; the owning process should then call Stop and exit.
func (w *Worker) QuitRequested() <-chan struct{} { return w.quit }

func (w *Worker) heartbeatLoop(every time.Duration) {
	defer close(w.hbDone)
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-w.hbStop:
			return
		case <-t.C:
			w.mu.Lock()
			w.c.Heartbeat()
			w.mu.Unlock()
		}
	}
}

func (w *Worker) handle(fn uint64, payload []byte) (resp []byte, err error) {
	w.ops.Add(1)
	switch {
	case w.c.Fenced():
		err = shm.ErrFenced // a fenced worker answers nothing: its reads would be stale
	case fn == FnGet || fn == FnScan:
		var rd *kv.Reader
		select {
		case rd = <-w.readers:
		default:
			rd = w.store.NewReader(w.c.NewReader())
		}
		resp, err = w.dispatch(rd, fn, payload)
		select {
		case w.readers <- rd:
		default:
		}
	default:
		w.lock()
		resp, err = w.dispatch(nil, fn, payload)
		w.mu.Unlock()
	}
	if err != nil {
		w.errs.Add(1)
		if errors.Is(err, shm.ErrFenced) {
			w.quitOnce.Do(func() { close(w.quit) })
		}
	}
	return resp, err
}

// lock takes the writer lock for a handler call, counting the calls that
// find it held and their wait. The uncontended path reads no clock.
func (w *Worker) lock() {
	if w.mu.TryLock() {
		return
	}
	t0 := time.Now()
	w.mu.Lock()
	w.lockWaits.Add(1)
	w.lockWaitNS.Add(uint64(time.Since(t0)))
}

// dispatch serves one call. FnGet and FnScan read through rd, off the
// writer lock; every other function runs under it (rd is nil).
func (w *Worker) dispatch(rd *kv.Reader, fn uint64, payload []byte) ([]byte, error) {
	switch fn {
	case FnPing:
		resp := make([]byte, 8)
		putU64(resp, uint64(w.c.ID()))
		return resp, nil

	case FnGet:
		if len(payload) != 8 {
			return nil, reqError(fn, 8, len(payload))
		}
		key := u64(payload)
		resp := make([]byte, 1+w.store.ValueSize())
		n, err := rd.Get(key, resp[1:])
		if errors.Is(err, kv.ErrNotFound) {
			return resp[:1], nil
		}
		if err != nil {
			return nil, err
		}
		resp[0] = 1
		return resp[:1+n], nil

	case FnPut:
		if len(payload) < 8 {
			return nil, reqError(fn, 8, len(payload))
		}
		// Atomic word stores through the fenceable Handle, never a plain copy.
		return nil, w.store.Put(u64(payload), payload[8:])

	case FnScan:
		if len(payload) != 16 {
			return nil, reqError(fn, 16, len(payload))
		}
		start := int(u64(payload) % uint64(w.store.Buckets()))
		want := int(u64(payload[8:]))
		if want <= 0 || want > maxScanRecords {
			want = maxScanRecords
		}
		valSize := w.store.ValueSize()
		resp := make([]byte, 16, 16+want*(8+valSize))
		putU64(resp[8:], uint64(valSize))
		count := 0
		// One scan covers a window of buckets sized so a sparse table
		// still yields records without walking the whole index.
		window := w.store.Buckets()
		rd.RangeBuckets(start, window, func(key uint64, val []byte) bool {
			var kb [8]byte
			putU64(kb[:], key)
			resp = append(resp, kb[:]...)
			resp = append(resp, val...)
			count++
			return count < want
		})
		putU64(resp, uint64(count))
		return resp, nil

	case FnTakeover:
		if len(payload) != 8 {
			return nil, reqError(fn, 8, len(payload))
		}
		p := int(u64(payload))
		if p < 0 || p >= w.store.Writers() {
			return nil, fmt.Errorf("takeover of partition %d refused: the store has %d", p, w.store.Writers())
		}
		if !w.store.AcquirePartition(p, true) {
			return nil, ErrTakeoverPending
		}
		w.parts[p] = true
		return nil, nil

	case FnStats:
		st := WorkerStats{
			CID:        w.c.ID(),
			Ops:        w.ops.Load(),
			Errors:     w.errs.Load(),
			LockWaits:  w.lockWaits.Load(),
			LockWaitNS: w.lockWaitNS.Load(),
			Buckets:    w.store.Buckets(),
			Writers:    w.store.Writers(),
			ValSize:    w.store.ValueSize(),
		}
		for p := range w.parts {
			st.Partitions = append(st.Partitions, p)
		}
		return json.Marshal(st)

	case FnQuit:
		w.quitOnce.Do(func() { close(w.quit) })
		return nil, nil
	}
	return nil, fmt.Errorf("unknown function %d", fn)
}

// Abandon simulates kill -9 for in-process chaos: the RPC server and the
// heartbeat stop dead, but the shm client is NOT closed — its slot stays
// ALIVE with a frozen heartbeat, exactly what a killed process leaves
// behind, and the recovery monitor must detect, fence, and recover it.
func (w *Worker) Abandon() {
	w.stopOnce.Do(func() { close(w.hbStop) })
	<-w.hbDone
	w.srv.Close()
}

// Stop shuts the worker down cleanly: RPC drained, heartbeat stopped,
// store and client closed (the slot still parks as dead — pool-attached
// state is reclaimed by recovery, as for any departed client).
func (w *Worker) Stop() error {
	w.stopOnce.Do(func() { close(w.hbStop) })
	<-w.hbDone
	err := w.srv.Close()
	w.teardown()
	return err
}

func (w *Worker) teardown() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.store != nil {
		w.store.Close()
		w.store = nil
	}
	if w.c != nil {
		w.c.Close()
		w.c = nil
	}
	if w.ownsPool {
		w.pool.CloseDevice()
	}
}
