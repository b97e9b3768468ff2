package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"repro/internal/kv"
	"repro/internal/layout"
	"repro/internal/netrpc"
	"repro/internal/recovery"
	"repro/internal/serving"
	"repro/internal/shm"
)

// The serving tier both kv-serve workloads (and the probes) run on: two
// in-process workers, one partition each, over a file-backed MAP_SHARED pool
// — the same cxl.MapDevice, kv, handler and loopback-TCP netrpc code as the
// multi-process deployment, minus the cross-process wake-up lottery.
const (
	kvKeys     = 200_000
	kvValSize  = 64
	kvBuckets  = 32_768 // mean chain ≈ 6
	kvWorkers  = 2
	kvRootSlot = 0
	kvScanSpan = 64
	kvRecBytes = 8 + kvValSize

	// Segments are sized for the preload plus the fresh keys the write
	// workload can insert in the longest permitted run (60 s).
	kvSegments = 1024
)

var kvGeometry = layout.GeometryConfig{
	MaxClients:   16,
	NumSegments:  kvSegments,
	SegmentWords: 1 << 16,
}

// serveTier is a preloaded store with its workers running.
type serveTier struct {
	p       *shm.Pool
	path    string
	svc     *recovery.Service
	workers []*serving.Worker
	stopped bool
}

// buildStore creates the pool and the preloaded index (in chunks, so set-up
// timing is calibrated piecewise) and retires the loader. No worker runs yet.
func buildStore(e *env, name string) (*serveTier, error) {
	p, path, err := newPoolFile(e, name, kvGeometry)
	if err != nil {
		return nil, err
	}
	t := &serveTier{p: p, path: path}
	creator, err := p.Connect()
	if err != nil {
		return nil, err
	}
	// Partition leases are all zero during the preload, so the
	// single-writer rule is unenforced and one loader fills every partition.
	loader, err := kv.Create(creator, kvRootSlot, kvBuckets, kvValSize, kvWorkers)
	if err != nil {
		return nil, fmt.Errorf("kv.Create: %w", err)
	}
	e.chunk()
	buf := make([]byte, kvValSize)
	const batches = 8
	for b := 0; b < batches; b++ {
		for k := b * kvKeys / batches; k < (b+1)*kvKeys/batches; k++ {
			valFor(uint64(k), buf)
			if err := loader.Put(uint64(k), buf); err != nil {
				return nil, fmt.Errorf("preload key %d: %w", k, err)
			}
		}
		e.chunk()
	}
	if err := loader.Close(); err != nil {
		return nil, err
	}
	if err := creator.Close(); err != nil {
		return nil, err
	}
	// The loader's slot parks dead until recovered; the named root keeps
	// the index alive through its creator's death.
	if t.svc, err = recovery.NewService(p); err != nil {
		return nil, err
	}
	if _, err := t.svc.RecoverClient(creator.ID()); err != nil {
		return nil, fmt.Errorf("recover loader: %w", err)
	}
	e.chunk()
	return t, nil
}

// startWorkers starts one worker per partition. steal lets them take the
// partition leases over from a dead previous writer (the probes' direct kv
// client).
func (t *serveTier) startWorkers(steal bool) error {
	for i := 0; i < kvWorkers; i++ {
		w, err := serving.StartWorker(t.p, serving.WorkerConfig{RootSlot: kvRootSlot, Partitions: []int{i}, Steal: steal})
		if err != nil {
			return fmt.Errorf("start worker %d: %w", i, err)
		}
		t.workers = append(t.workers, w)
	}
	return nil
}

func (t *serveTier) dial() ([]*serving.Conn, error) {
	conns := make([]*serving.Conn, len(t.workers))
	for i, w := range t.workers {
		c, err := serving.DialWorker(w.Addr(), netrpc.Config{})
		if err != nil {
			closeConns(conns[:i])
			return nil, fmt.Errorf("dial worker %d: %w", i, err)
		}
		conns[i] = c
	}
	return conns, nil
}

func closeConns(conns []*serving.Conn) {
	for _, c := range conns {
		if c != nil {
			c.Close()
		}
	}
}

// stopWorkers shuts the workers down cleanly and recovers their parked
// slots, leaving the pool quiescent for check.Validate.
func (t *serveTier) stopWorkers() error {
	if t.stopped {
		return nil
	}
	t.stopped = true
	for i, w := range t.workers {
		cid := w.CID()
		if err := w.Stop(); err != nil {
			return fmt.Errorf("stop worker %d: %w", i, err)
		}
		if _, err := t.svc.RecoverClient(cid); err != nil {
			return fmt.Errorf("recover worker %d (cid %d): %w", i, cid, err)
		}
	}
	return nil
}

func (t *serveTier) close() error {
	err := t.stopWorkers()
	if cerr := closePoolFile(t.p, t.path); err == nil {
		err = cerr
	}
	return err
}

// records counts the store's records through a fresh client.
func (t *serveTier) records() (int, error) {
	c, err := t.p.Connect()
	if err != nil {
		return 0, err
	}
	s, err := kv.Open(c, kvRootSlot)
	if err != nil {
		return 0, err
	}
	n := s.Len()
	if err := s.Close(); err != nil {
		return 0, err
	}
	if err := c.Close(); err != nil {
		return 0, err
	}
	_, err = t.svc.RecoverClient(c.ID())
	return n, err
}

// ---- the two kv-serve workloads -------------------------------------------

type serveInst struct {
	tier  *serveTier
	conns [][]*serving.Conn // [caller][worker]
	gens  []*kvGen
	ops   [][]kvOp
	bufs  [][]byte // per caller: value being written / expected
}

// kvWarmupOps is the fixed warm-up each caller sends through the measured
// path before the first slice (connection buffers, first touch of the
// mapped file's hot pages, the runtime's heap).
const kvWarmupOps = 4096

func setupServe(mix kvMix) func(w *workload, e *env) (instance, error) {
	return func(w *workload, e *env) (instance, error) {
		callers := w.callers
		// Generator state and the warm-up's inputs: not system set-up, untimed.
		s := &serveInst{}
		var z *zipf
		if mix.theta > 0 {
			z = newZipf(mix.keys, mix.theta)
		}
		warm := make([][]kvOp, callers)
		for c := 0; c < callers; c++ {
			s.gens = append(s.gens, newKVGen(mix, z, e.rng(c+1), c, callers))
			s.ops = append(s.ops, make([]kvOp, w.sliceOps))
			s.bufs = append(s.bufs, make([]byte, kvValSize))
			warm[c] = make([]kvOp, kvWarmupOps)
			s.gens[c].fill(warm[c])
		}

		e.beginSetup()
		var err error
		if s.tier, err = buildStore(e, w.name); err != nil {
			return nil, err
		}
		if err := s.tier.startWorkers(false); err != nil {
			return nil, err
		}
		for c := 0; c < callers; c++ {
			conns, err := s.tier.dial()
			if err != nil {
				return nil, err
			}
			s.conns = append(s.conns, conns)
		}
		e.chunk()
		failed := runCallers(callers, func(c int) int {
			_, f := s.runOps(c, warm[c], time.Now(), make([]int64, kvWarmupOps), nil)
			return f
		})
		if failed > 0 {
			return nil, fmt.Errorf("warm-up: %d ops failed", failed)
		}
		e.chunk()
		return s, nil
	}
}

func (s *serveInst) pool() *shm.Pool { return s.tier.p }

func (s *serveInst) prepare(k int) error {
	for c, g := range s.gens {
		g.fill(s.ops[c])
	}
	return nil
}

func (s *serveInst) run(c, k int, t0 time.Time, lat, starts []int64) (time.Duration, int) {
	return s.runOps(c, s.ops[c], t0, lat, starts)
}

// runOps is caller c's closed loop: send an op, wait for the reply, check it.
func (s *serveInst) runOps(c int, ops []kvOp, t0 time.Time, lat, starts []int64) (time.Duration, int) {
	conns, buf := s.conns[c], s.bufs[c]
	failed := 0
	begin := time.Now()
	for i, op := range ops {
		ts := time.Now()
		var val []byte
		var ok bool
		switch op.kind {
		case opGet:
			var found bool
			var err error
			val, found, err = conns[kv.Partition(op.key, kvBuckets, kvWorkers)].Get(op.key)
			ok = err == nil && found
		case opPut, opInsert:
			valFor(op.key, buf)
			ok = conns[kv.Partition(op.key, kvBuckets, kvWorkers)].Put(op.key, buf) == nil
		case opScan:
			n, err := conns[(i+c)%len(conns)].Scan(op.key, kvScanSpan)
			ok = err == nil && n == kvScanSpan
		}
		d := time.Since(ts).Nanoseconds()
		if ok && op.kind == opGet {
			valFor(op.key, buf)
			ok = bytes.Equal(val, buf)
		}
		if !ok {
			failed++
			d = math.MaxInt64
		}
		lat[i] = d
		if starts != nil {
			starts[i] = ts.Sub(t0).Nanoseconds()
		}
	}
	return time.Since(begin), failed
}

func (s *serveInst) verify(k int) error { return nil }

// finish checks, with the workers still up, that raw SCAN frames carry
// count × record bytes and each record its key's value, that every inserted
// key reads back, and that no worker counted an error; then, workers down,
// that the store holds exactly the preloaded plus inserted keys.
func (s *serveInst) finish() (float64, error) {
	inserted := 0
	for _, g := range s.gens {
		inserted += int(g.fresh)
	}
	want := make([]byte, kvValSize)
	for w, worker := range s.tier.workers {
		raw, err := netrpc.Dial(worker.Addr())
		if err != nil {
			return 0, err
		}
		var req [16]byte
		for _, start := range []uint64{0, kvBuckets / 3, kvBuckets - 2} {
			binary.LittleEndian.PutUint64(req[:8], start)
			binary.LittleEndian.PutUint64(req[8:], kvScanSpan)
			resp, err := raw.Call(serving.FnScan, req[:])
			if err != nil {
				raw.Close()
				return 0, fmt.Errorf("worker %d: raw scan: %w", w, err)
			}
			if err := checkScanFrame(resp, kvScanSpan, want); err != nil {
				raw.Close()
				return 0, fmt.Errorf("worker %d: scan from bucket %d: %w", w, start, err)
			}
		}
		raw.Close()
		st, err := s.conns[0][w].Stats()
		if err != nil {
			return 0, fmt.Errorf("worker %d: stats: %w", w, err)
		}
		if st.Errors != 0 {
			return 0, fmt.Errorf("worker %d counted %d handler errors", w, st.Errors)
		}
	}
	for c, g := range s.gens {
		for n := uint64(0); n < g.fresh; n += 97 {
			key := uint64(kvKeys) + n*uint64(len(s.gens)) + uint64(c)
			val, found, err := s.conns[c][kv.Partition(key, kvBuckets, kvWorkers)].Get(key)
			valFor(key, want)
			if err != nil || !found || !bytes.Equal(val, want) {
				return 0, fmt.Errorf("inserted key %d does not read back (found=%v err=%v)", key, found, err)
			}
		}
	}
	for _, conns := range s.conns {
		closeConns(conns)
	}
	if err := s.tier.stopWorkers(); err != nil {
		return 0, err
	}
	n, err := s.tier.records()
	if err != nil {
		return 0, err
	}
	if n != kvKeys+inserted {
		return 0, fmt.Errorf("store holds %d records, want %d preloaded + %d inserted", n, kvKeys, inserted)
	}
	return spaceAmp(s.tier.p, int64(n)*kvRecBytes), nil
}

// checkScanFrame validates one FnScan response: [8B count][8B valSize] then
// count × ([8B key][value]), every value equal to valFor(key).
func checkScanFrame(resp []byte, wantCount int, scratch []byte) error {
	if len(resp) < 16 {
		return fmt.Errorf("short frame (%d bytes)", len(resp))
	}
	count := int(binary.LittleEndian.Uint64(resp))
	valSize := int(binary.LittleEndian.Uint64(resp[8:]))
	if count != wantCount || valSize != kvValSize {
		return fmt.Errorf("frame header says %d records of %d B, want %d of %d B", count, valSize, wantCount, kvValSize)
	}
	if want := 16 + count*kvRecBytes; len(resp) != want {
		return fmt.Errorf("frame is %d bytes, want %d", len(resp), want)
	}
	for i := 0; i < count; i++ {
		rec := resp[16+i*kvRecBytes:]
		key := binary.LittleEndian.Uint64(rec)
		valFor(key, scratch)
		if !bytes.Equal(rec[8:kvRecBytes], scratch) {
			return fmt.Errorf("record %d (key %d) carries the wrong value", i, key)
		}
	}
	return nil
}

func (s *serveInst) close() error {
	for _, conns := range s.conns {
		closeConns(conns) // closing twice is harmless
	}
	return s.tier.close()
}
