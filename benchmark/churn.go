package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/layout"
	"repro/internal/recovery"
	"repro/internal/shm"
)

// shm-churn: no sockets, no kv. One goroutine drives two shm.Clients; an op
// is one transaction of 8 Mallocs across the size classes 16 B..4 KiB, 2
// embedded-reference links, 1 Send→Receive hand-off to the second client,
// then the release of everything. A Heartbeat every 256 ops supplies the
// deferred-publication epochs a live client has.
const (
	churnSliceOps       = 49_152
	churnWarmupOps      = 24_576
	churnHeartbeatEvery = 256
	churnQueueCap       = 8
)

var churnGeometry = layout.GeometryConfig{
	MaxClients:   8,
	NumSegments:  64,
	SegmentWords: 1 << 16,
}

type churnInst struct {
	p        *shm.Pool
	path     string
	a, b     *shm.Client
	qRootA   layout.Addr
	qRootB   layout.Addr
	q        layout.Addr
	r        *rng
	txns     []allocTxn
	n        int // ops run, for the heartbeat cadence
	baseline shm.Usage
}

func setupChurn(_ *workload, e *env) (instance, error) {
	s := &churnInst{r: e.rng(1), txns: make([]allocTxn, churnSliceOps)}
	fillTxns(s.r, s.txns) // the warm-up slice's inputs: generator work, untimed
	e.beginSetup()
	var err error
	if s.p, s.path, err = newPoolFile(e, "shm-churn", churnGeometry); err != nil {
		return nil, err
	}
	s.baseline = s.p.Usage()
	e.chunk()
	if s.a, err = s.p.Connect(); err != nil {
		return nil, err
	}
	if s.b, err = s.p.Connect(); err != nil {
		return nil, err
	}
	if s.qRootA, s.q, err = s.a.CreateQueue(s.b.ID(), churnQueueCap); err != nil {
		return nil, fmt.Errorf("CreateQueue: %w", err)
	}
	if s.qRootB, err = s.b.OpenQueue(s.q); err != nil {
		return nil, fmt.Errorf("OpenQueue: %w", err)
	}
	e.chunk()
	// Warm-up: a fixed count of unrecorded transactions (first touch of every size class's
	// pages in the mapped file), in eight chunks.
	lat := make([]int64, churnWarmupOps)
	for i := 0; i < 8; i++ {
		lo, hi := i*churnWarmupOps/8, (i+1)*churnWarmupOps/8
		if failed := s.runTxns(s.txns[lo:hi], time.Now(), lat[lo:hi], nil); failed > 0 {
			return nil, fmt.Errorf("warm-up: %d transactions failed", failed)
		}
		e.chunk()
	}
	return s, nil
}

func (s *churnInst) pool() *shm.Pool { return s.p }

func (s *churnInst) prepare(k int) error {
	fillTxns(s.r, s.txns)
	return nil
}

func (s *churnInst) run(c, k int, t0 time.Time, lat, starts []int64) (time.Duration, int) {
	begin := time.Now()
	failed := s.runTxns(s.txns, t0, lat, starts)
	return time.Since(begin), failed
}

func (s *churnInst) runTxns(txns []allocTxn, t0 time.Time, lat, starts []int64) int {
	failed := 0
	for i := range txns {
		ts := time.Now()
		err := s.txn(&txns[i])
		d := time.Since(ts).Nanoseconds()
		if err != nil {
			failed++
			d = math.MaxInt64
		}
		lat[i] = d
		if starts != nil {
			starts[i] = ts.Sub(t0).Nanoseconds()
		}
		if s.n++; s.n%churnHeartbeatEvery == 0 {
			s.a.Heartbeat()
			s.b.Heartbeat()
		}
	}
	return failed
}

// txn is one transaction. Objects 0 and 1 carry one embedded reference
// each, linked to objects 2 and 3; one object travels to client b and is
// released there.
func (s *churnInst) txn(t *allocTxn) error {
	var roots, blocks [8]layout.Addr
	var err error
	for j, size := range t.sizes {
		embeds := 0
		if j < 2 {
			embeds = 1
		}
		if roots[j], blocks[j], err = s.a.Malloc(int(size), embeds); err != nil {
			return fmt.Errorf("Malloc(%d): %w", size, err)
		}
	}
	if err = s.a.SetEmbed(blocks[0], 0, blocks[2]); err != nil {
		return fmt.Errorf("SetEmbed: %w", err)
	}
	if err = s.a.SetEmbed(blocks[1], 0, blocks[3]); err != nil {
		return fmt.Errorf("SetEmbed: %w", err)
	}
	if err = s.a.Send(s.q, blocks[t.send]); err != nil {
		return fmt.Errorf("Send: %w", err)
	}
	got, target, err := s.b.Receive(s.q)
	if err != nil {
		return fmt.Errorf("Receive: %w", err)
	}
	if target != blocks[t.send] {
		return fmt.Errorf("Receive delivered %#x, sent %#x", target, blocks[t.send])
	}
	if _, err = s.b.ReleaseRoot(got); err != nil {
		return fmt.Errorf("ReleaseRoot (receiver): %w", err)
	}
	for _, r := range roots {
		if _, err = s.a.ReleaseRoot(r); err != nil {
			return fmt.Errorf("ReleaseRoot: %w", err)
		}
	}
	return nil
}

func (s *churnInst) verify(k int) error { return nil }

// finish is the zero-object epilogue: with a transaction's objects live it
// samples the occupancy (for shm.space_amp), then releases the queue,
// retires both clients, and requires the pool back at its baseline — every
// segment free, no object allocated.
func (s *churnInst) finish() (float64, error) {
	var live int64
	var roots [8]layout.Addr
	for j := range roots {
		var err error
		if roots[j], _, err = s.a.Malloc(int(s.txns[0].sizes[j]), 0); err != nil {
			return 0, err
		}
		live += int64(s.txns[0].sizes[j])
	}
	amp := spaceAmp(s.p, live)
	for _, r := range roots {
		if _, err := s.a.ReleaseRoot(r); err != nil {
			return 0, err
		}
	}
	if _, err := s.a.ReleaseRoot(s.qRootA); err != nil {
		return 0, err
	}
	if _, err := s.b.ReleaseRoot(s.qRootB); err != nil {
		return 0, err
	}
	svc, err := recovery.NewService(s.p)
	if err != nil {
		return 0, err
	}
	for _, c := range []*shm.Client{s.a, s.b} {
		if err := c.Close(); err != nil {
			return 0, err
		}
		if _, err := svc.RecoverClient(c.ID()); err != nil {
			return 0, fmt.Errorf("recover client %d: %w", c.ID(), err)
		}
	}
	u := s.p.Usage()
	if u.SegmentsFree != s.baseline.SegmentsFree {
		return 0, fmt.Errorf("zero-object check: %d segments free, %d at baseline", u.SegmentsFree, s.baseline.SegmentsFree)
	}
	return amp, nil
}

func (s *churnInst) close() error { return closePoolFile(s.p, s.path) }
