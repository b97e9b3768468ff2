package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/layout"
	"repro/internal/obs"
	"repro/internal/recovery"
	"repro/internal/shm"
)

// crash-recover: the paper's headline. Each cycle a victim client connects,
// builds 512 objects of mixed sizes — 4 of them huge two-segment runs, 32
// also referenced by a surviving client — and dies with no Close. The timed
// op is Pool.MarkClientDead → recovery.Service.RecoverClient → one
// Monitor.Tick maintenance scan; the build is untimed.
const (
	recoverSliceOps = 1000
	victimObjects   = 512
	victimHuge      = 4
	victimShared    = 32
	victimSmall     = victimObjects - victimHuge
	victimHugeBytes = 768 << 10 // 1.5 segments: a two-segment run
)

var recoverGeometry = layout.GeometryConfig{
	MaxClients:   8,
	NumSegments:  64,
	SegmentWords: 1 << 16,
}

type sharedObj struct {
	root, block layout.Addr
	stamp       uint64
}

type recoverInst struct {
	p         *shm.Pool
	path      string
	svc       *recovery.Service
	mon       *recovery.Monitor
	survivor  *shm.Client
	r         *rng
	sizes     [victimSmall]uint16
	shared    []sharedObj // the previous victim's objects the survivor still holds
	cycles    uint64
	baseline  shm.Usage
	freedBase uint64 // reclaimed-object count when the warm-up ended

	// Per-phase time of the timed op, summed over the run (the traced run
	// reports them as recovery.fence_us, pass_us and tick_us).
	fenceNS, passNS, tickNS int64
	reports                 recoverTotals
}

// recoverTotals accumulates recovery.Report fields over cycles.
type recoverTotals struct {
	sweptRoots, reclaimed, hugeFreed, segs, redo int
}

func setupRecover(_ *workload, e *env) (instance, error) {
	s := &recoverInst{r: e.rng(1)}
	e.beginSetup()
	var err error
	if s.p, s.path, err = newPoolFile(e, "crash-recover", recoverGeometry); err != nil {
		return nil, err
	}
	e.chunk()
	if s.svc, err = recovery.NewService(s.p); err != nil {
		return nil, err
	}
	// The monitor is ticked by hand, once per cycle; the threshold keeps it
	// from fencing the survivor, whose heartbeat it would otherwise expect
	// to advance between ticks that are microseconds apart.
	s.mon = recovery.NewMonitor(s.svc, recovery.MonitorConfig{Threshold: math.MaxInt32})
	if s.survivor, err = s.p.Connect(); err != nil {
		return nil, err
	}
	e.chunk()
	// Warm-up: a fixed number of unrecorded cycles, in eight chunks.
	for i := 0; i < 8; i++ {
		for j := 0; j < 16; j++ {
			if _, err := s.cycle(); err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
		e.chunk()
	}
	if err := s.settle(); err != nil {
		return nil, err
	}
	s.baseline, s.freedBase = s.p.Usage(), s.freed()
	s.fenceNS, s.passNS, s.tickNS, s.reports, s.cycles = 0, 0, 0, recoverTotals{}, 0
	e.chunk()
	return s, nil
}

func (s *recoverInst) pool() *shm.Pool { return s.p }

func (s *recoverInst) prepare(k int) error { return nil }

func (s *recoverInst) run(c, k int, t0 time.Time, lat, starts []int64) (time.Duration, int) {
	var busy time.Duration
	failed := 0
	for i := range lat {
		d, err := s.cycle()
		end := time.Since(t0)
		if err != nil {
			failed++
			lat[i] = math.MaxInt64
			continue
		}
		lat[i] = d.Nanoseconds()
		busy += d
		if starts != nil {
			starts[i] = (end - d).Nanoseconds() // the timed op follows the untimed build
		}
	}
	return busy, failed
}

// cycle builds one victim (untimed) and recovers it (timed).
func (s *recoverInst) cycle() (time.Duration, error) {
	// The survivor reads, then drops, what it shared with the previous
	// victim; the maintenance tick of this cycle can then reclaim that
	// victim's orphaned segments.
	if err := s.dropShared(); err != nil {
		return 0, err
	}
	s.survivor.Heartbeat()

	victim, err := s.p.Connect()
	if err != nil {
		return 0, fmt.Errorf("victim connect: %w", err)
	}
	fillVictim(s.r, s.sizes[:])
	for j, size := range s.sizes {
		_, block, err := victim.Malloc(int(size), 0)
		if err != nil {
			return 0, fmt.Errorf("victim Malloc(%d): %w", size, err)
		}
		if j < victimShared {
			stamp := s.r.next()
			victim.StoreWord(block, 0, stamp)
			root, err := s.survivor.AttachRoot(block)
			if err != nil {
				return 0, fmt.Errorf("survivor AttachRoot: %w", err)
			}
			s.shared = append(s.shared, sharedObj{root, block, stamp})
		}
	}
	for j := 0; j < victimHuge; j++ {
		if _, _, err := victim.Malloc(victimHugeBytes, 0); err != nil {
			return 0, fmt.Errorf("victim huge Malloc: %w", err)
		}
	}
	cid := victim.ID()
	// The victim dies here: no Close, no Flush, its deferred state unpublished.

	t0 := time.Now()
	if err := s.p.MarkClientDead(cid); err != nil {
		return 0, fmt.Errorf("MarkClientDead(%d): %w", cid, err)
	}
	t1 := time.Now()
	rep, err := s.svc.RecoverClient(cid)
	if err != nil {
		return 0, fmt.Errorf("RecoverClient(%d): %w", cid, err)
	}
	t2 := time.Now()
	s.mon.Tick()
	t3 := time.Now()

	s.fenceNS += t1.Sub(t0).Nanoseconds()
	s.passNS += t2.Sub(t1).Nanoseconds()
	s.tickNS += t3.Sub(t2).Nanoseconds()
	s.cycles++
	s.reports.sweptRoots += rep.SweptRoots
	s.reports.reclaimed += rep.Reclaimed
	s.reports.hugeFreed += rep.HugeFreed
	s.reports.segs += rep.SegsFreed + rep.SegsOrphan
	if rep.RedoNeeded {
		s.reports.redo++
	}
	if rep.SweptRoots != victimObjects {
		return 0, fmt.Errorf("recovery of client %d swept %d roots, want %d", cid, rep.SweptRoots, victimObjects)
	}
	return t3.Sub(t0), nil
}

// dropShared verifies that the survivor still reads every object it shares
// with the last victim, then releases them; each release must free the
// object, the survivor's being the last reference.
func (s *recoverInst) dropShared() error {
	for _, o := range s.shared {
		if got := s.survivor.LoadWord(o.block, 0); got != o.stamp {
			return fmt.Errorf("shared object %#x reads %#x after its owner's recovery, want %#x", o.block, got, o.stamp)
		}
		freed, err := s.survivor.ReleaseRoot(o.root)
		if err != nil {
			return fmt.Errorf("survivor ReleaseRoot: %w", err)
		}
		if !freed {
			return fmt.Errorf("shared object %#x outlived its last reference", o.block)
		}
	}
	s.shared = s.shared[:0]
	return nil
}

// freed reads the pool's count of reclaimed objects, small and huge.
func (s *recoverInst) freed() uint64 {
	c := s.p.Obs().Snapshot().Counters
	return c[obs.CtrFree.Name()] + c[obs.CtrFreeHuge.Name()]
}

// settle drops the survivor's shared objects and ticks the monitor until
// the orphaned segments are back in the free pool.
func (s *recoverInst) settle() error {
	if err := s.dropShared(); err != nil {
		return err
	}
	s.survivor.Heartbeat()
	for i := 0; i < 4; i++ {
		s.mon.Tick()
	}
	return nil
}

// verify runs after every slice: segment census back to baseline.
func (s *recoverInst) verify(k int) error {
	if err := s.settle(); err != nil {
		return err
	}
	if u := s.p.Usage(); u.SegmentsFree != s.baseline.SegmentsFree || u.SegmentsAbandoned != 0 || u.SegmentsHuge != 0 {
		return fmt.Errorf("segment census after %d cycles: %+v, baseline %+v", s.cycles, u, s.baseline)
	}
	// Every object a victim built was reclaimed: 480 by its recovery, the
	// 32 shared ones when the survivor let go.
	if freed, want := s.freed()-s.freedBase, s.cycles*victimObjects; freed != want {
		return fmt.Errorf("%d objects reclaimed after %d cycles, want %d", freed, s.cycles, want)
	}
	if fails := s.mon.Failures(); len(fails) > 0 {
		return fmt.Errorf("monitor recorded %d failed duties, first: %s", len(fails), fails[0].Error)
	}
	return nil
}

// finish samples occupancy with one victim's shared objects live, then
// retires the survivor so the pool is quiescent for check.Validate.
func (s *recoverInst) finish() (float64, error) {
	if _, err := s.cycle(); err != nil {
		return 0, err
	}
	var live int64
	for _, o := range s.shared {
		live += int64(s.survivor.DataBytesOf(o.block))
	}
	amp := spaceAmp(s.p, live)
	if err := s.settle(); err != nil {
		return 0, err
	}
	cid := s.survivor.ID()
	if err := s.survivor.Close(); err != nil {
		return 0, err
	}
	if _, err := s.svc.RecoverClient(cid); err != nil {
		return 0, fmt.Errorf("recover survivor: %w", err)
	}
	return amp, nil
}

func (s *recoverInst) close() error { return closePoolFile(s.p, s.path) }
