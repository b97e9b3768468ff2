package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/check"
	"repro/internal/layout"
	"repro/internal/shm"
)

// ---- statistics ----------------------------------------------------------

func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(v, n=4) does (exclusive method), which is what the
// builder's driver computes spreads with.
func quartiles(v []float64) (q1, q3 float64) {
	s := slices.Clone(v)
	slices.Sort(s)
	at := func(p float64) float64 {
		pos := p * float64(len(s)+1)
		j := int(math.Floor(pos))
		if j < 1 {
			return s[0]
		}
		if j >= len(s) {
			return s[len(s)-1]
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return at(0.25), at(0.75)
}

// spread is the quartile distance as a share of the median.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	q1, q3 := quartiles(v)
	return (q3 - q1) / median(v)
}

var errFewSamples = errors.New("percentile needs at least 10 samples beyond it")

// percentile picks quantile q from ascending latencies, refusing one with
// fewer than ten samples beyond it: the tail of a small slice is noise.
func percentile(sorted []int64, q float64) (int64, error) {
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if len(sorted)-1-idx < 10 {
		return 0, fmt.Errorf("p%g of %d samples: %w", q*100, len(sorted), errFewSamples)
	}
	return sorted[idx], nil
}

// ---- calibration ---------------------------------------------------------

// sliceFactors turns reference samples into one factor per slice. Slice i
// ran between refs[before[i]] and refs[before[i]+1]; consecutive slices of
// one set-up share the sample between them. Slice i's factor is nominal over
// the median of the samples bracketing slices i-2..i+2: five neighbours make
// the reference itself robust to a dip that hits one sample and not the
// slice.
func sliceFactors(refs []float64, before []int, nominal float64) []float64 {
	n := len(before)
	f := make([]float64, n)
	for i := range f {
		lo, hi := max(i-2, 0), min(i+2, n-1)
		f[i] = nominal / median(refs[before[lo]:before[hi]+2])
	}
	return f
}

// ---- workloads -----------------------------------------------------------

// workload is one benchmark workload: its load shape and how to build it.
type workload struct {
	name, why string
	netRef    bool // calibrate with ref.net (socket workloads), else ref.cpu
	callers   int  // closed-loop callers
	sliceOps  int  // timed ops per caller per slice (>= 1000)
	setups    int  // set-ups per run: setup_s is their median, the last one is measured
	setup     func(w *workload, e *env) (instance, error)
}

// instance is one set-up workload, ready to run slices.
type instance interface {
	// prepare generates slice k's inputs and does any untimed work the
	// slice's ops need done first. Runs on the harness goroutine.
	prepare(k int) error
	// run executes caller c's share of slice k, filling lat with one
	// latency per op (failed ops: math.MaxInt64) and, when starts is
	// non-nil, the op start times in ns since the slice began. It returns
	// the time the caller was busy with timed work and how many ops failed.
	run(c, k int, t0 time.Time, lat, starts []int64) (busy time.Duration, failed int)
	// verify checks slice k's effects. Runs on the harness goroutine.
	verify(k int) error
	// finish runs the workload's epilogue checks and reports the space
	// amplification it saw (see spaceAmp).
	finish() (spaceAmp float64, err error)
	pool() *shm.Pool
	// close tears everything down, removing the pool file.
	close() error
}

// spaceAmp is bytes of non-free segments over bytes of live user data.
func spaceAmp(p *shm.Pool, liveBytes int64) float64 {
	u := p.Usage()
	segBytes := float64(p.Geometry().SegmentWords) * 8
	return float64(u.SegmentsActive+u.SegmentsAbandoned+u.SegmentsHuge) * segBytes / float64(liveBytes)
}

// newPoolFile creates a file-backed pool under e.dir.
func newPoolFile(e *env, name string, geo layout.GeometryConfig) (*shm.Pool, string, error) {
	if err := os.MkdirAll(e.dir, 0o755); err != nil {
		return nil, "", err
	}
	path := filepath.Join(e.dir, fmt.Sprintf("%s-%d.cxl", name, os.Getpid()))
	os.Remove(path) // a previous set-up of this run, or a crashed run's leftover
	p, err := shm.NewPool(shm.Config{Geometry: geo, File: path, CountAccesses: e.counting})
	if err != nil {
		return nil, "", fmt.Errorf("create pool %s: %w", path, err)
	}
	return p, path, nil
}

// closePoolFile unmaps and removes a pool file.
func closePoolFile(p *shm.Pool, path string) error {
	err := p.CloseDevice()
	if rmErr := os.Remove(path); err == nil {
		err = rmErr
	}
	return err
}

// validate runs the pool-wide consistency check (the correctness gate).
func validate(p *shm.Pool) (issues int, ms float64) {
	t0 := time.Now()
	res := check.Validate(p)
	return len(res.Issues), float64(time.Since(t0).Nanoseconds()) / 1e6
}

// env is what a set-up runs in.
type env struct {
	seed     int64
	round    int    // which of the run's set-ups this is
	counting bool   // traced leg: device access counting on
	dir      string // where pool files go (inside the checkout)
	cpu      *refCPU

	// Set-up is timed in chunks, each bracketed by ref.cpu samples.
	lastRef, chunkT0 float64
	rawS, calS       float64
}

// rng returns the generator for one input stream of this set-up: every
// set-up of a run, and every caller in it, draws its own sequence from the
// run's seed.
func (e *env) rng(stream int) *rng { return newRNG(e.seed, uint64(e.round)<<8|uint64(stream)) }

func nowS() float64 { return float64(time.Now().UnixNano()) / 1e9 }

// beginSetup starts set-up timing.
func (e *env) beginSetup() {
	e.rawS, e.calS = 0, 0
	e.lastRef = e.cpu.run()
	e.chunkT0 = nowS()
}

// chunk closes the set-up chunk that just ran: its wall time is scaled by
// the ref.cpu samples on either side of it.
func (e *env) chunk() {
	dt := nowS() - e.chunkT0
	ref := e.cpu.run()
	e.rawS += dt
	e.calS += dt * refCPUNominalUS / ((e.lastRef + ref) / 2)
	e.lastRef = ref
	e.chunkT0 = nowS()
}

// sliceStat is one slice as measured, before calibration.
type sliceStat struct {
	ops      int     // ops completed without failure
	failed   int     // ops that errored, were refused or returned wrong bytes
	busyS    float64 // longest caller busy time
	p50, p99 float64 // µs
}

// measurement is the measured phase of one run.
type measurement struct {
	slices            []sliceStat
	refs              []float64 // reference samples, µs
	before            []int     // per slice: index in refs of the sample taken just before it
	factors           []float64
	attempted, failed int
	spent             time.Duration // time spent measuring so far
}

// series returns the per-slice series: calibrated ops/s, p50 and p99, and
// the raw ops/s they were scaled from.
func (m *measurement) series() (opsPerS, p50, p99, rawOpsPerS []float64) {
	for i, s := range m.slices {
		f := m.factors[i]
		raw := float64(s.ops) / s.busyS
		rawOpsPerS = append(rawOpsPerS, raw)
		opsPerS = append(opsPerS, raw/f)
		p50 = append(p50, s.p50*f)
		p99 = append(p99, s.p99*f)
	}
	return
}

// runCallers runs f for every caller at once and sums what they return.
func runCallers(callers int, f func(c int) int) int {
	out := make([]int, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			out[c] = f(c)
		}(c)
	}
	wg.Wait()
	sum := 0
	for _, n := range out {
		sum += n
	}
	return sum
}

// minSlices is the least number of slices a run measures, whatever
// -seconds says: fewer make the five-neighbour reference smoothing and the
// slice medians meaningless.
const minSlices = 8

// measure runs slices on inst until the run has measured for `until` in
// total (at least `least` slices here), sampling the reference kernel
// between them, and appends them to m. All callers run slice k together behind a barrier; the garbage
// collector runs between slices, outside the timed region.
func measure(w *workload, inst instance, ref refKernel, m *measurement, until time.Duration, least int, tr *tracer, parent int) error {
	lat := make([][]int64, w.callers)
	starts := make([][]int64, w.callers)
	for c := range lat {
		lat[c] = make([]int64, w.sliceOps)
		if tr != nil {
			starts[c] = make([]int64, w.sliceOps)
		}
	}
	merged := make([]int64, 0, w.callers*w.sliceOps)
	busy := make([]time.Duration, w.callers)
	failed := make([]int, w.callers)

	r, err := ref.sample()
	if err != nil {
		return err
	}
	m.refs = append(m.refs, r)
	begin := time.Now()
	defer func() { m.spent += time.Since(begin) }()
	for k := 0; k < least || m.spent+time.Since(begin) < until; k++ {
		if err := inst.prepare(k); err != nil {
			return fmt.Errorf("slice %d: prepare: %w", k, err)
		}
		runtime.GC()
		t0 := time.Now()
		runCallers(w.callers, func(c int) int {
			busy[c], failed[c] = inst.run(c, k, t0, lat[c], starts[c])
			return failed[c]
		})
		t1 := time.Now()
		if err := inst.verify(k); err != nil {
			return fmt.Errorf("slice %d: verify: %w", k, err)
		}

		var st sliceStat
		merged = merged[:0]
		for c := 0; c < w.callers; c++ {
			st.failed += failed[c]
			if b := busy[c].Seconds(); b > st.busyS {
				st.busyS = b
			}
			merged = append(merged, lat[c]...)
		}
		st.ops = len(merged) - st.failed
		slices.Sort(merged)
		p50, err := percentile(merged, 0.50)
		if err != nil {
			return err
		}
		p99, err := percentile(merged, 0.99)
		if err != nil {
			return err
		}
		st.p50, st.p99 = float64(p50)/1e3, float64(p99)/1e3
		m.slices = append(m.slices, st)
		m.before = append(m.before, len(m.refs)-1)
		m.attempted += len(merged)
		m.failed += st.failed

		if tr != nil { // op spans need the start times only a traced run records
			sl := tr.add(fmt.Sprintf("slice[%d]", k), parent, t0, t1)
			for c := 0; c < w.callers; c++ {
				for i := 0; i < len(lat[c]); i += traceOpEvery {
					s := t0.Add(time.Duration(starts[c][i]))
					tr.add(w.name+".op", sl, s, s.Add(time.Duration(lat[c][i])))
				}
			}
		}

		if r, err = ref.sample(); err != nil {
			return err
		}
		m.refs = append(m.refs, r)
	}
	return nil
}
