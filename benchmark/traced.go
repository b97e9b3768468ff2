package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/cxl"
	"repro/internal/obs"
)

// leg is one set-up → measure → check → tear-down pass over a workload.
type leg struct {
	m                 *measurement
	setups, rawSetups []float64 // calibrated and raw seconds, one per set-up
	geometry          string
	spaceAmp          float64
	finishErr         error
	issues            int
	validateMS        float64

	// Deltas over the measured phases.
	dev      cxl.Stats
	counters map[string]uint64
	gcCycles uint32
	gcPause  time.Duration
	heapSys  uint64
}

func (l *leg) correct() bool { return l.finishErr == nil && l.issues == 0 && l.m.failed == 0 }

// runLeg sets the workload up `repeats` times and gives each set-up an
// equal share of budget to be measured in (a set-up that overruns its share
// shortens the next one's), so that a run's medians average
// over several placements of the pool in memory instead of inheriting the
// luck of one (on shm-churn one placement's p50 differed from the next's by
// up to 20 %, for a whole run). Each set-up ends with the output checks and
// its tear-down. counting turns the device's access counters on; tr, when
// set, receives spans.
func runLeg(w *workload, o options, ref refKernel, counting bool, repeats int, budget time.Duration, tr *tracer, parent int) (*leg, error) {
	l := &leg{m: &measurement{}, counters: map[string]uint64{}}
	e := &env{seed: o.seed, counting: counting, dir: o.outDir, cpu: newRefCPU()}
	share := budget / time.Duration(repeats)
	minShare := (minSlices + repeats - 1) / repeats
	for e.round = 0; e.round < repeats; e.round++ {
		sp := tr.open("setup", parent)
		inst, err := w.setup(w, e)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		tr.done(sp)
		l.setups = append(l.setups, e.calS)
		l.rawSetups = append(l.rawSetups, e.rawS)

		p := inst.pool()
		geo := p.Geometry()
		l.geometry = fmt.Sprintf("%d segments x %d words, %d client slots", geo.NumSegments, geo.SegmentWords, geo.MaxClients)
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		dev0, obs0 := p.Device().Stats(), p.Obs().Snapshot()
		mp := tr.open("measure", parent)
		if err := measure(w, inst, ref, l.m, share*time.Duration(e.round+1), minShare, tr, mp); err != nil {
			inst.close()
			return nil, err
		}
		tr.done(mp)
		dev1, obs1 := p.Device().Stats(), p.Obs().Snapshot()
		runtime.ReadMemStats(&ms1)
		l.dev.Loads += dev1.Loads - dev0.Loads
		l.dev.Stores += dev1.Stores - dev0.Stores
		l.dev.CASes += dev1.CASes - dev0.CASes
		for name, v := range obs1.Sub(obs0).Counters {
			l.counters[name] += v
		}
		l.gcCycles += ms1.NumGC - ms0.NumGC
		l.gcPause += time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
		l.heapSys = ms1.HeapSys

		amp, ferr := inst.finish()
		issues, ms := validate(p)
		if ferr != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: output check failed: %v\n", w.name, ferr)
			l.finishErr = ferr
		}
		if issues > 0 {
			fmt.Fprintf(os.Stderr, "benchmark: %s: check.Validate found %d issues\n", w.name, issues)
		}
		l.spaceAmp, l.validateMS, l.issues = amp, ms, l.issues+issues
		if err := inst.close(); err != nil {
			return nil, fmt.Errorf("tear-down: %w", err)
		}
	}
	l.m.factors = sliceFactors(l.m.refs, l.m.before, ref.nominalUS())
	return l, nil
}

// runTraced is the traced run. It measures the workload twice — tracing
// off, then with device access counting on and spans recorded — so that the
// tracing overhead is the difference between the two, replays nothing else,
// and then probes each layer directly. The end-to-end numbers always come
// from the run with tracing off (-trace 0).
func runTraced(w *workload, o options) (*result, error) {
	prov := collectProvenance(w, o)
	ref, err := newRef(w)
	if err != nil {
		return nil, err
	}
	defer ref.close()
	tr := newTracer()
	root := tr.open("run:"+w.name, 0)
	budget := time.Duration(o.seconds) * time.Second

	plain, err := runLeg(w, o, ref, false, 1, budget*2/5, nil, 0)
	if err != nil {
		return nil, fmt.Errorf("untraced leg: %w", err)
	}
	tp := tr.open("traced-leg", root)
	traced, err := runLeg(w, o, ref, true, 1, budget*2/5, tr, tp)
	if err != nil {
		return nil, fmt.Errorf("traced leg: %w", err)
	}
	tr.done(tp)

	res := &result{
		summary: summary{
			Correct:   plain.correct() && traced.correct(),
			Attempted: plain.m.attempted + traced.m.attempted,
			Failed:    plain.m.failed + traced.m.failed,
			Metrics:   metrics{},
		},
		Workload: w.name, Traced: true, Provenance: prov,
	}
	M := res.Metrics

	// Harness rows: what calibration did, and what tracing cost.
	ops, p50, p99, rawOps := plain.m.series()
	tracedOps, _, _, _ := traced.m.series()
	var rawP50, rawP99 []float64
	for _, s := range plain.m.slices {
		rawP50 = append(rawP50, s.p50)
		rawP99 = append(rawP99, s.p99)
	}
	M.set("raw.ops_per_s", median(rawOps), "1/s")
	M.set("raw.op_p50_us", median(rawP50), "us")
	M.set("raw.op_p99_us", median(rawP99), "us")
	M.set("raw.setup_s", median(plain.rawSetups), "s")
	M.set("cal.ops_per_s", median(ops), "1/s")
	M.set("cal.op_p50_us", median(p50), "us")
	M.set("cal.op_p99_us", median(p99), "us")
	M.set("ref.spread", spread(plain.m.refs), "ratio")
	M.set("slice.spread", spread(ops), "ratio")
	M.set("trace.overhead_frac", 1-median(tracedOps)/median(ops), "ratio")

	// Counter rows, from the traced leg's op stream.
	nops := float64(traced.m.attempted)
	acc := float64(traced.dev.Loads + traced.dev.Stores + traced.dev.CASes)
	M.set("cxl.acc_per_op", acc/nops, "count")
	M.set("cxl.cas_share", float64(traced.dev.CASes)/acc, "ratio")
	M.set("shm.cas_retry_per_kop", 1000*float64(traced.counters[obs.CtrCASRetry.Name()])/nops, "count")
	M.set("shm.era_bumps_per_op", float64(traced.counters[obs.CtrEraBump.Name()])/nops, "count")
	M.set("shm.space_amp", traced.spaceAmp, "ratio")
	M.set("check.validate_ms", traced.validateMS, "ms")
	M.set("check.issues", float64(plain.issues+traced.issues), "count")
	M.set("go.gc_cycles", float64(traced.gcCycles), "count")
	M.set("go.gc_pause_ms", float64(traced.gcPause.Nanoseconds())/1e6, "ms")
	M.set("go.heap_mb_peak", float64(traced.heapSys)/(1<<20), "MB")

	pp := tr.open("probes", root)
	if err := runProbes(o, tr, pp, M); err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	tr.done(pp)
	tr.done(root)
	if err := tr.write(filepath.Join(o.outDir, "trace-"+w.name+".json")); err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}
	prov.finish(plain, ref)
	return res, nil
}
