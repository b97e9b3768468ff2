// Command benchmark is the repository's benchmark: four seeded workloads
// driven through the public functions of internal/serving, netrpc, kv, shm,
// recovery, check and cxl, with end-to-end metrics calibrated against a
// reference kernel and per-layer metrics from a separate traced run.
// See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]value

func (m metrics) set(name string, v float64, unit string) { m[name] = value{v, unit} }

// summary is the object on the last line of standard output: exactly these
// four keys.
type summary struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// result is what one run reports. The last line of standard output carries
// exactly Correct, Attempted, Failed and Metrics; the rest goes to the
// human-readable listing and to benchmark/out/result-<workload>.json.
type result struct {
	summary
	Workload   string      `json:"workload,omitempty"`
	Traced     bool        `json:"traced,omitempty"`
	Provenance *provenance `json:"provenance,omitempty"`
}

type options struct {
	workload  string
	seed      int64
	seconds   int
	trace     int
	selfcheck int
	outDir    string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+workloadNames())
	flag.Int64Var(&o.seed, "seed", 1, "input seed: the same seed gives the same op stream")
	flag.IntVar(&o.seconds, "seconds", 20, "length of the measured phase, seconds")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	flag.IntVar(&o.selfcheck, "selfcheck", 0, "run every workload N times in each of two alternating sets and compare them")
	flag.StringVar(&o.outDir, "out", "benchmark/out", "directory for pool files, traces and result files")
	flag.Parse()

	if o.selfcheck > 0 {
		if err := selfcheck(o); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: selfcheck:", err)
			os.Exit(1)
		}
		return
	}
	w := findWorkload(o.workload)
	if w == nil {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (want one of: %s)\n", o.workload, workloadNames())
		os.Exit(2)
	}
	if o.seconds < 1 || o.trace < 0 || o.trace > 1 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	res, err := runWorkload(w, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	// Outside a checkout (no BENCHMARK.json in the working directory) there
	// is nothing to check the metric list against.
	mf, err := readManifest()
	if err == nil {
		err = checkDeclared(mf, res)
	}
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	report(res, o)
	if !res.Correct {
		os.Exit(1)
	}
}

// report prints every metric by name and unit, saves the full result with
// its provenance, and ends standard output with the one-line JSON object the
// driver reads.
func report(res *result, o options) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("workload %s seed %d trace %d: attempted %d failed %d correct %v\n",
		res.Workload, o.seed, o.trace, res.Attempted, res.Failed, res.Correct)
	for _, n := range names {
		v := res.Metrics[n]
		fmt.Printf("  %-28s %16.6g %s\n", n, v.Value, v.Unit)
	}
	if full, err := json.MarshalIndent(res, "", "  "); err == nil {
		kind := "result"
		if res.Traced {
			kind = "layers"
		}
		path := filepath.Join(o.outDir, kind+"-"+res.Workload+".json")
		if err := os.WriteFile(path, append(full, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: saving result:", err)
		}
	}
	line, err := json.Marshal(res.summary)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// runWorkload performs one run: the end-to-end run with tracing off, or the
// traced run that yields the per-layer metrics.
func runWorkload(w *workload, o options) (*result, error) {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	if o.trace == 1 {
		return runTraced(w, o)
	}
	prov := collectProvenance(w, o)
	ref, err := newRef(w)
	if err != nil {
		return nil, err
	}
	defer ref.close()
	l, err := runLeg(w, o, ref, false, w.setups, time.Duration(o.seconds)*time.Second, nil, 0)
	if err != nil {
		return nil, err
	}
	res := &result{
		summary:  summary{Correct: l.correct(), Attempted: l.m.attempted, Failed: l.m.failed, Metrics: metrics{}},
		Workload: w.name, Provenance: prov,
	}
	ops, p50, p99, _ := l.m.series()
	res.Metrics.set("setup_s", median(l.setups), "s")
	res.Metrics.set("ops_per_s", median(ops), "1/s")
	res.Metrics.set("op_p50_us", median(p50), "us")
	res.Metrics.set("op_p99_us", median(p99), "us")
	prov.finish(l, ref)
	return res, nil
}

func newRef(w *workload) (refKernel, error) {
	if w.netRef {
		return newRefNet(w.callers)
	}
	return newRefCPU(), nil
}
