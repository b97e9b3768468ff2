package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// manifest is the part of BENCHMARK.json the benchmark itself reads: the
// run length, and the metrics it promises with their directions and bounds.
type manifest struct {
	RunSeconds int              `json:"run_seconds"`
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// readManifest loads BENCHMARK.json from the working directory (the root of
// the checkout, where the command is run from).
func readManifest() (*manifest, error) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var mf manifest
	if err := json.Unmarshal(data, &mf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &mf, nil
}

// checkDeclared verifies that a run reports exactly the metrics
// BENCHMARK.json declares for its kind, with the declared units: the driver
// refuses anything else, and a silent drift between the two is the easiest
// mistake to make when a metric is added.
func checkDeclared(mf *manifest, res *result) error {
	declared := mf.EndToEnd
	if res.Traced {
		declared = mf.PerLayer
	}
	if len(declared) != len(res.Metrics) {
		return fmt.Errorf("run reports %d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(declared))
	}
	for _, d := range declared {
		got, ok := res.Metrics[d.Name]
		if !ok {
			return fmt.Errorf("BENCHMARK.json declares %s, the run does not report it", d.Name)
		}
		if got.Unit != d.Unit {
			return fmt.Errorf("%s: reported in %s, declared in %s", d.Name, got.Unit, d.Unit)
		}
	}
	return nil
}

// selfcheck runs every workload N times in each of two alternating sets,
// A and B, of the same code — each run a fresh process with a seed of its
// own, as the builder's driver does — and compares the sets. It fails when
// an end-to-end metric's set medians differ by more than the metric's
// bound, or when the spread of the 2N runs taken together exceeds it (with
// N = 5 that is the driver's own sample of ten; a set of five alone has
// quartiles that sit on its extremes). Every run's values are printed too.
func selfcheck(o options) error {
	mf, err := readManifest()
	if err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	ok := true
	var table, runs bytes.Buffer
	fmt.Fprintf(&table, "| workload | metric | median A | median B | B vs A | spread A | spread B | spread A∪B | bound | verdict |\n")
	fmt.Fprintf(&table, "|---|---|---|---|---|---|---|---|---|---|\n")
	for _, w := range workloads {
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < 2*o.selfcheck; i++ {
			cmd := exec.Command(self, "-workload", w.name, "-seed", strconv.Itoa(i+1),
				"-seconds", strconv.Itoa(mf.RunSeconds), "-trace", "0", "-out", o.outDir)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s run %d: %w", w.name, i, err)
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var res result
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				return fmt.Errorf("%s run %d: result line: %w", w.name, i, err)
			}
			if !res.Correct || res.Failed != 0 {
				return fmt.Errorf("%s run %d: correct=%v failed=%d", w.name, i, res.Correct, res.Failed)
			}
			fmt.Fprintf(&runs, "%s %c seed %d:", w.name, 'A'+i%2, i+1)
			for _, m := range mf.EndToEnd {
				v := res.Metrics[m.Name].Value
				sets[i%2][m.Name] = append(sets[i%2][m.Name], v)
				fmt.Fprintf(&runs, " %s %.6g", m.Name, v)
			}
			fmt.Fprintln(&runs)
		}
		for _, m := range mf.EndToEnd {
			a, b := sets[0][m.Name], sets[1][m.Name]
			ma, mb := median(a), median(b)
			worse := (mb - ma) / ma // how much worse B is than A
			if m.Better == "higher" {
				worse = -worse
			}
			pooled := spread(append(append([]float64(nil), a...), b...))
			verdict := "ok"
			// Set-up time is exempt from the spread rule, as in the driver.
			if math.Abs(worse) > m.Bound || (m.Name != "setup_s" && pooled > m.Bound) {
				verdict, ok = "FAIL", false
			}
			fmt.Fprintf(&table, "| %s | %s (%s) | %.6g | %.6g | %+.2f%% | %.2f%% | %.2f%% | %.2f%% | %.0f%% | %s |\n",
				w.name, m.Name, m.Unit, ma, mb, 100*(mb-ma)/ma, 100*spread(a), 100*spread(b), 100*pooled, 100*m.Bound, verdict)
		}
	}
	fmt.Print(table.String(), "\n", runs.String())
	if !ok {
		return fmt.Errorf("two sets of runs of the same code disagree by more than the benchmark's own bounds")
	}
	return nil
}
