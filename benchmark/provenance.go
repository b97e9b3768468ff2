package main

import (
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// provenance says where a result's numbers came from — including the CPU
// count, which decides what "2 callers" means on the machine.
type provenance struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	Git        string `json:"git,omitempty"`

	Backend  string `json:"backend"`
	PoolDir  string `json:"pool_dir"`
	Geometry string `json:"geometry"`

	Seed     int64 `json:"seed"`
	Seconds  int   `json:"seconds"`
	Callers  int   `json:"callers"`
	Slices   int   `json:"slices"`
	SliceOps int   `json:"slice_ops"`

	RefKernel    string  `json:"ref_kernel"`
	RefNominalUS float64 `json:"ref_nominal_us"`
	RefMedianUS  float64 `json:"ref_median_us"`
	RefSpread    float64 `json:"ref_spread"`

	LoadavgBefore string `json:"loadavg_before"`
	LoadavgAfter  string `json:"loadavg_after"`

	// Per-slice series, for anyone who wants to see what calibration did.
	RefUS      []float64 `json:"ref_us,omitempty"`
	RawOpsPerS []float64 `json:"raw_ops_per_s,omitempty"`
	CalOpsPerS []float64 `json:"cal_ops_per_s,omitempty"`
	CalP50US   []float64 `json:"cal_p50_us,omitempty"`
	CalP99US   []float64 `json:"cal_p99_us,omitempty"`
	SetupS     []float64 `json:"setup_s,omitempty"`
	RawSetupS  []float64 `json:"raw_setup_s,omitempty"`
}

func loadavg() string {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(b))
}

func collectProvenance(w *workload, o options) *provenance {
	p := &provenance{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH,
		Backend: "mmap-file (cxl.MapDevice, MAP_SHARED)", PoolDir: o.outDir,
		Seed: o.seed, Seconds: o.seconds, Callers: w.callers, SliceOps: w.sliceOps * w.callers,
		LoadavgBefore: loadavg(),
	}
	// The driver's checkout is not a git repository; the stamp is then empty.
	if out, err := exec.Command("git", "describe", "--always", "--dirty").Output(); err == nil {
		p.Git = strings.TrimSpace(string(out))
	}
	return p
}

// finish stamps what is only known after the measured phase.
func (p *provenance) finish(l *leg, ref refKernel) {
	m := l.m
	p.Geometry = l.geometry
	p.Slices = len(m.slices)
	p.RefKernel, p.RefNominalUS = ref.name(), ref.nominalUS()
	p.RefMedianUS, p.RefSpread = median(m.refs), spread(m.refs)
	p.RefUS = m.refs
	p.CalOpsPerS, p.CalP50US, p.CalP99US, p.RawOpsPerS = m.series()
	p.SetupS, p.RawSetupS = l.setups, l.rawSetups
	p.LoadavgAfter = loadavg()
}
