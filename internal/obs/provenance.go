package obs

import (
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// Provenance stamps an exported telemetry snapshot (cxltop -once -json) with
// where its numbers came from: the tool and build that produced them, the
// device backend, and the pool geometry they were measured on. Geometry
// fields are filled by the caller (obs cannot import layout; see
// shm.Pool.Provenance).
type Provenance struct {
	Tool string `json:"tool"`
	Time string `json:"time"`
	Git  string `json:"git,omitempty"`
	Go   string `json:"go"`
	OS   string `json:"os"`
	Arch string `json:"arch"`
	// NumCPU and GOMAXPROCS say how many CPUs the numbers were measured on
	// (a scaling curve taken on one vCPU is time-slicing, not contention).
	NumCPU     int    `json:"num_cpu,omitempty"`
	GOMAXPROCS int    `json:"gomaxprocs,omitempty"`
	Backend    string `json:"backend,omitempty"`

	LayoutVersion uint64 `json:"layout_version,omitempty"`
	MaxClients    int    `json:"max_clients,omitempty"`
	NumSegments   int    `json:"num_segments,omitempty"`
	SegmentWords  uint64 `json:"segment_words,omitempty"`
	PageWords     uint64 `json:"page_words,omitempty"`
	MaxQueues     int    `json:"max_queues,omitempty"`
}

// CollectProvenance fills the build/environment fields. backend may be
// empty (the tool's default); geometry fields are left for the caller.
func CollectProvenance(tool, backend string) *Provenance {
	return &Provenance{
		Tool:       tool,
		Time:       time.Now().UTC().Format(time.RFC3339),
		Git:        gitDescribe(),
		Go:         runtime.Version(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Backend:    backend,
	}
}

// gitDescribe identifies the source revision: the build-info VCS stamp for
// installed binaries, falling back to asking git itself for `go run` builds
// (whose build info carries no VCS settings). Best-effort — an empty string
// means "unknown", never an error.
func gitDescribe() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "-dirty"
				}
			}
		}
		if rev != "" {
			if len(rev) > 12 {
				rev = rev[:12]
			}
			return rev + dirty
		}
	}
	out, err := exec.Command("git", "describe", "--always", "--dirty").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}
