package shm

import (
	"repro/internal/cxl"
	"repro/internal/layout"
	"repro/internal/obs"
)

// Provenance stamps an obs.Provenance with this pool's backend and
// geometry, so an exported snapshot says exactly what pool shape and data
// path produced its numbers.
func (p *Pool) Provenance(tool string) *obs.Provenance {
	prov := obs.CollectProvenance(tool, BackendName(p.dev))
	prov.LayoutVersion = layout.LayoutVersion
	prov.MaxClients = p.geo.MaxClients
	prov.NumSegments = p.geo.NumSegments
	prov.SegmentWords = p.geo.SegmentWords
	prov.PageWords = p.geo.PageWords
	prov.MaxQueues = p.geo.MaxQueues
	return prov
}

// BackendName identifies the device backend: "mmap" for a file-backed
// device, "heap" otherwise.
func BackendName(dev *cxl.Device) string {
	if dev.Path() != "" {
		return "mmap"
	}
	return "heap"
}
