package obs_test

import (
	"encoding/json"
	"runtime"
	"testing"
	"time"

	"repro/internal/obs"
)

// SnapshotOf names every counter and finishes every histogram: count,
// quantiles ordered and within the log2 bucket bound of the largest
// observation.
func TestSnapshotOfQuantiles(t *testing.T) {
	var ctrs [obs.NumCounters]uint64
	var histos [obs.NumHistos][obs.HistBuckets]uint64
	ctrs[obs.CtrAlloc], ctrs[obs.CtrFree] = 40000, 80000
	for j := 0; j < 40000; j++ {
		histos[obs.HistAllocNS][obs.BucketOf(int64(j%4096)+1)]++
	}
	snap := obs.SnapshotOf(&ctrs, &histos)
	if len(snap.Counters) != int(obs.NumCounters) || len(snap.Histograms) != int(obs.NumHistos) {
		t.Fatalf("snapshot names %d counters and %d histograms, want %d and %d",
			len(snap.Counters), len(snap.Histograms), obs.NumCounters, obs.NumHistos)
	}
	if got := snap.Counters[obs.CtrFree.Name()]; got != 80000 {
		t.Fatalf("free_ops = %d, want 80000", got)
	}
	h := snap.Histograms[obs.HistAllocNS.Name()]
	if h.Count != 40000 {
		t.Fatalf("histogram count = %d, want 40000", h.Count)
	}
	if h.P50NS == 0 || h.P99NS < h.P50NS || h.MaxNS < h.P99NS {
		t.Fatalf("nonsense quantiles: p50=%d p99=%d max=%d", h.P50NS, h.P99NS, h.MaxNS)
	}
	if h.MaxNS > 8192 {
		t.Fatalf("max %d exceeds bucket bound for observations <= 4096", h.MaxNS)
	}
	if e := snap.Histograms[obs.HistScanNS.Name()]; e.Count != 0 || e.Buckets != nil {
		t.Fatalf("empty histogram renders as %+v", e)
	}
}

func TestSnapshotSub(t *testing.T) {
	var ctrs [obs.NumCounters]uint64
	var histos [obs.NumHistos][obs.HistBuckets]uint64
	ctrs[obs.CtrAlloc] = 10
	histos[obs.HistAllocNS][obs.BucketOf(50)]++
	before := obs.SnapshotOf(&ctrs, &histos)
	ctrs[obs.CtrAlloc] += 7
	histos[obs.HistAllocNS][obs.BucketOf(50)]++
	histos[obs.HistAllocNS][obs.BucketOf(70)]++
	after := obs.SnapshotOf(&ctrs, &histos)
	d := after.Sub(before)
	if got := d.Counters[obs.CtrAlloc.Name()]; got != 7 {
		t.Fatalf("delta alloc = %d, want 7", got)
	}
	if h := d.Histograms[obs.HistAllocNS.Name()]; h.Count != 2 {
		t.Fatalf("delta histogram count = %d, want 2", h.Count)
	}
	// Subtracting a larger snapshot clamps at zero rather than wrapping.
	if d2 := before.Sub(after); d2.Counters[obs.CtrAlloc.Name()] != 0 {
		t.Fatalf("underflow not clamped: %d", d2.Counters[obs.CtrAlloc.Name()])
	}
}

func TestEventJSONAndString(t *testing.T) {
	e := obs.Event{
		Seq: 3, Time: time.Unix(1, 0), Type: obs.EvClientFenced,
		Client: 2, A: uint64(obs.FenceHeartbeat),
	}
	data, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if m["type"] != obs.EvClientFenced.String() {
		t.Fatalf("type marshalled as %v, want %q", m["type"], obs.EvClientFenced.String())
	}
	if e.String() == "" || obs.FenceHeartbeat.String() != "heartbeat-timeout" {
		t.Fatal("string forms missing")
	}
}

// Provenance must say how many CPUs produced the numbers.
func TestProvenanceStampsCPUs(t *testing.T) {
	prov := obs.CollectProvenance("test", "heap")
	if prov.NumCPU != runtime.NumCPU() || prov.GOMAXPROCS != runtime.GOMAXPROCS(0) || prov.NumCPU < 1 {
		t.Fatalf("provenance stamps num_cpu=%d gomaxprocs=%d, runtime says %d/%d",
			prov.NumCPU, prov.GOMAXPROCS, runtime.NumCPU(), runtime.GOMAXPROCS(0))
	}
}
