package obs_test

import (
	"encoding/json"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestCountersConcurrent(t *testing.T) {
	const shards, perShard = 4, 10000
	m := obs.NewRegistry(shards)
	var wg sync.WaitGroup
	for i := 0; i < shards; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sh := m.Shard(i)
			for j := 0; j < perShard; j++ {
				sh.Inc(obs.CtrAlloc)
				sh.Add(obs.CtrFree, 2)
				sh.Observe(obs.HistAllocNS, int64(j%4096)+1)
			}
		}(i)
	}
	wg.Wait()
	snap := m.Snapshot()
	if got := snap.Counters[obs.CtrAlloc.Name()]; got != shards*perShard {
		t.Fatalf("alloc_ops = %d, want %d", got, shards*perShard)
	}
	if got := snap.Counters[obs.CtrFree.Name()]; got != 2*shards*perShard {
		t.Fatalf("free_ops = %d, want %d", got, 2*shards*perShard)
	}
	h := snap.Histograms[obs.HistAllocNS.Name()]
	if h.Count != shards*perShard {
		t.Fatalf("histogram count = %d, want %d", h.Count, shards*perShard)
	}
	if h.P50NS == 0 || h.P99NS < h.P50NS || h.MaxNS < h.P99NS {
		t.Fatalf("nonsense quantiles: p50=%d p99=%d max=%d", h.P50NS, h.P99NS, h.MaxNS)
	}
	if h.MaxNS > 8192 {
		t.Fatalf("max %d exceeds bucket bound for observations <= 4096", h.MaxNS)
	}
}

// Snapshots taken while writers are running must be internally consistent:
// every counter monotonically non-decreasing across successive snapshots.
func TestSnapshotWhileWriting(t *testing.T) {
	m := obs.NewRegistry(2)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		sh := m.Shard(1)
		for {
			select {
			case <-stop:
				return
			default:
				sh.Inc(obs.CtrAlloc)
				sh.Inc(obs.CtrFree)
				sh.Observe(obs.HistScanNS, 100)
			}
		}
	}()
	var prev obs.Snapshot
	for i := 0; i < 200; i++ {
		snap := m.Snapshot()
		for name, v := range prev.Counters {
			if snap.Counters[name] < v {
				t.Fatalf("counter %s went backwards: %d -> %d", name, v, snap.Counters[name])
			}
		}
		ph := prev.Histograms[obs.HistScanNS.Name()]
		if h := snap.Histograms[obs.HistScanNS.Name()]; h.Count < ph.Count {
			t.Fatalf("histogram count went backwards: %d -> %d", ph.Count, h.Count)
		}
		prev = snap
	}
	close(stop)
	wg.Wait()
}

func TestNilShardSafe(t *testing.T) {
	var sh *obs.Shard
	sh.Inc(obs.CtrAlloc)
	sh.Add(obs.CtrFree, 3)
	sh.Observe(obs.HistAllocNS, 10)
	if sh.Get(obs.CtrAlloc) != 0 {
		t.Fatal("nil shard should read 0")
	}
	var r *obs.Registry
	if r.Shard(0) != nil {
		t.Fatal("nil registry should hand out nil shards")
	}
	if s := r.Snapshot(); len(s.Counters) != 0 {
		t.Fatal("nil registry snapshot should be empty")
	}
}

func TestSnapshotSub(t *testing.T) {
	m := obs.NewRegistry(1)
	sh := m.Shard(0)
	sh.Add(obs.CtrAlloc, 10)
	sh.Observe(obs.HistAllocNS, 50)
	before := m.Snapshot()
	sh.Add(obs.CtrAlloc, 7)
	sh.Observe(obs.HistAllocNS, 50)
	sh.Observe(obs.HistAllocNS, 70)
	d := m.Snapshot().Sub(before)
	if got := d.Counters[obs.CtrAlloc.Name()]; got != 7 {
		t.Fatalf("delta alloc = %d, want 7", got)
	}
	if h := d.Histograms[obs.HistAllocNS.Name()]; h.Count != 2 {
		t.Fatalf("delta histogram count = %d, want 2", h.Count)
	}
	// Subtracting a larger snapshot clamps at zero rather than wrapping.
	if d2 := before.Sub(m.Snapshot()); d2.Counters[obs.CtrAlloc.Name()] != 0 {
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
