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
	m := obs.New(shards, 8)
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
	m := obs.New(2, 8)
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
	var m *obs.Metrics
	m.Trace(obs.Event{Type: obs.EvScanStarted})
	if m.Shard(0) != nil {
		t.Fatal("nil metrics should hand out nil shards")
	}
	if s := m.Snapshot(); len(s.Counters) != 0 {
		t.Fatal("nil metrics snapshot should be empty")
	}
}

func TestTracerRingWraparound(t *testing.T) {
	tr := obs.NewTracer(4)
	for i := 1; i <= 10; i++ {
		tr.Record(obs.Event{Type: obs.EvScanStarted, Segment: i})
	}
	if tr.Total() != 10 {
		t.Fatalf("total = %d, want 10", tr.Total())
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("retained = %d, want ring capacity 4", len(evs))
	}
	for i, e := range evs {
		if want := 7 + i; e.Segment != want {
			t.Fatalf("event %d: segment %d, want %d (oldest-first order)", i, e.Segment, want)
		}
		if i > 0 && evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("sequence numbers not consecutive: %d after %d", evs[i].Seq, evs[i-1].Seq)
		}
		if e.Time.IsZero() {
			t.Fatalf("event %d: zero timestamp not stamped", i)
		}
	}
}

func TestTracerConcurrent(t *testing.T) {
	tr := obs.NewTracer(64)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				tr.Record(obs.Event{Type: obs.EvRedoReplayed})
			}
		}()
	}
	wg.Wait()
	if tr.Total() != 4000 {
		t.Fatalf("total = %d, want 4000", tr.Total())
	}
	evs := tr.Events()
	if len(evs) != 64 {
		t.Fatalf("retained = %d, want 64", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("retained window not contiguous at %d", i)
		}
	}
}

func TestSnapshotSub(t *testing.T) {
	m := obs.New(1, 8)
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
