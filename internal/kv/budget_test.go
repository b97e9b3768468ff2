package kv_test

import (
	"testing"

	"repro/internal/cxl"
	"repro/internal/kv"
	"repro/internal/layout"
	"repro/internal/shm"
)

// TestInsertAccessBudget prints the device loads, stores and CAS of one
// insert — the walk to the key's place, Malloc, key/value/version and the
// link — into an empty bucket and onto a chain, filling a 4 096-bucket store
// to four records a bucket, and fails above the budget. Keys go in ascending,
// so each insert's walk stops at the bucket's first record. An insert changes
// no object's count, so it runs no CAS: the link is one move transaction.
// Keys and store shape are fixed, so every count is deterministic.
func TestInsertAccessBudget(t *testing.T) {
	p, err := shm.NewPool(shm.Config{
		Geometry: layout.GeometryConfig{
			MaxClients: 8, NumSegments: 64, SegmentWords: 1 << 15, PageWords: 1 << 11,
		},
		CountAccesses: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.CloseDevice()
	c := connect(t, p)
	const buckets, n = 4096, 4 * 4096
	s, err := kv.Create(c, 0, buckets, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	type tally struct {
		ops int
		cxl.Stats
	}
	var empty, chain tally
	filled := make([]bool, buckets)
	val := make([]byte, 64)
	dev := p.Device()
	for k := uint64(0); k < n; k++ {
		b := kv.Partition(k, buckets, buckets)
		into := &chain
		if !filled[b] {
			into, filled[b] = &empty, true
		}
		val[0] = byte(k)
		dev.ResetStats()
		if err := s.Put(k, val); err != nil {
			t.Fatal(err)
		}
		st := dev.Stats()
		into.ops++
		into.Loads += st.Loads
		into.Stores += st.Stores
		into.CASes += st.CASes
	}
	// Budgets: measured + 5 %; the CAS are the allocator's segment claims, a
	// few over the whole run.
	for _, leg := range []struct {
		name                string
		t                   tally
		maxLoads, maxStores float64
	}{
		{"into an empty bucket", empty, 4.24, 26.29},
		{"onto a chain", chain, 6.37, 27.34},
	} {
		ops := float64(leg.t.ops)
		loads, stores, cas := float64(leg.t.Loads)/ops, float64(leg.t.Stores)/ops, float64(leg.t.CASes)/ops
		t.Logf("insert %s: %.3f loads, %.3f stores, %.4f CAS, %.3f device accesses/op",
			leg.name, loads, stores, cas, loads+stores+cas)
		if loads > leg.maxLoads || stores > leg.maxStores || cas > 0.01 {
			t.Errorf("insert %s over budget: %.3f loads, %.3f stores, %.4f CAS (budget %.2f / %.2f / 0.01)",
				leg.name, loads, stores, cas, leg.maxLoads, leg.maxStores)
		}
	}
	if got := s.Len(); got != n {
		t.Fatalf("store holds %d records, want %d", got, n)
	}
	s.Close()
	c.Close()
}
