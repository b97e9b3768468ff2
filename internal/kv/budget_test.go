package kv_test

import (
	"fmt"
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
// On the filled store it then prints and bounds a Get of every key (a hit),
// a Get of as many keys above them all (a miss, which stops at the bucket's
// first record) and a Delete of every key in ascending order (the bucket's
// last record each time), each bracketed or validated by the bucket's
// unlink word. Keys and store shape are fixed, so every count is
// deterministic.
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
	dev := p.Device()
	measure := func(into *tally, op func() error) {
		dev.ResetStats()
		if err := op(); err != nil {
			t.Fatal(err)
		}
		st := dev.Stats()
		into.ops++
		into.Loads += st.Loads
		into.Stores += st.Stores
		into.CASes += st.CASes
	}
	var empty, chain, hit, miss, del tally
	filled := make([]bool, buckets)
	val := make([]byte, 64)
	for k := uint64(0); k < n; k++ {
		b := kv.Partition(k, buckets, buckets)
		into := &chain
		if !filled[b] {
			into, filled[b] = &empty, true
		}
		val[0] = byte(k)
		measure(into, func() error { return s.Put(k, val) })
	}
	if got := s.Len(); got != n {
		t.Fatalf("store holds %d records, want %d", got, n)
	}
	for k := uint64(0); k < n; k++ {
		measure(&hit, func() error {
			_, err := s.Get(k, val)
			return err
		})
	}
	for k := uint64(n); k < 2*n; k++ {
		measure(&miss, func() error {
			if _, err := s.Get(k, val); err != kv.ErrNotFound {
				return fmt.Errorf("Get of absent key %d: %v, want ErrNotFound", k, err)
			}
			return nil
		})
	}
	for k := uint64(0); k < n; k++ {
		measure(&del, func() error { return s.Delete(k) })
	}
	// Budgets: measured + 5 %; the CAS are the allocator's segment claims, a
	// few over the whole run, and the delete's count changes.
	for _, leg := range []struct {
		name                        string
		t                           tally
		maxLoads, maxStores, maxCAS float64
	}{
		{"insert into an empty bucket", empty, 2.14, 26.29, 0.01},
		{"insert onto a chain", chain, 4.27, 27.34, 0.01},
		{"get hit", hit, 22.08, 0, 0},
		{"get miss", miss, 5.21, 0, 0},
		{"delete", del, 17.88, 10.53, 1.05},
	} {
		ops := float64(leg.t.ops)
		loads, stores, cas := float64(leg.t.Loads)/ops, float64(leg.t.Stores)/ops, float64(leg.t.CASes)/ops
		t.Logf("%s: %.3f loads, %.3f stores, %.4f CAS, %.3f device accesses/op",
			leg.name, loads, stores, cas, loads+stores+cas)
		if loads > leg.maxLoads || stores > leg.maxStores || cas > leg.maxCAS {
			t.Errorf("%s over budget: %.3f loads, %.3f stores, %.4f CAS (budget %.2f / %.2f / %.2f)",
				leg.name, loads, stores, cas, leg.maxLoads, leg.maxStores, leg.maxCAS)
		}
	}
	if got := s.Len(); got != 0 {
		t.Fatalf("store holds %d records after deleting every key", got)
	}
	s.Close()
	c.Close()
}
