package kv_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/check"
	"repro/internal/kv"
	"repro/internal/layout"
	"repro/internal/recovery"
	"repro/internal/shm"
)

func newPool(t *testing.T) *shm.Pool {
	t.Helper()
	p, err := shm.NewPool(shm.Config{Geometry: layout.GeometryConfig{
		MaxClients: 8, NumSegments: 32, SegmentWords: 1 << 13, PageWords: 1 << 9,
	}})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func connect(t *testing.T, p *shm.Pool) *shm.Client {
	t.Helper()
	c, err := p.Connect()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func mustClean(t *testing.T, p *shm.Pool) *check.Result {
	t.Helper()
	res := check.Validate(p)
	if !res.Clean() {
		for _, is := range res.Issues {
			t.Errorf("validate: %s", is)
		}
		t.FailNow()
	}
	return res
}

func TestPutGetDeleteRoundTrip(t *testing.T) {
	p := newPool(t)
	c := connect(t, p)
	s, err := kv.Create(c, 0, 64, 32, 1)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 32)

	if _, err := s.Get(1, buf); err != kv.ErrNotFound {
		t.Fatalf("missing key: %v", err)
	}
	if err := s.Put(1, []byte("one")); err != nil {
		t.Fatal(err)
	}
	n, err := s.Get(1, buf)
	if err != nil || !bytes.Equal(buf[:3], []byte("one")) {
		t.Fatalf("get: %d %q %v", n, buf[:3], err)
	}
	// In-place update.
	if err := s.Put(1, []byte("ONE")); err != nil {
		t.Fatal(err)
	}
	s.Get(1, buf)
	if !bytes.Equal(buf[:3], []byte("ONE")) {
		t.Fatalf("update: %q", buf[:3])
	}
	if err := s.Delete(1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(1, buf); err != kv.ErrNotFound {
		t.Fatalf("after delete: %v", err)
	}
	if err := s.Delete(1); err != kv.ErrNotFound {
		t.Fatalf("double delete: %v", err)
	}
	mustClean(t, p)
}

func TestChainsAndCollisions(t *testing.T) {
	p := newPool(t)
	c := connect(t, p)
	// 4 buckets force heavy chaining with 200 keys.
	s, err := kv.Create(c, 0, 4, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 200; k++ {
		if err := s.Put(k, []byte(fmt.Sprintf("v%03d", k))); err != nil {
			t.Fatalf("put %d: %v", k, err)
		}
	}
	if s.Len() != 200 {
		t.Fatalf("len=%d, want 200", s.Len())
	}
	buf := make([]byte, 16)
	for k := uint64(0); k < 200; k++ {
		if _, err := s.Get(k, buf); err != nil {
			t.Fatalf("get %d: %v", k, err)
		}
		if !bytes.Equal(buf[:4], []byte(fmt.Sprintf("v%03d", k))) {
			t.Fatalf("key %d: %q", k, buf[:4])
		}
	}
	// Delete every third key (head, middle, tail positions all occur).
	for k := uint64(0); k < 200; k += 3 {
		if err := s.Delete(k); err != nil {
			t.Fatalf("delete %d: %v", k, err)
		}
	}
	for k := uint64(0); k < 200; k++ {
		_, err := s.Get(k, buf)
		if k%3 == 0 && err != kv.ErrNotFound {
			t.Fatalf("deleted key %d still present: %v", k, err)
		}
		if k%3 != 0 && err != nil {
			t.Fatalf("surviving key %d lost: %v", k, err)
		}
	}
	mustClean(t, p)
}

func TestValueSizeEnforced(t *testing.T) {
	p := newPool(t)
	c := connect(t, p)
	s, _ := kv.Create(c, 0, 8, 8, 1)
	if err := s.Put(1, make([]byte, 9)); err != kv.ErrValueSize {
		t.Fatalf("oversize put: %v", err)
	}
}

func TestOpenSharesTheIndex(t *testing.T) {
	p := newPool(t)
	w := connect(t, p)
	r := connect(t, p)
	sw, err := kv.Create(w, 0, 32, 16, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Put(7, []byte("from-w")); err != nil {
		t.Fatal(err)
	}
	sr, err := kv.Open(r, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sr.ValueSize() != 16 || sr.Writers() != 2 {
		t.Fatalf("opened store params: %d %d", sr.ValueSize(), sr.Writers())
	}
	buf := make([]byte, 16)
	if _, err := sr.Get(7, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf[:6], []byte("from-w")) {
		t.Fatalf("reader sees %q", buf[:6])
	}
	// Writer updates in place; reader observes without any coordination.
	if err := sw.Put(7, []byte("update")); err != nil {
		t.Fatal(err)
	}
	sr.Get(7, buf)
	if !bytes.Equal(buf[:6], []byte("update")) {
		t.Fatalf("reader sees stale %q", buf[:6])
	}
}

func TestStoreSurvivesAllClientsViaNamedRoot(t *testing.T) {
	p := newPool(t)
	svc, err := recovery.NewService(p)
	if err != nil {
		t.Fatal(err)
	}
	w := connect(t, p)
	s, err := kv.Create(w, 3, 16, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(5, []byte("persist")); err != nil {
		t.Fatal(err)
	}
	// The creator dies; the named root must keep the whole store alive.
	if err := w.Crash(); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.RecoverClient(w.ID()); err != nil {
		t.Fatal(err)
	}
	res := check.Validate(p)
	if !res.Clean() {
		for _, is := range res.Issues {
			t.Errorf("validate: %s", is)
		}
		t.FailNow()
	}
	if res.AllocatedObjects != 2 { // index + 1 record
		t.Fatalf("allocated=%d, want index+record", res.AllocatedObjects)
	}
	// A fresh client re-opens the store and reads the data.
	c2 := connect(t, p)
	s2, err := kv.Open(c2, 3)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	if _, err := s2.Get(5, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf[:7], []byte("persist")) {
		t.Fatalf("persisted value %q", buf[:7])
	}
	// Unpublish and close: everything reclaimed.
	if err := c2.UnpublishRoot(3); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	mon := recovery.NewMonitor(svc, recovery.MonitorConfig{})
	for i := 0; i < 3; i++ {
		mon.Tick()
	}
	res = mustClean(t, p)
	if res.AllocatedObjects != 0 {
		t.Fatalf("store leaked %d objects", res.AllocatedObjects)
	}
}

func TestWriterTakeoverIsMetadataOnly(t *testing.T) {
	p := newPool(t)
	svc, err := recovery.NewService(p)
	if err != nil {
		t.Fatal(err)
	}
	w1 := connect(t, p)
	s1, err := kv.Create(w1, 0, 32, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !s1.AcquirePartition(0, false) || !s1.AcquirePartition(1, false) {
		t.Fatal("creator could not acquire partitions")
	}
	for k := uint64(0); k < 50; k++ {
		if err := s1.Put(k, []byte{byte(k)}); err != nil {
			t.Fatal(err)
		}
	}
	// w1 dies; w2 takes over both partitions with no data movement.
	if err := w1.Crash(); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.RecoverClient(w1.ID()); err != nil {
		t.Fatal(err)
	}
	w2 := connect(t, p)
	s2, err := kv.Open(w2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s2.AcquirePartition(0, false) {
		t.Fatal("lease of dead writer acquired without steal")
	}
	if !s2.AcquirePartition(0, true) || !s2.AcquirePartition(1, true) {
		t.Fatal("takeover failed")
	}
	if s2.PartitionOwner(0) != w2.ID() {
		t.Fatal("lease not transferred")
	}
	// All data still there; the new writer can update it.
	buf := make([]byte, 8)
	for k := uint64(0); k < 50; k++ {
		if _, err := s2.Get(k, buf); err != nil {
			t.Fatalf("get %d after takeover: %v", k, err)
		}
		if buf[0] != byte(k) {
			t.Fatalf("key %d corrupted", k)
		}
	}
	if err := s2.Put(7, []byte{200}); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionLeaseEnforcesSingleWriter(t *testing.T) {
	p := newPool(t)
	w1 := connect(t, p)
	s1, err := kv.Create(w1, 0, 64, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Without leases, anyone may write (no enforcement ceremony).
	if err := s1.Put(1, []byte{1}); err != nil {
		t.Fatal(err)
	}
	// w1 leases partition of key 1; a second writer must be refused there
	// but allowed on unleased partitions.
	p1 := s1.PartitionOf(1)
	if !s1.AcquirePartition(p1, false) {
		t.Fatal("lease failed")
	}
	w2 := connect(t, p)
	s2, err := kv.Open(w2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Put(1, []byte{2}); err != kv.ErrNotOwner {
		t.Fatalf("foreign write: %v, want ErrNotOwner", err)
	}
	if err := s2.Delete(1); err != kv.ErrNotOwner {
		t.Fatalf("foreign delete: %v, want ErrNotOwner", err)
	}
	// Find a key in the other (unleased) partition: allowed.
	other := uint64(0)
	for k := uint64(0); k < 1000; k++ {
		if s2.PartitionOf(k) != p1 {
			other = k
			break
		}
	}
	if err := s2.Put(other, []byte{3}); err != nil {
		t.Fatalf("write to unleased partition: %v", err)
	}
	// Takeover transfers write rights, but only from a writer that can no
	// longer write: refused while w1 lives, granted once it is recovered.
	if s2.AcquirePartition(p1, true) {
		t.Fatal("partition stolen from a live writer")
	}
	svc, err := recovery.NewService(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := w1.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.RecoverClient(w1.ID()); err != nil {
		t.Fatal(err)
	}
	if !s2.AcquirePartition(p1, true) {
		t.Fatal("steal failed")
	}
	if err := s2.Put(1, []byte{4}); err != nil {
		t.Fatalf("write after takeover: %v", err)
	}
	if err := s1.Put(1, []byte{5}); err != kv.ErrNotOwner {
		t.Fatalf("old owner write: %v, want ErrNotOwner", err)
	}
}

func TestRangeVisitsEverything(t *testing.T) {
	p := newPool(t)
	c := connect(t, p)
	s, err := kv.Create(c, 0, 8, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := map[uint64]byte{}
	for k := uint64(0); k < 40; k++ {
		if err := s.Put(k, []byte{byte(k * 3)}); err != nil {
			t.Fatal(err)
		}
		want[k] = byte(k * 3)
	}
	got := map[uint64]byte{}
	s.Range(func(key uint64, val []byte) bool {
		got[key] = val[0]
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("range visited %d keys, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("key %d: %d, want %d", k, got[k], v)
		}
	}
	// Early termination.
	n := 0
	s.Range(func(uint64, []byte) bool { n++; return n < 5 })
	if n != 5 {
		t.Fatalf("early stop visited %d", n)
	}
}

func TestTBBKVBasics(t *testing.T) {
	m := kv.NewTBBKV(8)
	if err := m.Put(1, []byte("abc")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	n, err := m.Get(1, buf)
	if err != nil || n != 3 || !bytes.Equal(buf[:3], []byte("abc")) {
		t.Fatalf("get: %d %q %v", n, buf[:n], err)
	}
	if _, err := m.Get(2, buf); err != kv.ErrNotFound {
		t.Fatalf("missing: %v", err)
	}
	if err := m.Delete(1); err != nil {
		t.Fatal(err)
	}
	if err := m.Delete(1); err != kv.ErrNotFound {
		t.Fatalf("double delete: %v", err)
	}
	if m.Len() != 0 {
		t.Fatalf("len=%d", m.Len())
	}
}
