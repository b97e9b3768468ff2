package kv_test

import (
	"math"
	"testing"

	"repro/internal/cxl"
	"repro/internal/faultinject"
	"repro/internal/kv"
	"repro/internal/layout"
	"repro/internal/recovery"
	"repro/internal/shm"
)

// newHookedPool is newPool with hook called before every device access.
func newHookedPool(t *testing.T, hook func(cid int, kind cxl.AccessKind, addr cxl.Addr)) *shm.Pool {
	t.Helper()
	p, err := shm.NewPool(shm.Config{
		Geometry: layout.GeometryConfig{
			MaxClients: 8, NumSegments: 32, SegmentWords: 1 << 13, PageWords: 1 << 9,
		},
		Intercept: cxl.Intercept{Access: hook},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.CloseDevice() })
	return p
}

// sameBucket returns two keys of one bucket of a store with the given bucket
// count, and that bucket: with one partition per bucket, a key's partition is
// its bucket.
func sameBucket(buckets int) (k1, k2 uint64, bucket int) {
	bucket = kv.Partition(1, buckets, buckets)
	for k2 = 2; kv.Partition(k2, buckets, buckets) != bucket; k2++ {
	}
	return 1, k2, bucket
}

// TestTakeoverWaitsForRecovery: a writer dies between the commit CAS and the
// link store of an insert into bucket b. Its redo entry owns the bucket word
// until recovery resolves it, so the replay would overwrite the link of any
// insert a new owner made into b before then, losing an acknowledged write.
// The partition therefore cannot be stolen until the dead writer is
// recovered.
func TestTakeoverWaitsForRecovery(t *testing.T) {
	const buckets = 16
	var word layout.Addr // the bucket word the victim dies before storing to
	var victim int
	p := newHookedPool(t, func(cid int, kind cxl.AccessKind, addr cxl.Addr) {
		if word != 0 && cid == victim && kind == cxl.OpStore && addr == word {
			panic(faultinject.Crash{Point: "put/before-link"})
		}
	})
	svc, err := recovery.NewService(p)
	if err != nil {
		t.Fatal(err)
	}
	a, b := connect(t, p), connect(t, p)
	sa, err := kv.Create(a, 0, buckets, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !sa.AcquirePartition(0, false) {
		t.Fatal("creator could not acquire the partition")
	}
	sb, err := kv.Open(b, 0)
	if err != nil {
		t.Fatal(err)
	}
	k1, k2, bucket := sameBucket(buckets)

	word, victim = sa.IndexAddr()+layout.DataOff+layout.Addr(bucket), a.ID()
	if faultinject.Run(func() { sa.Put(k1, []byte{1}) }) == nil {
		t.Fatal("the insert never came to its link store")
	}
	word = 0
	if err := p.MarkClientDead(a.ID()); err != nil {
		t.Fatal(err)
	}
	stoleEarly := sb.AcquirePartition(0, true)
	if stoleEarly {
		if err := sb.Put(k2, []byte{2}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := svc.RecoverClient(a.ID()); err != nil {
		t.Fatal(err)
	}
	if !stoleEarly {
		if !sb.AcquirePartition(0, true) {
			t.Fatal("takeover refused after the dead writer's recovery")
		}
		if err := sb.Put(k2, []byte{2}); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, 8)
	if _, err := sb.Get(k2, buf); err != nil || buf[0] != 2 {
		t.Fatalf("the new owner's insert of key %d reads back %v, %v (stolen before recovery: %v)",
			k2, buf[0], err, stoleEarly)
	}
	if _, err := sb.Get(k1, buf); err != nil || buf[0] != 1 {
		t.Fatalf("the replayed insert of key %d reads back %v, %v", k1, buf[0], err)
	}
	if stoleEarly {
		t.Fatal("the partition was stolen from a dead writer before its recovery")
	}
	mon := recovery.NewMonitor(svc, recovery.MonitorConfig{Threshold: math.MaxInt32})
	for i := 0; i < 3; i++ {
		mon.Tick()
	}
	mustClean(t, p)
}

// TestTakeoverRefusedWhileWriterLives: a PUT that passed the ownership check
// before a steal would go on writing beside the new owner — two writers on
// one bucket chain. A live writer's partition cannot be stolen.
func TestTakeoverRefusedWhileWriterLives(t *testing.T) {
	var owner int
	var steal func() // run once, at the owner's first store
	p := newHookedPool(t, func(cid int, kind cxl.AccessKind, addr cxl.Addr) {
		if steal != nil && cid == owner && kind == cxl.OpStore {
			f := steal
			steal = nil
			f()
		}
	})
	a, b := connect(t, p), connect(t, p)
	sa, err := kv.Create(a, 0, 16, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !sa.AcquirePartition(0, false) {
		t.Fatal("creator could not acquire the partition")
	}
	sb, err := kv.Open(b, 0)
	if err != nil {
		t.Fatal(err)
	}

	stolen := false
	owner, steal = a.ID(), func() { stolen = sb.AcquirePartition(0, true) }
	putErr := sa.Put(7, []byte{7}) // its first store comes after its ownership check
	if steal != nil {
		t.Fatal("the put made no device store")
	}
	if stolen {
		t.Fatalf("partition stolen from its live writer in the middle of a put (put error: %v)", putErr)
	}
	if putErr != nil {
		t.Fatal(putErr)
	}
	if got := sb.PartitionOwner(0); got != a.ID() {
		t.Fatalf("PartitionOwner = %d, want the live writer %d", got, a.ID())
	}
	if err := sb.Put(8, []byte{8}); err != kv.ErrNotOwner {
		t.Fatalf("write by the refused stealer: %v, want ErrNotOwner", err)
	}
}
