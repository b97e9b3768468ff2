package kv_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/kv"
	"repro/internal/recovery"
)

// TestCrashCutInsert kills the writer before each device write of an insert
// (the access sweeper, as in the crash sweep): into an empty bucket, onto a
// chain of two records (the key is the largest, so the bucket is the
// predecessor word), and into the middle of that chain (a record's next is).
// Once the writer is recovered the key reads whole or not at all, every
// other key of the bucket still reads, the pool validates clean, a
// survivor's takeover can write the key, and after the store is dropped and
// its clients close and are recovered no object is left.
func TestCrashCutInsert(t *testing.T) {
	const buckets, valSize = 16, 32
	bucket := kv.Partition(1, buckets, buckets)
	var keys []uint64 // three keys of one bucket, ascending
	for k := uint64(1); len(keys) < 3; k++ {
		if kv.Partition(k, buckets, buckets) == bucket {
			keys = append(keys, k)
		}
	}
	valOf := func(k uint64) []byte { return bytes.Repeat([]byte{byte(k)}, valSize) }
	after := bytes.Repeat([]byte{0x33}, valSize)

	story := func(t *testing.T, others []uint64, key uint64, n int) (writes int) {
		sw := faultinject.NewAccessSweeper()
		p := newHookedPool(t, sw.Hook)
		svc, err := recovery.NewService(p)
		if err != nil {
			t.Fatal(err)
		}
		wc, sc := connect(t, p), connect(t, p)
		ws, err := kv.Create(wc, 0, buckets, valSize, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !ws.AcquirePartition(0, false) {
			t.Fatal("creator could not acquire the partition")
		}
		for _, k := range others {
			if err := ws.Put(k, valOf(k)); err != nil {
				t.Fatal(err)
			}
		}
		ss, err := kv.Open(sc, 0)
		if err != nil {
			t.Fatal(err)
		}

		sw.SetVictim(wc.ID())
		if n == 0 {
			sw.StartCounting()
		} else {
			sw.Arm(n)
		}
		crash := faultinject.Run(func() { ws.Put(key, valOf(key)) })
		writes = sw.StopCounting()
		sw.Disarm()
		if n > 0 && crash == nil {
			t.Fatalf("the insert finished without reaching write %d", n)
		}
		if err := p.MarkClientDead(wc.ID()); err != nil {
			t.Fatal(err)
		}
		if _, err := svc.RecoverClient(wc.ID()); err != nil {
			t.Fatal(err)
		}

		buf := make([]byte, valSize)
		switch _, err := ss.Get(key, buf); {
		case err == kv.ErrNotFound:
		case err != nil:
			t.Fatalf("Get of the cut insert's key: %v", err)
		case !bytes.Equal(buf, valOf(key)):
			t.Fatalf("the cut insert's key reads % x, want its whole value or not found", buf)
		}
		for _, k := range others {
			if _, err := ss.Get(k, buf); err != nil || !bytes.Equal(buf, valOf(k)) {
				t.Fatalf("key %d of the bucket after the cut insert: % x, %v", k, buf, err)
			}
		}
		if got := ss.Len(); got != len(others) && got != len(others)+1 {
			t.Fatalf("store holds %d records, want %d or %d", got, len(others), len(others)+1)
		}
		mustClean(t, p)

		if !ss.AcquirePartition(0, true) {
			t.Fatal("takeover refused after the dead writer's recovery")
		}
		if err := ss.Put(key, after); err != nil {
			t.Fatal(err)
		}
		if _, err := ss.Get(key, buf); err != nil || !bytes.Equal(buf, after) {
			t.Fatalf("Get after the new writer's Put: % x, %v", buf, err)
		}
		if err := ss.Close(); err != nil {
			t.Fatal(err)
		}
		if err := sc.UnpublishRoot(0); err != nil {
			t.Fatal(err)
		}
		sc.Close()
		mon := recovery.NewMonitor(svc, recovery.MonitorConfig{Threshold: 1 << 30})
		for i := 0; i < 4; i++ {
			mon.Tick()
		}
		if res := mustClean(t, p); res.AllocatedObjects != 0 {
			t.Fatalf("%d objects survive the store's release", res.AllocatedObjects)
		}
		return writes
	}

	for _, leg := range []struct {
		name   string
		others []uint64
		key    uint64
	}{
		{"empty-bucket", nil, keys[2]},
		{"chain", keys[:2], keys[2]},
		{"mid-chain", []uint64{keys[0], keys[2]}, keys[1]},
	} {
		t.Run(leg.name, func(t *testing.T) {
			writes := story(t, leg.others, leg.key, 0)
			if writes < 8 {
				t.Fatalf("an insert issued %d device writes, want at least the record's and the move's", writes)
			}
			for n := 1; n <= writes; n++ {
				t.Run(fmt.Sprintf("write=%d", n), func(t *testing.T) { story(t, leg.others, leg.key, n) })
			}
		})
	}
}
