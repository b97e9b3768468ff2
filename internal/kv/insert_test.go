package kv_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/kv"
	"repro/internal/recovery"
)

// TestCrashCutInsert kills the writer before each device write of an insert
// (the access sweeper, as in the crash sweep): into an empty bucket, onto a
// chain of two records (the key is the largest, so the bucket is the
// predecessor word), and into the middle of that chain (a record's next is).
// The aftermath is crashCut's.
func TestCrashCutInsert(t *testing.T) {
	keys := crashCutKeys()
	for _, leg := range []struct {
		name   string
		others []uint64
		key    uint64
	}{
		{"empty-bucket", nil, keys[2]},
		{"chain", keys[:2], keys[2]},
		{"mid-chain", []uint64{keys[0], keys[2]}, keys[1]},
	} {
		t.Run(leg.name, func(t *testing.T) { crashCut(t, leg.others, leg.key, false, 8) })
	}
}

// TestCrashCutDelete kills the writer before each device write of a delete:
// of the record at a chain's head (the bucket is the predecessor word) and
// of one mid-chain (a record's next is). A delete cut inside its unlink
// leaves the bucket's unlink word odd, naming the dead writer, and
// recovery may yet roll the unlink forward, so a survivor's Get of another
// key of the bucket waits while the writer's slot reads ALIVE or DEAD, and
// returns once it is recovered. The rest of the aftermath is crashCut's.
func TestCrashCutDelete(t *testing.T) {
	keys := crashCutKeys()
	for _, leg := range []struct {
		name   string
		others []uint64
		key    uint64
	}{
		{"head", keys[:2], keys[2]},
		{"mid-chain", []uint64{keys[0], keys[2]}, keys[1]},
	} {
		t.Run(leg.name, func(t *testing.T) { crashCut(t, leg.others, leg.key, true, 4) })
	}
}

const crashCutBuckets, crashCutValSize = 16, 32

// crashCutKeys returns three keys of one bucket, ascending.
func crashCutKeys() []uint64 {
	bucket := kv.Partition(1, crashCutBuckets, crashCutBuckets)
	var keys []uint64
	for k := uint64(1); len(keys) < 3; k++ {
		if kv.Partition(k, crashCutBuckets, crashCutBuckets) == bucket {
			keys = append(keys, k)
		}
	}
	return keys
}

// crashCut counts the device writes of one insert of key beside the others
// of its bucket — or, with del, of its delete — and fails unless there are
// at least minWrites. Then, for each write, a fresh pool's writer dies before
// it, and once the writer is recovered: the key reads whole or not at all,
// every other key of the bucket still reads, the pool validates clean, a
// survivor's takeover can write and delete the key (the bucket's unlink word
// even after the delete), and after the store is dropped and its clients
// close and are recovered no object is left. A survivor's Get of another key
// of the bucket, started as the writer dies, waits while the unlink word is
// odd and the writer not yet recovered.
func crashCut(t *testing.T, others []uint64, key uint64, del bool, minWrites int) {
	bucket := kv.Partition(key, crashCutBuckets, crashCutBuckets)
	valOf := func(k uint64) []byte { return bytes.Repeat([]byte{byte(k)}, crashCutValSize) }
	after := bytes.Repeat([]byte{0x33}, crashCutValSize)

	story := func(t *testing.T, n int) (writes int) {
		sw := faultinject.NewAccessSweeper()
		p := newHookedPool(t, sw.Hook)
		svc, err := recovery.NewService(p)
		if err != nil {
			t.Fatal(err)
		}
		wc, sc := connect(t, p), connect(t, p)
		ws, err := kv.Create(wc, 0, crashCutBuckets, crashCutValSize, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !ws.AcquirePartition(0, false) {
			t.Fatal("creator could not acquire the partition")
		}
		preload := others
		if del {
			preload = append([]uint64{key}, others...)
		}
		for _, k := range preload {
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
		crash := faultinject.Run(func() {
			if del {
				ws.Delete(key)
			} else {
				ws.Put(key, valOf(key))
			}
		})
		writes = sw.StopCounting()
		sw.Disarm()
		if n > 0 && crash == nil {
			t.Fatalf("the operation finished without reaching write %d", n)
		}

		// A delete's first write makes the unlink word odd, its last even.
		cut := kv.UnlinkWord(ss, bucket)&1 == 1
		if cut != (del && n >= 2) {
			t.Fatalf("unlink word odd: %v, after a cut before write %d", cut, n)
		}
		got := make(chan error, 1)
		if len(others) > 0 {
			probe := make([]byte, crashCutValSize)
			go func() {
				_, err := ss.Get(others[0], probe)
				if err == nil && !bytes.Equal(probe, valOf(others[0])) {
					err = fmt.Errorf("read % x", probe)
				}
				got <- err
			}()
		} else {
			got <- nil
		}
		waits := func(state string) {
			if cut {
				select {
				case err := <-got:
					t.Fatalf("Get returned (%v) past the odd unlink word of a writer %s", err, state)
				case <-time.After(10 * time.Millisecond):
				}
			}
		}
		waits("still ALIVE")
		if err := p.MarkClientDead(wc.ID()); err != nil {
			t.Fatal(err)
		}
		waits("DEAD and not recovered")
		if _, err := svc.RecoverClient(wc.ID()); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-got:
			if err != nil {
				t.Fatalf("Get of key %d once the writer is recovered: %v", others[0], err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("Get still waiting on a recovered writer's unlink word")
		}

		buf := make([]byte, crashCutValSize)
		switch _, err := ss.Get(key, buf); {
		case err == kv.ErrNotFound:
		case err != nil:
			t.Fatalf("Get of the cut operation's key: %v", err)
		case !bytes.Equal(buf, valOf(key)):
			t.Fatalf("the cut operation's key reads % x, want its whole value or not found", buf)
		}
		for _, k := range others {
			if _, err := ss.Get(k, buf); err != nil || !bytes.Equal(buf, valOf(k)) {
				t.Fatalf("key %d of the bucket after the cut: % x, %v", k, buf, err)
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
		if err := ss.Delete(key); err != nil {
			t.Fatal(err)
		}
		if u := kv.UnlinkWord(ss, bucket); u&1 != 0 {
			t.Fatalf("unlink word %#x odd after the new writer's Delete", u)
		}
		if _, err := ss.Get(key, buf); err != kv.ErrNotFound {
			t.Fatalf("Get after the new writer's Delete: %v, want ErrNotFound", err)
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

	writes := story(t, 0)
	if writes < minWrites {
		t.Fatalf("the operation issued %d device writes, want at least %d", writes, minWrites)
	}
	for n := 1; n <= writes; n++ {
		t.Run(fmt.Sprintf("write=%d", n), func(t *testing.T) { story(t, n) })
	}
}
