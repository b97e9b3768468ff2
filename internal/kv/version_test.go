package kv_test

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/kv"
	"repro/internal/recovery"
	"repro/internal/shm"
)

// TestOpenRefusesOtherRecordFormat: index word [buckets+3] names the record
// layout. An index whose word reads anything else — 0 from a build before
// records carried a version word, 1 from a build that chained records in
// insertion order rather than descending key order, 2 from a build before
// buckets had unlink words, or a later format — is refused, not misread, and
// the refused Open drops the root reference it took.
func TestOpenRefusesOtherRecordFormat(t *testing.T) {
	const buckets = 16
	p := newPool(t)
	c := connect(t, p)
	s, err := kv.Create(c, 0, buckets, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(1, []byte{1}); err != nil {
		t.Fatal(err)
	}
	idx := s.IndexAddr()
	format := c.LoadWord(idx, buckets+3)
	if format != 3 {
		t.Fatalf("the index carries record format %d, want 3", format)
	}
	for _, other := range []uint64{0, 1, 2, format + 1} {
		c.StoreWord(idx, buckets+3, other)
		if _, err := kv.Open(c, 0); !errors.Is(err, kv.ErrFormat) {
			t.Fatalf("Open of a format-%d index: %v, want ErrFormat", other, err)
		}
	}
	c.StoreWord(idx, buckets+3, format)
	s2, err := kv.Open(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	if _, err := s2.Get(1, buf); err != nil || buf[0] != 1 {
		t.Fatalf("Get after reopening: %v %v", buf[0], err)
	}
	s2.Close()
	s.Close()
	mustClean(t, p)
}

// twoValues returns two full-width values that differ in every byte, so a
// read mixing them equals neither.
func twoValues(n int) (a, b []byte) {
	return bytes.Repeat([]byte{0xAA}, n), bytes.Repeat([]byte{0x55}, n)
}

// hammerKey runs write(i) on s's writer while four lock-free readers read
// key: two other clients through Stores of their own (Get and RangeBuckets
// over the key's bucket on one, View on the other), and a NewReader view on
// the writer's own client, from another goroutine. Every value a reader
// returns must be a or b; a miss (ErrNotFound) is allowed.
// The writer runs at least rounds writes and goes on until every reader has
// returned a value — with one P the readers may not run before the writer's
// rounds are done — for at most half a minute.
func hammerKey(t *testing.T, p *shm.Pool, w *shm.Client, s *kv.Store, key uint64, a, b []byte,
	rounds int, write func(i int) error) {
	t.Helper()
	stores := make([]*kv.Store, 2)
	for i := range stores {
		rc, err := p.Connect()
		if err != nil {
			t.Fatal(err)
		}
		defer rc.Close()
		if stores[i], err = kv.Open(rc, 0); err != nil {
			t.Fatal(err)
		}
		defer stores[i].Close()
	}
	rs, vs := stores[0], stores[1]
	bucket := kv.Partition(key, rs.Buckets(), rs.Buckets())
	view := s.NewReader(w.NewReader())
	untorn := func(v []byte) bool { return bytes.Equal(v, a) || bytes.Equal(v, b) }
	// Each reader copies the value it read into buf and returns it, or nil
	// when the key was not there. View's reader checks every value f is
	// called with: f runs once per View, on a stable value.
	readers := []struct {
		who  string
		read func(buf []byte) ([]byte, error)
	}{
		{"another client's Get", func(buf []byte) ([]byte, error) {
			_, err := rs.Get(key, buf)
			return buf, err
		}},
		{"another client's RangeBuckets", func(buf []byte) ([]byte, error) {
			var got []byte
			rs.RangeBuckets(bucket, 1, func(k uint64, val []byte) bool {
				if k == key {
					got = append(buf[:0], val...)
				}
				return got == nil
			})
			return got, nil
		}},
		{"another client's View", func(buf []byte) ([]byte, error) {
			var torn error
			err := vs.View(key, func(val []byte) error {
				if copy(buf, val); !untorn(buf) {
					torn = fmt.Errorf("f was called with a torn value: % x", buf)
				}
				return nil
			})
			if torn != nil {
				return nil, torn
			}
			return buf, err
		}},
		{"a view of the writer's client", func(buf []byte) ([]byte, error) {
			_, err := view.Get(key, buf)
			return buf, err
		}},
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	reads := make([]atomic.Int64, len(readers))
	errs := make(chan error, len(readers))
	for r := range readers {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			buf := make([]byte, len(a))
			for !stop.Load() {
				val, err := readers[r].read(buf)
				switch {
				case err == kv.ErrNotFound || err == nil && val == nil:
				case err != nil:
					errs <- fmt.Errorf("%s: %v", readers[r].who, err)
					return
				case !untorn(val):
					errs <- fmt.Errorf("%s read a torn value: % x", readers[r].who, val)
					return
				default:
					reads[r].Add(1)
				}
			}
		}(r)
	}
	allRead := func() bool {
		for r := range reads {
			if reads[r].Load() == 0 {
				return false
			}
		}
		return true
	}
	deadline := time.Now().Add(30 * time.Second)
	var werr error
	for i := 0; werr == nil && len(errs) == 0; i++ {
		if i >= rounds && (allRead() || time.Now().After(deadline)) {
			break
		}
		werr = write(i)
	}
	stop.Store(true)
	wg.Wait()
	close(errs)
	if werr != nil {
		t.Fatal(werr)
	}
	for err := range errs {
		t.Error(err)
	}
	for r := range readers {
		if reads[r].Load() == 0 {
			t.Errorf("%s returned no value", readers[r].who)
		}
	}
}

// TestTornReadUnderUpdate: the single writer rewrites one key in place,
// alternating two values; lock-free readers — on another client and on a
// view of the writer's own — must return one of the two, never a mix. Only
// the record's version word keeps them apart: the record stays allocated
// and keeps its key throughout.
func TestTornReadUnderUpdate(t *testing.T) {
	p := newPool(t)
	w := connect(t, p)
	s, err := kv.Create(w, 0, 16, 256, 1)
	if err != nil {
		t.Fatal(err)
	}
	const key = 3
	a, b := twoValues(256)
	if err := s.Put(key, a); err != nil {
		t.Fatal(err)
	}
	hammerKey(t, p, w, s, key, a, b, 20000, func(i int) error {
		if i%2 == 0 {
			return s.Put(key, b)
		}
		return s.Put(key, a)
	})
	s.Close()
	mustClean(t, p)
}

// TestTornReadUnderReinsert: the writer deletes the key and inserts it again
// with the other value, so the freed record's block comes straight back
// under the same key — allocated, same key, new value: validating
// (allocated, key) alone would pass a read torn across the two. The delete
// moves the bucket's unlink word, so the read walks again.
func TestTornReadUnderReinsert(t *testing.T) {
	p := newPool(t)
	w := connect(t, p)
	s, err := kv.Create(w, 0, 16, 256, 1)
	if err != nil {
		t.Fatal(err)
	}
	const key = 3
	a, b := twoValues(256)
	if err := s.Put(key, a); err != nil {
		t.Fatal(err)
	}
	hammerKey(t, p, w, s, key, a, b, 20000, func(i int) error {
		if err := s.Delete(key); err != nil {
			return err
		}
		if i%2 == 0 {
			return s.Put(key, b)
		}
		return s.Put(key, a)
	})
	s.Close()
	mustClean(t, p)
}

// TestCrashCutUpdate kills the writer before each device write of an
// in-place update (the access sweeper, as in the crash sweep). While the
// dead writer's slot still reads ALIVE, a survivor's Get of the key waits
// on its odd version word; once the writer is declared dead the Get returns
// without error — the value possibly torn, as the writer left it — and after
// recovery and a partition steal the next Put leaves the word even and the
// new value readable.
func TestCrashCutUpdate(t *testing.T) {
	const key = 5
	a, b := twoValues(32)
	c := bytes.Repeat([]byte{0x33}, 32)
	story := func(t *testing.T, n int) (writes int) {
		sw := faultinject.NewAccessSweeper()
		p := newHookedPool(t, sw.Hook)
		svc, err := recovery.NewService(p)
		if err != nil {
			t.Fatal(err)
		}
		wc, sc := connect(t, p), connect(t, p)
		ws, err := kv.Create(wc, 0, 16, 32, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !ws.AcquirePartition(0, false) {
			t.Fatal("creator could not acquire the partition")
		}
		if err := ws.Put(key, a); err != nil {
			t.Fatal(err)
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
		crash := faultinject.Run(func() { ws.Put(key, b) })
		writes = sw.StopCounting()
		if n > 0 && crash == nil {
			t.Fatalf("the update finished without reaching write %d", n)
		}

		cut := kv.VersionWord(ss, key)&1 == 1 // the dead writer left the word odd
		got := make(chan error, 1)
		buf := make([]byte, 32)
		go func() { _, err := ss.Get(key, buf); got <- err }()
		if cut {
			select {
			case err := <-got:
				t.Fatalf("Get returned (%v) past the odd version word of a writer still ALIVE", err)
			case <-time.After(20 * time.Millisecond):
			}
		}
		if err := p.MarkClientDead(wc.ID()); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-got:
			if err != nil {
				t.Fatalf("Get after the writer's death: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("Get still waiting on a dead writer")
		}

		if _, err := svc.RecoverClient(wc.ID()); err != nil {
			t.Fatal(err)
		}
		if !ss.AcquirePartition(0, true) {
			t.Fatal("takeover refused after the dead writer's recovery")
		}
		if err := ss.Put(key, c); err != nil {
			t.Fatal(err)
		}
		if v := kv.VersionWord(ss, key); v&1 != 0 {
			t.Fatalf("version word %#x odd after the new writer's Put", v)
		}
		if _, err := ss.Get(key, buf); err != nil || !bytes.Equal(buf, c) {
			t.Fatalf("Get after the new writer's Put: % x, %v", buf, err)
		}
		ss.Close()
		sc.Close()
		mon := recovery.NewMonitor(svc, recovery.MonitorConfig{Threshold: 1 << 30})
		mon.Tick()
		mustClean(t, p)
		return writes
	}
	writes := story(t, 0)
	if writes < 3 {
		t.Fatalf("an in-place update issued %d device writes, want the version word's two and the value's", writes)
	}
	for n := 1; n <= writes; n++ {
		t.Run(fmt.Sprintf("write=%d", n), func(t *testing.T) { story(t, n) })
	}
}
