package kv_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cxl"
	"repro/internal/kv"
)

// mustDescend fails unless every bucket's chain runs in strictly descending
// key order.
func mustDescend(t *testing.T, s *kv.Store) {
	t.Helper()
	for b := 0; b < s.Buckets(); b++ {
		keys := kv.ChainKeys(s, b)
		for i := 1; i < len(keys); i++ {
			if keys[i] >= keys[i-1] {
				t.Fatalf("bucket %d is not in descending key order: %v", b, keys)
			}
		}
	}
}

// TestChainOrder drives a store of four buckets with keys in random order —
// inserts, Puts and Updates of present keys, Deletes, and re-inserts of
// deleted keys — against a map model. Every bucket's chain must then run in
// strictly descending key order, every key must read as the model says, and
// a key the model lacks must be absent to Get, Update and Delete alike. A
// store that linked each insert at its chain's head would break the order,
// and its reads, which stop at the first smaller key, would miss keys.
func TestChainOrder(t *testing.T) {
	const buckets, valSize, keySpace, ops = 4, 8, 160, 3000
	p := newPool(t)
	c := connect(t, p)
	s, err := kv.Create(c, 0, buckets, valSize, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(39))
	model := map[uint64]uint64{}
	val := make([]byte, valSize)
	for i := 0; i < ops; i++ {
		k := uint64(rng.Intn(keySpace))
		v := uint64(i)<<8 | k
		_, present := model[k]
		switch op := rng.Intn(4); {
		case op == 0 && present:
			if err := s.Delete(k); err != nil {
				t.Fatalf("Delete(%d): %v", k, err)
			}
			delete(model, k)
		case op == 1 && present:
			err := s.Update(k, func(b []byte) error {
				binary.LittleEndian.PutUint64(b, v)
				return nil
			})
			if err != nil {
				t.Fatalf("Update(%d): %v", k, err)
			}
			model[k] = v
		default:
			binary.LittleEndian.PutUint64(val, v)
			if err := s.Put(k, val); err != nil {
				t.Fatalf("Put(%d): %v", k, err)
			}
			model[k] = v
		}
	}

	mustDescend(t, s)
	if got := s.Len(); got != len(model) {
		t.Fatalf("store holds %d records, the model %d", got, len(model))
	}
	buf := make([]byte, valSize)
	noop := func([]byte) error { return nil }
	for k := uint64(0); k < keySpace; k++ {
		want, present := model[k]
		_, err := s.Get(k, buf)
		switch {
		case !present:
			if err != kv.ErrNotFound {
				t.Fatalf("Get of absent key %d: %v, want ErrNotFound", k, err)
			}
			if err := s.Update(k, noop); err != kv.ErrNotFound {
				t.Fatalf("Update of absent key %d: %v, want ErrNotFound", k, err)
			}
			if err := s.Delete(k); err != kv.ErrNotFound {
				t.Fatalf("Delete of absent key %d: %v, want ErrNotFound", k, err)
			}
		case err != nil:
			t.Fatalf("Get(%d): %v", k, err)
		case binary.LittleEndian.Uint64(buf) != want:
			t.Fatalf("Get(%d) = %#x, the model says %#x", k, binary.LittleEndian.Uint64(buf), want)
		}
	}
	s.Close()
	mustClean(t, p)
}

// TestReadersNeverMissDuringOrderedInsert: lock-free readers on three other
// clients Get keys that stay present for the whole test, while the writer
// inserts, deletes and re-inserts keys around them (churnAroundStable). An
// insert links its record at any position of a chain, its next stored before
// its predecessor word, and a delete reclaims its record at once, inside its
// bucket's unlink word, so no read may miss a present key or return a value
// it was never given. A reader that walks onto a record reclaimed under it
// stops early, on the cleared next of a free block or on the key of whatever
// reuses it; only the unlink word tells it to walk again.
func TestReadersNeverMissDuringOrderedInsert(t *testing.T) {
	churnAroundStable(t, func(r int, rs *kv.Store, i int) error {
		k := churnStable[i%len(churnStable)]
		buf := make([]byte, churnValSize)
		if _, err := rs.Get(k, buf); err != nil {
			return fmt.Errorf("Get(%d): %v", k, err)
		}
		if !churnUntorn(k, buf) {
			return fmt.Errorf("key %d read a torn value % x", k, buf)
		}
		return nil
	})
}

// TestRangeNeverSkipsDuringChurn is TestReadersNeverMissDuringOrderedInsert
// with RangeBuckets walks for reads: each reader walks the buckets one at a
// time, and every walk must surface every stable key of its bucket exactly
// once, no key twice, no key of another bucket, and no torn value. A walk
// that loads the next of a record reclaimed under it ends its bucket early
// or wanders into another chain; the unlink word sends it back to the first
// key below the last one it surfaced.
func TestRangeNeverSkipsDuringChurn(t *testing.T) {
	churnAroundStable(t, func(r int, rs *kv.Store, i int) error {
		for b := 0; b < churnBuckets; b++ {
			var seen []uint64
			var err error
			rs.RangeBuckets(b, 1, func(k uint64, val []byte) bool {
				switch {
				case kv.Partition(k, churnBuckets, churnBuckets) != b:
					err = fmt.Errorf("the walk of bucket %d surfaced key %d of another bucket", b, k)
				case slices.Contains(seen, k):
					err = fmt.Errorf("the walk of bucket %d surfaced key %d twice: %v", b, k, seen)
				case !churnUntorn(k, val):
					err = fmt.Errorf("key %d surfaced a torn value % x", k, val)
				}
				seen = append(seen, k)
				return err == nil
			})
			if err != nil {
				return err
			}
			for _, k := range churnStable {
				if kv.Partition(k, churnBuckets, churnBuckets) == b && !slices.Contains(seen, k) {
					return fmt.Errorf("the walk of bucket %d skipped stable key %d: %v", b, k, seen)
				}
			}
		}
		return nil
	})
}

// The store churnAroundStable drives: two buckets, and stable keys that
// other keys of [0, churnKeys) sort before, between and after.
const churnBuckets, churnValSize, churnKeys = 2, 32, 400

var churnStable = []uint64{60, 130, 200, 270, 340}

// churnVal is key k's value: every byte k's low byte, inverted when alt.
func churnVal(k uint64, alt bool) []byte {
	b := byte(k)
	if alt {
		b = ^b
	}
	return bytes.Repeat([]byte{b}, churnValSize)
}

// churnUntorn reports whether val is one of key k's two values.
func churnUntorn(k uint64, val []byte) bool {
	return bytes.Equal(val, churnVal(k, false)) || bytes.Equal(val, churnVal(k, true))
}

// churnAroundStable puts the stable keys into a store that a writer and
// three reader clients share, then runs read(r, rs, i) on reader r's own
// Store for i = r, r+1, … while the writer inserts, deletes and re-inserts
// random keys of the same two buckets and now and then rewrites a stable key
// in place with its other value. It fails the test with the first error a
// read returns. The writer runs at least 2000 operations and goes on until
// every reader has read 100 times; the store must then be in descending key
// order and agree with the writer's model.
//
// An access hook holds each of the writer's device stores for four
// microseconds, so that readers on other Ps can land between any two of
// them, and one in 128 of the readers' loads for fifty: longer than a
// delete takes from its link to its reclaim, and shorter than the gap
// between two deletes of one bucket, so that a reader stopped on a record
// as it is unlinked goes on after the reclaim while the bucket's unlink word
// has moved only once.
func churnAroundStable(t *testing.T, read func(r int, rs *kv.Store, i int) error) {
	t.Helper()
	var writer atomic.Int64
	var readers, loads atomic.Uint64 // a bit per reader's cid; their loads
	p := newHookedPool(t, func(cid int, kind cxl.AccessKind, _ cxl.Addr) {
		var hold time.Duration
		switch {
		case kind == cxl.OpStore && int64(cid) == writer.Load():
			hold = 4 * time.Microsecond
		case kind == cxl.OpLoad && readers.Load()>>cid&1 == 1 && loads.Add(1)*0x9E3779B97F4A7C15>>57 == 0:
			hold = 50 * time.Microsecond
		}
		if hold > 0 {
			for t0 := time.Now(); time.Since(t0) < hold; {
			}
		}
	})
	w := connect(t, p)
	writer.Store(int64(w.ID()))
	s, err := kv.Create(w, 0, churnBuckets, churnValSize, 1)
	if err != nil {
		t.Fatal(err)
	}
	isStable := map[uint64]bool{}
	for _, k := range churnStable {
		isStable[k] = true
		if err := s.Put(k, churnVal(k, false)); err != nil {
			t.Fatal(err)
		}
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	const nReaders = 3
	reads := make([]atomic.Int64, nReaders)
	errs := make(chan error, nReaders)
	for r := 0; r < nReaders; r++ {
		rc := connect(t, p)
		readers.Store(readers.Load() | 1<<rc.ID())
		defer rc.Close()
		rs, err := kv.Open(rc, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer rs.Close()
		wg.Add(1)
		go func(r int, rs *kv.Store) {
			defer wg.Done()
			for i := r; !stop.Load(); i++ {
				if err := read(r, rs, i); err != nil {
					errs <- fmt.Errorf("reader %d: %v", r, err)
					return
				}
				reads[r].Add(1)
			}
		}(r, rs)
	}

	rng := rand.New(rand.NewSource(39))
	present := map[uint64]bool{}
	allRead := func() bool {
		for r := range reads {
			if reads[r].Load() < 100 {
				return false
			}
		}
		return true
	}
	for i := 0; len(errs) == 0 && (i < 2000 || !allRead()); i++ {
		if i%64 == 0 {
			runtime.Gosched() // on one P, too, the readers run between writes
		}
		k := uint64(rng.Intn(churnKeys))
		switch {
		case isStable[k]:
			if err := s.Put(k, churnVal(k, i%2 == 1)); err != nil {
				t.Fatal(err)
			}
		case present[k]:
			if err := s.Delete(k); err != nil {
				t.Fatal(err)
			}
			present[k] = false
		default:
			if err := s.Put(k, churnVal(k, false)); err != nil {
				t.Fatal(err)
			}
			present[k] = true
		}
	}
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for r := range reads {
		if reads[r].Load() == 0 {
			t.Errorf("reader %d read nothing", r)
		}
	}
	mustDescend(t, s)
	for k, in := range present {
		if _, err := s.Get(k, make([]byte, churnValSize)); in != (err == nil) || !in && !errors.Is(err, kv.ErrNotFound) {
			t.Fatalf("Get(%d) after the run: %v, want present=%v", k, err, in)
		}
	}
	s.Close()
	mustClean(t, p)
}
