package kv_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cxl"
	"repro/internal/kv"
	"repro/internal/layout"
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
// inserts, deletes and re-inserts keys that sort before, between and after
// them in the same two buckets, and now and then rewrites a present key in
// place. An insert links its record at any position of a chain, its next
// stored before its predecessor word, so no read may miss a present key or
// return a value it was never given.
//
// Each of the writer's device stores is held for four microseconds (an access
// hook), so that readers on other Ps can land between any two of them.
//
// The writer pins each record it deletes with a root of its own until the
// readers stop. A reader that follows a record reclaimed under it may stop
// early (DESIGN.md §4b), which is a property of reclamation, not of the
// insert this test is about; pinned, a deleted record keeps its key and its
// next, so a reader on it walks on into the live chain.
func TestReadersNeverMissDuringOrderedInsert(t *testing.T) {
	const buckets, valSize, keySpace = 2, 32, 400
	var writer atomic.Int64
	p := newHookedPool(t, func(cid int, kind cxl.AccessKind, _ cxl.Addr) {
		if kind == cxl.OpStore && int64(cid) == writer.Load() {
			for t0 := time.Now(); time.Since(t0) < 4*time.Microsecond; {
			}
		}
	})
	w := connect(t, p)
	writer.Store(int64(w.ID()))
	s, err := kv.Create(w, 0, buckets, valSize, 1)
	if err != nil {
		t.Fatal(err)
	}
	valOf := func(k uint64, alt bool) []byte {
		b := byte(k)
		if alt {
			b = ^b
		}
		return bytes.Repeat([]byte{b}, valSize)
	}
	stable := []uint64{60, 130, 200, 270, 340}
	isStable := map[uint64]bool{}
	for _, k := range stable {
		isStable[k] = true
		if err := s.Put(k, valOf(k, false)); err != nil {
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
		defer rc.Close()
		rs, err := kv.Open(rc, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer rs.Close()
		wg.Add(1)
		go func(r int, rs *kv.Store) {
			defer wg.Done()
			buf := make([]byte, valSize)
			for i := r; !stop.Load(); i++ {
				k := stable[i%len(stable)]
				if _, err := rs.Get(k, buf); err != nil {
					errs <- fmt.Errorf("reader %d: Get(%d): %v", r, k, err)
					return
				}
				if !bytes.Equal(buf, valOf(k, false)) && !bytes.Equal(buf, valOf(k, true)) {
					errs <- fmt.Errorf("reader %d: key %d read a torn value % x", r, k, buf)
					return
				}
				reads[r].Add(1)
			}
		}(r, rs)
	}

	rng := rand.New(rand.NewSource(39))
	present := map[uint64]bool{}
	var pins []layout.Addr
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
		k := uint64(rng.Intn(keySpace))
		switch {
		case isStable[k]:
			if err := s.Put(k, valOf(k, i%2 == 1)); err != nil {
				t.Fatal(err)
			}
		case present[k]:
			root, err := w.AttachRoot(kv.RecordOf(s, k))
			if err != nil {
				t.Fatal(err)
			}
			pins = append(pins, root)
			if err := s.Delete(k); err != nil {
				t.Fatal(err)
			}
			present[k] = false
		default:
			if err := s.Put(k, valOf(k, false)); err != nil {
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
	for _, root := range pins {
		if _, err := w.ReleaseRoot(root); err != nil {
			t.Fatal(err)
		}
	}
	mustDescend(t, s)
	for k, in := range present {
		if _, err := s.Get(k, make([]byte, valSize)); in != (err == nil) || !in && !errors.Is(err, kv.ErrNotFound) {
			t.Fatalf("Get(%d) after the run: %v, want present=%v", k, err, in)
		}
	}
	s.Close()
	mustClean(t, p)
}
