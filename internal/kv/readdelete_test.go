package kv_test

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/kv"
)

// TestConcurrentReadDuringDelete hammers a store with lock-free readers while
// its single writer slides a window of live keys forward: each round deletes
// the oldest key and inserts a fresh one, so a deleted record's block is
// reclaimed at once and reused for a different key. Every value is its own
// key, and no key is ever inserted twice, so a block holds a given key for
// one contiguous lifetime. Readers rely on validate-after-read alone (Get
// checks that the record is still allocated and still holds the key after
// copying), so a reader must never return another key's value.
func TestConcurrentReadDuringDelete(t *testing.T) {
	p := newPool(t)
	w := connect(t, p)
	s, err := kv.Create(w, 0, 32, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	const window = 48
	val := make([]byte, 8)
	put := func(k uint64) error {
		binary.LittleEndian.PutUint64(val, k)
		return s.Put(k, val)
	}
	for k := uint64(0); k < window; k++ {
		if err := put(k); err != nil {
			t.Fatal(err)
		}
	}
	var oldest atomic.Uint64 // the lowest key still live
	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rc, err := p.Connect()
			if err != nil {
				errs <- err
				return
			}
			rs, err := kv.Open(rc, 0)
			if err != nil {
				errs <- err
				return
			}
			buf := make([]byte, 8)
			for i := uint64(0); !stop.Load(); i++ {
				k := oldest.Load() + (i*7+uint64(g))%window
				_, err := rs.Get(k, buf)
				if err == kv.ErrNotFound || err == kv.ErrChainBroke {
					continue
				}
				if err != nil {
					errs <- err
					return
				}
				if got := binary.LittleEndian.Uint64(buf); got != k {
					errs <- fmt.Errorf("reader %d: key %d read back the value of key %d", g, k, got)
					return
				}
			}
			errs <- nil
		}(g)
	}
	for k := uint64(0); k < 20000; k++ {
		if err := s.Delete(k); err != nil {
			t.Fatal(err)
		}
		oldest.Store(k + 1)
		if err := put(k + window); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	mustClean(t, p)
}
