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
// one contiguous lifetime. Readers rely on validation alone: a read stands
// only if its bucket's unlink word, which every delete moves, read the same
// before and after it. So a reader must never return another key's value,
// nor report absent a key that was present for the whole read: a key above
// the oldest live key read after the Get, and below the newest one the
// writer had surely inserted when the oldest was read before it. Two readers
// Get; a third reads through View, whose f must never see another key's
// value either.
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
	errs := make(chan error, 3)
	for g := 0; g < 3; g++ {
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
			read := func(k uint64) error {
				_, err := rs.Get(k, buf)
				return err
			}
			if g == 2 {
				read = func(k uint64) error {
					return rs.View(k, func(val []byte) error {
						copy(buf, val)
						return nil
					})
				}
			}
			for i := uint64(0); !stop.Load(); i++ {
				o1 := oldest.Load()
				k := o1 + (i*7+uint64(g))%window
				err := read(k)
				if err == kv.ErrNotFound {
					// Up to o2, k may be deleted before o2 was read; from
					// o1+window-1, it may not be inserted when o1 was read.
					if o2 := oldest.Load(); k <= o2 || k >= o1+window-1 {
						continue
					}
					errs <- fmt.Errorf("reader %d: key %d, present throughout the read, read as absent", g, k)
					return
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
