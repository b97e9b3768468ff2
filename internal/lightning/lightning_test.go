package lightning

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func newStore(t *testing.T) *Store {
	t.Helper()
	s, err := NewStore(1<<20, 1024)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestBuddySplitAndCoalesce(t *testing.T) {
	b, err := newBuddy(1024, 64)
	if err != nil {
		t.Fatal(err)
	}
	if b.freeBytes() != 1024 {
		t.Fatalf("fresh arena free=%d", b.freeBytes())
	}
	a1, err := b.alloc(100) // order 128
	if err != nil {
		t.Fatal(err)
	}
	a2, err := b.alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if b.freeBytes() != 1024-128-64 {
		t.Fatalf("free=%d after two allocs", b.freeBytes())
	}
	if err := b.freeBlock(a1); err != nil {
		t.Fatal(err)
	}
	if err := b.freeBlock(a2); err != nil {
		t.Fatal(err)
	}
	if b.freeBytes() != 1024 {
		t.Fatalf("free=%d after frees; coalescing broken", b.freeBytes())
	}
	// After full coalescing a max-order alloc must succeed again.
	if _, err := b.alloc(1024); err != nil {
		t.Fatalf("arena did not coalesce to full: %v", err)
	}
}

func TestBuddyDoubleFree(t *testing.T) {
	b, _ := newBuddy(1024, 64)
	a, _ := b.alloc(64)
	if err := b.freeBlock(a); err != nil {
		t.Fatal(err)
	}
	if err := b.freeBlock(a); err == nil {
		t.Fatal("double free undetected")
	}
}

func TestPutGetDelete(t *testing.T) {
	s := newStore(t)
	c := s.Connect()
	if err := c.Put(42, []byte("value-42")); err != nil {
		t.Fatal(err)
	}
	got, err := c.Get(42)
	if err != nil || string(got) != "value-42" {
		t.Fatalf("Get: %q %v", got, err)
	}
	if err := c.Put(42, []byte("updated")); err != nil {
		t.Fatal(err)
	}
	got, _ = c.Get(42)
	if string(got) != "updated" {
		t.Fatalf("overwrite: %q", got)
	}
	if err := c.Delete(42); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(42); err != ErrNotFound {
		t.Fatalf("after delete: %v", err)
	}
	if err := c.Delete(42); err != ErrNotFound {
		t.Fatalf("double delete: %v", err)
	}
}

// TestPutPastDeletedBucket: two keys share a home bucket, so B lands one past
// A. Once A is deleted, re-putting B must overwrite B where it is, not claim
// A's hole — else B sits in the directory twice, and deleting the new copy
// resurrects the old one.
func TestPutPastDeletedBucket(t *testing.T) {
	s := newStore(t)
	c := s.Connect()
	a, b := uint64(1), uint64(2)
	for hash(b)&s.mask != hash(a)&s.mask {
		b++
	}
	for _, step := range []func() error{
		func() error { return c.Put(a, []byte("a")) },
		func() error { return c.Put(b, []byte("b-old")) },
		func() error { return c.Delete(a) },
		func() error { return c.Put(b, []byte("b-new")) },
	} {
		if err := step(); err != nil {
			t.Fatal(err)
		}
	}
	if got, err := c.Get(b); err != nil || string(got) != "b-new" {
		t.Fatalf("Get(b) after overwrite = %q, %v; want b-new", got, err)
	}
	if err := c.Delete(b); err != nil {
		t.Fatal(err)
	}
	if got, err := c.Get(b); err != ErrNotFound {
		t.Fatalf("Get(b) after delete = %q, %v; want ErrNotFound", got, err)
	}
	if n := s.Len(); n != 0 {
		t.Fatalf("store holds %d objects after deleting both keys", n)
	}
}

func TestManyKeysSurviveChurn(t *testing.T) {
	s := newStore(t)
	c := s.Connect()
	for round := 0; round < 3; round++ {
		for k := uint64(0); k < 500; k++ {
			if err := c.Put(k, []byte(fmt.Sprintf("r%d-k%d", round, k))); err != nil {
				t.Fatalf("round %d put %d: %v", round, k, err)
			}
		}
		for k := uint64(0); k < 500; k++ {
			got, err := c.Get(k)
			if err != nil || string(got) != fmt.Sprintf("r%d-k%d", round, k) {
				t.Fatalf("round %d get %d: %q %v", round, k, got, err)
			}
		}
	}
	if s.Len() != 500 {
		t.Fatalf("store holds %d objects, want 500", s.Len())
	}
}

func TestConcurrentClients(t *testing.T) {
	s := newStore(t)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := s.Connect()
			base := uint64(g * 1000)
			for i := uint64(0); i < 200; i++ {
				if err := c.Put(base+i, []byte{byte(g), byte(i)}); err != nil {
					t.Errorf("put: %v", err)
					return
				}
			}
			for i := uint64(0); i < 200; i++ {
				got, err := c.Get(base + i)
				if err != nil || got[0] != byte(g) {
					t.Errorf("get: %v %v", got, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestCrashBlocksOthersUntilRecovery reproduces the paper's §4.2 point: a
// client dying with a lock held blocks others indefinitely; only the
// (blocking, stop-the-world) recovery unblocks them.
func TestCrashBlocksOthersUntilRecovery(t *testing.T) {
	s := newStore(t)
	victim := s.Connect()
	other := s.Connect()

	if err := victim.Put(7, []byte("before")); err != nil {
		t.Fatal(err)
	}
	if err := victim.CrashHoldingLock(7); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		_, err := other.Get(7) // spins on the dead client's bucket lock
		done <- err
	}()
	select {
	case <-done:
		t.Fatal("Get completed while a dead client held the lock")
	case <-time.After(30 * time.Millisecond):
		// blocked, as expected
	}

	s.Recover()

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Get after recovery: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("recovery did not unblock the waiting client")
	}
	// The in-flight operation was rolled back: old value intact.
	got, err := other.Get(7)
	if err != nil || string(got) != "before" {
		t.Fatalf("rollback: %q %v", got, err)
	}
}

func TestRecoveryRollsBackAllocation(t *testing.T) {
	s := newStore(t)
	victim := s.Connect()
	free0 := s.b.freeBytes()
	if err := victim.CrashHoldingLock(99); err != nil {
		t.Fatal(err)
	}
	s.Recover()
	if got := s.b.freeBytes(); got != free0 {
		t.Fatalf("free bytes %d after recovery, want %d", got, free0)
	}
	if _, err := s.Connect().Get(99); err != ErrNotFound {
		t.Fatalf("phantom key after rollback: %v", err)
	}
}

func TestCrashedClientRefusesOps(t *testing.T) {
	s := newStore(t)
	c := s.Connect()
	c.Crash()
	if err := c.Put(1, []byte("x")); err != ErrCrashed {
		t.Fatalf("put after crash: %v", err)
	}
	if _, err := c.Get(1); err != ErrCrashed {
		t.Fatalf("get after crash: %v", err)
	}
}
