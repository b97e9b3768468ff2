package kv_test

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/kv"
)

// TestViewUpdateRoundTrip exercises the callback paths against Get and Put:
// values written through Update must be what Get and View observe, and vice
// versa.
func TestViewUpdateRoundTrip(t *testing.T) {
	p := newPool(t)
	c := connect(t, p)
	s, err := kv.Create(c, 0, 64, 32, 1)
	if err != nil {
		t.Fatal(err)
	}

	if err := s.View(7, func([]byte) error { return nil }); err != kv.ErrNotFound {
		t.Fatalf("View of missing key: %v, want ErrNotFound", err)
	}
	if err := s.Update(7, func([]byte) error { return nil }); err != kv.ErrNotFound {
		t.Fatalf("Update of missing key: %v, want ErrNotFound", err)
	}

	if err := s.Put(7, []byte("seven")); err != nil {
		t.Fatal(err)
	}
	var seen []byte
	if err := s.View(7, func(val []byte) error {
		if got, want := len(val), s.ValueSize(); got != want {
			t.Errorf("view is %d bytes, want the fixed value size %d", got, want)
		}
		seen = append([]byte(nil), val...)
		return nil
	}); err != nil {
		t.Fatalf("View: %v", err)
	}
	if !bytes.Equal(seen[:5], []byte("seven")) {
		t.Fatalf("View saw %q, want %q", seen[:5], "seven")
	}

	// In-place mutation through Update, observed by Get.
	if err := s.Update(7, func(val []byte) error {
		copy(val, "SEVEN!")
		return nil
	}); err != nil {
		t.Fatalf("Update: %v", err)
	}
	buf := make([]byte, s.ValueSize())
	if _, err := s.Get(7, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf[:6], []byte("SEVEN!")) {
		t.Fatalf("Get after Update: %q", buf[:6])
	}

	// f's error surfaces from both paths.
	boom := errors.New("boom")
	if err := s.View(7, func([]byte) error { return boom }); err != boom {
		t.Fatalf("View error passthrough: %v", err)
	}
	if err := s.Update(7, func([]byte) error { return boom }); err != boom {
		t.Fatalf("Update error passthrough: %v", err)
	}

	// View's bytes are a copy: scribbling on them writes nothing to the pool.
	if err := s.View(7, func(val []byte) error {
		copy(val, "scribble")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(7, buf); err != nil || !bytes.Equal(buf[:6], []byte("SEVEN!")) {
		t.Fatalf("Get after scribbling on a View: %q, %v", buf[:6], err)
	}

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	mustClean(t, p)
}

// TestViewUpdateZeroAlloc pins zero heap allocations per View and per Update
// after warm-up: both copy through the store's one reused buffer.
func TestViewUpdateZeroAlloc(t *testing.T) {
	p := newPool(t)
	c := connect(t, p)
	s, err := kv.Create(c, 0, 64, 32, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(42, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	view := func(val []byte) error {
		if val[0] == 0 {
			t.Error("empty view")
		}
		return nil
	}
	update := func(val []byte) error {
		val[1]++
		return nil
	}
	// Warm-up (the store's copy buffer).
	if err := s.View(42, view); err != nil {
		t.Fatal(err)
	}
	if err := s.Update(42, update); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if err := s.View(42, view); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("View allocates %.1f objects/op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		if err := s.Update(42, update); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Update allocates %.1f objects/op, want 0", n)
	}
}

// TestViewHazardStore runs View across a delete: a view taken
// before a delete sees the value, and one taken after reports the key gone,
// never garbage — the read-during-delete contract without any hazard era.
func TestViewHazardStore(t *testing.T) {
	p := newPool(t)
	c := connect(t, p)
	s, err := kv.Create(c, 0, 32, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k <= 20; k++ {
		if err := s.Put(k, []byte{byte(k)}); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(1); k <= 20; k++ {
		if err := s.View(k, func(val []byte) error {
			if val[0] != byte(k) {
				t.Errorf("key %d: view saw %d", k, val[0])
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if err := s.Delete(k); err != nil {
			t.Fatal(err)
		}
		if err := s.View(k, func([]byte) error { return nil }); err != kv.ErrNotFound {
			t.Fatalf("View after delete: %v, want ErrNotFound", err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	mustClean(t, p)
}
