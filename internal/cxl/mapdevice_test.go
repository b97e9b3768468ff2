//go:build unix

package cxl

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func newTestMapDevice(t *testing.T, words int) *Device {
	t.Helper()
	path := filepath.Join(t.TempDir(), "pool.cxl")
	md, err := CreateMapDevice(path, Config{Words: words, MaxClients: 8, CountAccesses: true})
	if err != nil {
		t.Fatalf("CreateMapDevice: %v", err)
	}
	t.Cleanup(func() { md.Close() })
	return md
}

func TestMapDeviceRoundTrip(t *testing.T) {
	md := newTestMapDevice(t, 256)
	h := md.Open(1)
	for a := Addr(1); a < 256; a++ {
		h.Store(a, a*7+1)
	}
	for a := Addr(1); a < 256; a++ {
		if got := h.Load(a); got != a*7+1 {
			t.Fatalf("word %d: %d", a, got)
		}
	}
	if md.Words() != 256 || md.MaxClients() != 8 {
		t.Fatalf("geometry: %d words, %d clients", md.Words(), md.MaxClients())
	}
}

func TestMapDeviceReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pool.cxl")
	md, err := CreateMapDevice(path, Config{Words: 128, MaxClients: 4})
	if err != nil {
		t.Fatal(err)
	}
	md.Store(5, 12345)
	// Another mapping of the file (a recovery service in another process)
	// fences client 2 and persists it: the handle opened before the fence
	// stays fenced.
	h := md.Open(2)
	other, err := OpenMapDevice(path)
	if err != nil {
		t.Fatal(err)
	}
	other.FenceClient(2)
	if err := other.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if err := other.Close(); err != nil {
		t.Fatal(err)
	}
	h.Store(5, 999)
	if !h.Fenced() || md.Load(5) != 12345 {
		t.Fatalf("pre-fence handle: fenced %v, word 5 = %d; want fenced and 12345", h.Fenced(), md.Load(5))
	}
	if err := md.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	md2, err := OpenMapDevice(path)
	if err != nil {
		t.Fatalf("OpenMapDevice: %v", err)
	}
	defer md2.Close()
	if md2.Words() != 128 || md2.MaxClients() != 4 {
		t.Fatalf("reopened geometry: %d words, %d clients", md2.Words(), md2.MaxClients())
	}
	if got := md2.Load(5); got != 12345 {
		t.Fatalf("word 5 after reopen: %d", got)
	}
	// RAS fence state lives in the file too: the fence epoch a previous
	// process advanced survives into the next one, whose handles start from
	// it.
	if got := md2.fence[2].Load(); got != 1 {
		t.Fatalf("fence epoch after reopen: %d, want 1", got)
	}
	if h2 := md2.Open(2); h2.Fenced() {
		t.Fatal("a handle opened after the reopen starts fenced")
	}
}

// TestMapDeviceSharedMapping maps the same file twice — the in-process
// equivalent of two OS processes attaching one pool — and checks that
// stores and RAS fences through one mapping are visible through the other.
func TestMapDeviceSharedMapping(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pool.cxl")
	a, err := CreateMapDevice(path, Config{Words: 64, MaxClients: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := OpenMapDevice(path)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	ha := a.Open(1)
	hb := b.Open(2)
	ha.Store(10, 77)
	if got := hb.Load(10); got != 77 {
		t.Fatalf("store via mapping A not visible via B: %d", got)
	}
	if !hb.CAS(10, 77, 88) {
		t.Fatal("CAS via mapping B on A's store")
	}
	if got := ha.Load(10); got != 88 {
		t.Fatalf("CAS via B not visible via A: %d", got)
	}

	// Mapping B fences client 1 (recovery in another process); client 1's
	// writes through mapping A must be dropped.
	b.FenceClient(1)
	ha.Store(10, 1000)
	if got := hb.Load(10); got != 88 {
		t.Fatalf("fenced cross-mapping store leaked: %d", got)
	}
	// Client 1's next incarnation, opened through mapping A after the
	// fence, writes; the old handle stays fenced.
	a.Open(1).Store(10, 2000)
	ha.Store(10, 3000)
	if got := hb.Load(10); got != 2000 || !ha.Fenced() {
		t.Fatalf("after re-open: word %d, old handle fenced %v; want 2000 and fenced", got, ha.Fenced())
	}
}

func TestMapDeviceOpenErrors(t *testing.T) {
	dir := t.TempDir()

	if _, err := OpenMapDevice(filepath.Join(dir, "missing.cxl")); err == nil {
		t.Fatal("open of missing file must fail")
	}

	// Not a map file at all.
	junk := filepath.Join(dir, "junk.cxl")
	if err := os.WriteFile(junk, []byte("definitely not a pool file, but long enough to read"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenMapDevice(junk); err == nil {
		t.Fatal("open of junk file must fail")
	}

	// Truncated file: valid header, missing words.
	path := filepath.Join(dir, "trunc.cxl")
	md, err := CreateMapDevice(path, Config{Words: 1 << 12, MaxClients: 4})
	if err != nil {
		t.Fatal(err)
	}
	md.Close()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, st.Size()-4096); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenMapDevice(path); err == nil {
		t.Fatal("open of truncated file must fail")
	}

	// A version 1 file (32-bit fence flags) is refused, not misread.
	v1 := filepath.Join(dir, "v1.cxl")
	md, err = CreateMapDevice(v1, Config{Words: 64, MaxClients: 4})
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint64(md.data[8:], 1)
	md.Close()
	if _, err := OpenMapDevice(v1); err == nil || !strings.Contains(err.Error(), "format version 1") {
		t.Fatalf("open of a version 1 file: err=%v, want a format version error", err)
	}

	// Creating over an existing file must fail (no silent clobber).
	if _, err := CreateMapDevice(junk, Config{Words: 64, MaxClients: 4}); err == nil {
		t.Fatal("create over existing file must fail")
	}
}

func TestAnonMapDevice(t *testing.T) {
	md, err := NewAnonMapDevice(Config{Words: 128, MaxClients: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer md.Close()
	h := md.Open(1)
	h.Store(3, 9)
	if h.Load(3) != 9 {
		t.Fatal("anon map device round trip")
	}
	// The backing temp file is already unlinked.
	if p := md.Path(); p != "" {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("anon backing file %s still linked", p)
		}
	}
}

func TestMapDeviceStats(t *testing.T) {
	md := newTestMapDevice(t, 64)
	md.ResetStats()
	h := md.Open(1)
	h.Store(1, 1)
	h.Load(1)
	h.CAS(1, 1, 2)
	s := md.Stats()
	if s.Stores != 1 || s.Loads != 1 || s.CASes != 1 {
		t.Fatalf("stats = %+v", s)
	}
}
