package layout

import (
	"strings"
	"testing"
)

// wordMem is a minimal in-package word store for superblock tests.
type wordMem []uint64

func (m wordMem) Load(a Addr) uint64     { return m[a] }
func (m wordMem) Store(a Addr, v uint64) { m[a] = v }

func testGeometry(t *testing.T) *Geometry {
	t.Helper()
	geo, err := NewGeometry(GeometryConfig{
		MaxClients: 8, NumSegments: 16, SegmentWords: 1 << 13, PageWords: 1 << 9, MaxQueues: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	return geo
}

func TestSuperblockRoundTrip(t *testing.T) {
	geo := testGeometry(t)
	m := make(wordMem, 64)
	WriteSuperblock(m, geo)

	sb := ReadSuperblock(m)
	if err := sb.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	got, err := sb.Geometry()
	if err != nil {
		t.Fatalf("Geometry: %v", err)
	}
	if got.TotalWords != geo.TotalWords || got.MaxClients != geo.MaxClients ||
		got.NumSegments != geo.NumSegments || got.SegmentWords != geo.SegmentWords ||
		got.PageWords != geo.PageWords || got.MaxQueues != geo.MaxQueues {
		t.Fatalf("reconstructed geometry differs: got %+v, want %+v", got, geo)
	}
}

func TestSuperblockRejectsBadMagic(t *testing.T) {
	geo := testGeometry(t)
	m := make(wordMem, 64)
	WriteSuperblock(m, geo)
	m[SuperOffMagic] = 0xdeadbeef
	if err := ReadSuperblock(m).Validate(); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("bad magic: %v", err)
	}
}

func TestSuperblockRejectsVersionMismatch(t *testing.T) {
	geo := testGeometry(t)
	m := make(wordMem, 64)
	WriteSuperblock(m, geo)
	for _, v := range []uint64{0, 1, LayoutVersion + 1} {
		m[SuperOffVersion] = v
		err := ReadSuperblock(m).Validate()
		if err == nil || !strings.Contains(err.Error(), "version") {
			t.Fatalf("version %d: %v", v, err)
		}
	}
}

func TestSuperblockRejectsBadGeometry(t *testing.T) {
	geo := testGeometry(t)
	m := make(wordMem, 64)
	WriteSuperblock(m, geo)
	m[SuperOffSegWords] = 3 // not a power of two
	if _, err := ReadSuperblock(m).Geometry(); err == nil {
		t.Fatal("invalid geometry must be rejected")
	}
}
