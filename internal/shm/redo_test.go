package shm

import (
	"testing"

	"repro/internal/layout"
)

// TestRedoClearedBeforeItsEraAliases: a redo entry keeps its era's low 32
// bits, so an entry left behind by a client whose eras run on with nothing
// logged would read as in flight again 2³² eras later. bumpEra clears it
// once the era is 2³¹ past it. Here the client's era jumps as if 2³¹ − 1
// mallocs had run since its last logged transaction; the entry must survive
// up to that bump and be gone after the next one.
func TestRedoClearedBeforeItsEraAliases(t *testing.T) {
	p, err := NewPool(Config{Geometry: layout.GeometryConfig{
		MaxClients: 4, NumSegments: 8, SegmentWords: 1 << 13, PageWords: 1 << 9, MaxQueues: 4,
	}})
	if err != nil {
		t.Fatal(err)
	}
	c, err := p.Connect()
	if err != nil {
		t.Fatal(err)
	}
	_, b, err := c.Malloc(64, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.AttachRoot(b); err != nil {
		t.Fatal(err)
	}
	e, ok := p.ReadRedo(c.ID())
	if !ok || e.Op != OpAttach || uint64(e.Era) != c.logEra {
		t.Fatalf("after AttachRoot: entry %+v ok=%v, want an attach at era %d", e, ok, c.logEra)
	}
	c.era = c.logEra + 1<<31 - 2
	if _, _, err := c.Malloc(64, 0); err != nil {
		t.Fatal(err)
	}
	if _, ok := p.ReadRedo(c.ID()); !ok {
		t.Fatalf("entry cleared %d eras after it was logged, before the 2³¹ line", c.era-c.logEra)
	}
	if _, _, err := c.Malloc(64, 0); err != nil {
		t.Fatal(err)
	}
	if e, ok := p.ReadRedo(c.ID()); ok {
		t.Fatalf("entry %+v still valid %d eras after it was logged", e, c.era-c.logEra)
	}
}
