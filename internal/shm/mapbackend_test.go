//go:build unix

package shm_test

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cxl"
	"repro/internal/kv"
	"repro/internal/layout"
	"repro/internal/recovery"
	"repro/internal/shm"
)

// These tests cover the cross-process story end to end: a pool created on
// an mmap'd file by one "process" (mapping) is reopened alive by another,
// the dead owner's clients are recovered, and the full pool validator comes
// back clean. Dual mappings of one file stand in for two OS processes —
// the data path is byte-identical.

var mapGeometry = layout.GeometryConfig{
	MaxClients:   8,
	NumSegments:  16,
	SegmentWords: 1 << 13,
	PageWords:    1 << 9,
	MaxQueues:    8,
}

func TestMapPoolCrashReopenRecover(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pool.cxl")

	// Process 1: create a file-backed pool, allocate a mess, crash.
	p1, err := shm.NewPool(shm.Config{Geometry: mapGeometry, File: path})
	if err != nil {
		t.Fatal(err)
	}
	owner := connect(t, p1)
	var keeper layout.Addr
	for i := 0; i < 200; i++ {
		_, block, err := owner.Malloc(64, 0)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			keeper = block
			owner.WriteData(block, 0, []byte("survives the process"))
		}
	}
	ownerID := owner.ID()
	// The "process" dies: unmap without releasing anything.
	if err := p1.CloseDevice(); err != nil {
		t.Fatal(err)
	}

	// Process 2: reopen the file alive, no copy.
	p2, err := shm.OpenFile(path)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	defer p2.CloseDevice()
	stale := p2.StaleClients()
	if len(stale) != 1 || stale[0] != ownerID {
		t.Fatalf("stale clients = %v, want [%d]", stale, ownerID)
	}

	// The data really is there before any recovery runs.
	reader := connect(t, p2)
	buf := make([]byte, 20)
	reader.ReadData(keeper, 0, buf)
	if string(buf) != "survives the process" {
		t.Fatalf("read %q across the reopen", buf)
	}

	// Recover the dead owner; everything it held is reclaimed.
	svc, err := recovery.NewService(p2)
	if err != nil {
		t.Fatal(err)
	}
	if err := p2.MarkClientDead(ownerID); err != nil {
		t.Fatal(err)
	}
	rep, err := svc.RecoverClient(ownerID)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SweptRoots != 200 {
		t.Fatalf("swept %d roots, want 200", rep.SweptRoots)
	}
	mon := recovery.NewMonitor(svc, recovery.MonitorConfig{})
	for i := 0; i < 4; i++ {
		mon.Tick()
	}
	res := mustValidate(t, p2)
	if res.AllocatedObjects != 0 {
		t.Fatalf("%d objects leaked across the process boundary", res.AllocatedObjects)
	}
}

func TestMapPoolQueueAcrossMappings(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pool.cxl")
	p1, err := shm.NewPool(shm.Config{Geometry: mapGeometry, File: path})
	if err != nil {
		t.Fatal(err)
	}
	defer p1.CloseDevice()
	snd := connect(t, p1)

	// The receiver lives on a second mapping of the same file.
	p2, err := shm.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.CloseDevice()
	rcv := connect(t, p2)

	qroot, q, err := snd.CreateQueue(rcv.ID(), 8)
	if err != nil {
		t.Fatal(err)
	}
	rq, err := rcv.OpenQueue(q)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		root, block, err := snd.Malloc(64, 0)
		if err != nil {
			t.Fatal(err)
		}
		snd.WriteData(block, 0, []byte{byte(i)})
		if err := snd.Send(q, block); err != nil {
			t.Fatal(err)
		}
		if _, err := snd.ReleaseRoot(root); err != nil {
			t.Fatal(err)
		}
		rroot, rblock, err := rcv.Receive(q)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 1)
		rcv.ReadData(rblock, 0, got)
		if got[0] != byte(i) {
			t.Fatalf("item %d read back %d through the other mapping", i, got[0])
		}
		if _, err := rcv.ReleaseRoot(rroot); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := snd.ReleaseRoot(qroot); err != nil {
		t.Fatal(err)
	}
	if _, err := rcv.ReleaseRoot(rq); err != nil {
		t.Fatal(err)
	}
	mustValidate(t, p1)
}

func TestOpenFileRejectsForeignPools(t *testing.T) {
	dir := t.TempDir()

	// A raw MapDevice that was never formatted as a pool.
	blank := filepath.Join(dir, "blank.cxl")
	md, err := cxl.CreateMapDevice(blank, cxl.Config{Words: 1 << 12, MaxClients: 4})
	if err != nil {
		t.Fatal(err)
	}
	md.Close()
	if _, err := shm.OpenFile(blank); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("unformatted pool file: %v", err)
	}

	// A formatted pool whose layout version is from a different build.
	vpath := filepath.Join(dir, "oldver.cxl")
	p, err := shm.NewPool(shm.Config{Geometry: mapGeometry, File: vpath})
	if err != nil {
		t.Fatal(err)
	}
	p.Device().Store(layout.SuperOffVersion, layout.LayoutVersion+7)
	if err := p.CloseDevice(); err != nil {
		t.Fatal(err)
	}
	_, err = shm.OpenFile(vpath)
	if err == nil || !strings.Contains(err.Error(), "layout version") {
		t.Fatalf("version mismatch: %v", err)
	}
}

// newFilePool formats a pool on a fresh file and returns it with the path.
func newFilePool(t *testing.T) (*shm.Pool, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "pool.cxl")
	p, err := shm.NewPool(shm.Config{Geometry: mapGeometry, File: path})
	if err != nil {
		t.Fatal(err)
	}
	return p, path
}

// reincarnate unmaps p — every client of it vanishes at once, releasing
// nothing — and reopens its file as the next incarnation.
func reincarnate(t *testing.T, p *shm.Pool, path string) *shm.Pool {
	t.Helper()
	if err := p.CloseDevice(); err != nil {
		t.Fatal(err)
	}
	p2, err := shm.OpenFile(path)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	t.Cleanup(func() { p2.CloseDevice() })
	return p2
}

// recoverAll recovers the given dead clients and runs background
// maintenance until abandoned segments drain.
func recoverAll(t *testing.T, p *shm.Pool, cids ...int) {
	t.Helper()
	svc, err := recovery.NewService(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, cid := range cids {
		// Fence first: RecoverClient refuses ALIVE slots (a stale request
		// must never fence a recycled lease), and a previous incarnation's
		// clients are still ALIVE on the device.
		if err := p.MarkClientDead(cid); err != nil {
			t.Fatalf("fence %d: %v", cid, err)
		}
		if _, err := svc.RecoverClient(cid); err != nil {
			t.Fatalf("recover %d: %v", cid, err)
		}
	}
	mon := recovery.NewMonitor(svc, recovery.MonitorConfig{})
	for i := 0; i < 4; i++ {
		mon.Tick()
	}
}

// TestSnapshotSurvivesTotalClientLoss models the paper's Figure 1 setup:
// the CXL device has its own PSU, so its contents outlive every compute
// node. All clients vanish (machine failure), the pool file is attached by a
// fresh incarnation, the stale clients are recovered, and data held by named
// roots is still there.
func TestSnapshotSurvivesTotalClientLoss(t *testing.T) {
	// --- first incarnation ---
	p1, path := newFilePool(t)
	w := connect(t, p1)
	s1, err := kv.Create(w, 0, 64, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 100; k++ {
		if err := s1.Put(k, []byte{byte(k), 0x5A}); err != nil {
			t.Fatal(err)
		}
	}
	// Another client holds an unshared object that must NOT survive (it has
	// no named root; its owner is gone for good).
	loner := connect(t, p1)
	if _, _, err := loner.Malloc(64, 0); err != nil {
		t.Fatal(err)
	}

	// --- second incarnation: nobody exited cleanly; only the file is left ---
	p2 := reincarnate(t, p1, path)
	stale := p2.StaleClients()
	if len(stale) != 2 {
		t.Fatalf("stale clients = %v, want 2", stale)
	}
	recoverAll(t, p2, stale...)

	// The KV store survives via its named root; the loner's object is gone.
	res := mustValidate(t, p2)
	if res.AllocatedObjects != 101 { // index + 100 records
		t.Fatalf("allocated=%d, want 101", res.AllocatedObjects)
	}
	c2 := connect(t, p2)
	s2, err := kv.Open(c2, 0)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	for k := uint64(0); k < 100; k++ {
		if _, err := s2.Get(k, buf); err != nil {
			t.Fatalf("get %d after reincarnation: %v", k, err)
		}
		if !bytes.Equal(buf[:2], []byte{byte(k), 0x5A}) {
			t.Fatalf("key %d corrupted: %v", k, buf[:2])
		}
	}
	// The new incarnation is fully operational: write, delete, drop.
	if err := s2.Put(7, []byte{7, 0xEE}); err != nil {
		t.Fatal(err)
	}
	if err := c2.UnpublishRoot(0); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	if res := mustValidate(t, p2); res.AllocatedObjects != 0 {
		t.Fatalf("%d objects left after teardown", res.AllocatedObjects)
	}
}

func TestSnapshotPreservesEraMatrix(t *testing.T) {
	p1, path := newFilePool(t)
	c := connect(t, p1)
	for i := 0; i < 10; i++ {
		root, _, err := c.Malloc(32, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.ReleaseRoot(root); err != nil {
			t.Fatal(err)
		}
	}
	cid, eraBefore := c.ID(), c.Era()
	p2 := reincarnate(t, p1, path)
	recoverAll(t, p2, p2.StaleClients()...)
	// A new client reusing the slot must continue the era sequence, never
	// restart it (committed-era uniqueness across incarnations).
	c2 := connect(t, p2)
	if c2.ID() == cid && c2.Era() <= eraBefore {
		t.Fatalf("era restarted: %d after %d", c2.Era(), eraBefore)
	}
}

func TestAttachSnapshotRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	if _, err := shm.OpenFile(filepath.Join(dir, "missing.cxl")); err == nil {
		t.Fatal("missing file accepted")
	}
	empty := filepath.Join(dir, "empty.cxl")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := shm.OpenFile(empty); err == nil {
		t.Fatal("empty file accepted")
	}
	junk := filepath.Join(dir, "junk.cxl")
	if err := os.WriteFile(junk, bytes.Repeat([]byte{0xA5}, 1<<16), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := shm.OpenFile(junk); err == nil {
		t.Fatal("unformatted file accepted")
	}
	// Truncated pool: right superblock, wrong size.
	p, path := newFilePool(t)
	if err := p.CloseDevice(); err != nil {
		t.Fatal(err)
	}
	truncateHalf(t, path)
	if _, err := shm.OpenFile(path); err == nil {
		t.Fatal("truncated pool accepted")
	}
}

// truncateHalf cuts the file at path to half its size.
func truncateHalf(t *testing.T, path string) {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()/2); err != nil {
		t.Fatal(err)
	}
}

func TestAttachSnapshotValidatesSuperblock(t *testing.T) {
	p, path := newFilePool(t)
	c := connect(t, p)
	if _, _, err := c.Malloc(64, 0); err != nil {
		t.Fatal(err)
	}
	if err := p.CloseDevice(); err != nil {
		t.Fatal(err)
	}

	// A clean pool file attaches fine.
	p, err := shm.OpenFile(path)
	if err != nil {
		t.Fatalf("clean pool: %v", err)
	}

	// Each corruption is written through a mapping, checked, and undone.
	corrupt := func(a layout.Addr, v uint64, want string) {
		t.Helper()
		old := p.Device().Load(a)
		p.Device().Store(a, v)
		if _, err := shm.OpenFile(path); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("word %d = %#x: %v, want an error naming %q", a, v, err, want)
		}
		p.Device().Store(a, old)
	}
	corrupt(layout.SuperOffVersion, layout.LayoutVersion+1, "layout version")
	corrupt(layout.SuperOffMagic, 1, "magic")
	if err := p.CloseDevice(); err != nil {
		t.Fatal(err)
	}

	// Truncated file.
	truncateHalf(t, path)
	if _, err := shm.OpenFile(path); err == nil {
		t.Fatal("truncated pool must be rejected")
	}
}

func TestAttachMemoryRejectsWrongSize(t *testing.T) {
	p := newTestPool(t)
	geo := p.Geometry()
	// An oversized device carrying the pool's superblock: the superblock
	// geometry won't match the device size.
	dev, err := cxl.NewDevice(cxl.Config{Words: int(geo.TotalWords) + 4096, MaxClients: 16})
	if err != nil {
		t.Fatal(err)
	}
	layout.WriteSuperblock(dev, geo)
	if _, err := shm.AttachMemory(dev); err == nil || !strings.Contains(err.Error(), "words") {
		t.Fatalf("size mismatch: %v", err)
	}
}

func TestBackendSelection(t *testing.T) {
	// Explicit mmap backend via config.
	p, err := shm.NewPool(shm.Config{Geometry: mapGeometry, Backend: "mmap"})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := cxl.Bottom(p.Device()).(*cxl.MapDevice); !ok {
		t.Fatalf("Backend mmap built %T", cxl.Bottom(p.Device()))
	}
	c := connect(t, p)
	r, _, err := c.Malloc(64, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReleaseRoot(r); err != nil {
		t.Fatal(err)
	}
	if err := p.CloseDevice(); err != nil {
		t.Fatal(err)
	}

	if _, err := shm.NewPool(shm.Config{Geometry: mapGeometry, Backend: "floppy"}); err == nil {
		t.Fatal("unknown backend must be rejected")
	}
}
