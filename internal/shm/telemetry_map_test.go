//go:build unix

package shm_test

import (
	"fmt"
	"path/filepath"
	"runtime/debug"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/shm"
)

// TestTelemetryCrossMappingVisibility publishes through one mapping of a
// pool file and reads through a second, concurrently live mapping: the
// telemetry region rides in the pool words, so a publication is visible to
// every mapping the moment its commit word lands — no copies, no IPC.
func TestTelemetryCrossMappingVisibility(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pool.cxl")
	p1, err := shm.NewPool(shm.Config{Geometry: mapGeometry, File: path})
	if err != nil {
		t.Fatal(err)
	}
	defer p1.CloseDevice()
	c := connect(t, p1)
	for i := 0; i < 5; i++ {
		if _, _, err := c.Malloc(64, 0); err != nil {
			t.Fatal(err)
		}
	}
	c.FlushMetrics()

	p2, err := shm.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.CloseDevice()
	if err := p2.Telemetry().Validate(); err != nil {
		t.Fatal(err)
	}
	b, ok := p2.Telemetry().ReadBlock(c.ID())
	if !ok || !b.Consistent {
		t.Fatalf("second mapping cannot read client %d's block (ok=%v consistent=%v)", c.ID(), ok, b.Consistent)
	}
	if got := b.Counters[obs.CtrAlloc]; got != 5 {
		t.Errorf("second mapping sees alloc=%d, want 5", got)
	}

	// A later publication through mapping 1 is immediately visible in 2.
	if _, _, err := c.Malloc(64, 0); err != nil {
		t.Fatal(err)
	}
	c.FlushMetrics()
	b, _ = p2.Telemetry().ReadBlock(c.ID())
	if got := b.Counters[obs.CtrAlloc]; got != 6 {
		t.Errorf("second mapping sees alloc=%d after sixth malloc, want 6", got)
	}
}

// TestTelemetryReadOnlyAttach covers the observer attach path: a PROT_READ
// mapping reads every published vector of a pool it does not own, and any
// attempted mutation through it panics by name instead of corrupting the
// pool (or SIGSEGVing from the MMU).
func TestTelemetryReadOnlyAttach(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pool.cxl")
	p1, err := shm.NewPool(shm.Config{Geometry: mapGeometry, File: path})
	if err != nil {
		t.Fatal(err)
	}
	c := connect(t, p1)
	for i := 0; i < 3; i++ {
		if _, _, err := c.Malloc(64, 0); err != nil {
			t.Fatal(err)
		}
	}
	c.FlushMetrics()
	cid := c.ID()
	if err := p1.CloseDevice(); err != nil {
		t.Fatal(err)
	}

	ro, err := shm.OpenFileReadOnly(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ro.CloseDevice()
	if got := shm.BackendName(ro.Device()); got != "mmap" {
		t.Errorf("read-only attach backend = %q, want mmap", got)
	}
	if err := ro.Telemetry().Validate(); err != nil {
		t.Fatal(err)
	}
	b, ok := ro.Telemetry().ReadBlock(cid)
	if !ok || b.Counters[obs.CtrAlloc] != 3 {
		t.Fatalf("read-only mapping: block ok=%v alloc=%d, want ok alloc=3", ok, b.Counters[obs.CtrAlloc])
	}
	snap := ro.Telemetry().Snapshot()
	if len(snap.Clients) != 1 {
		t.Errorf("read-only snapshot holds %d client blocks, want 1", len(snap.Clients))
	}

	// Every write path through the read-only mapping must panic by name —
	// at a valid in-pool address, so that neither the wild-address check nor
	// the MMU can stand in for the read-only guard. With panic-on-fault, a
	// missing guard shows as a fault that does not name the mapping.
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	denied := func(what string, f func()) {
		t.Helper()
		msg := func() (msg string) {
			defer func() { msg = fmt.Sprint(recover()) }()
			f()
			return
		}()
		if !strings.Contains(msg, "read-only pool mapping") {
			t.Errorf("%s through a read-only mapping: panic %q, want one naming the read-only mapping", what, msg)
		}
	}
	dev, a := ro.Device(), ro.Geometry().ClientStatusAddr(cid)
	denied("Store", func() { dev.Store(a, 1) })
	denied("CAS", func() { dev.CAS(a, dev.Load(a), 1) })
	denied("FenceClient", func() { dev.FenceClient(cid) })
	denied("Open", func() { dev.Open(cid) })
	denied("telemetry write", func() { ro.Telemetry().PoolAdd(obs.CtrMonitorTick, 1) })
	denied("Connect", func() { ro.Connect() })
}
