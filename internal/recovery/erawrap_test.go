package recovery_test

import (
	"math"
	"testing"

	"repro/internal/layout"
	"repro/internal/recovery"
)

// A client's era counts every transaction of every incarnation of its slot,
// so a long-lived slot carries it past 2³², the width of a header's lera.
// Here x's era is pre-stored 6 below that line, o witnesses x's allocation
// of A just under it, and x bumps past it before an AttachRoot(A) that is cut
// before each of its writes. Recovery must judge the attach by what x did
// after the wrap: o's pre-wrap witness is no evidence of it. If recovery
// replays an attach that never committed, A's count ends one short and o's
// release frees A under a live reference; and no witness may read above the
// era its owner published.
func TestEraWrapDoesNotCommitUncommitted(t *testing.T) {
	eachWrite(t, func(t *testing.T, f *fault) {
		p := newTestPool(t, f.hook())
		defer p.CloseDevice()
		geo := p.Geometry()
		svc, err := recovery.NewService(p)
		if err != nil {
			t.Fatal(err)
		}
		x := connect(t, p)
		cid := x.ID()
		if err := x.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := svc.RecoverClient(cid); err != nil {
			t.Fatal(err)
		}
		p.Device().Store(geo.EraAddr(cid, cid), layout.MaxEra-6)
		if x = connect(t, p); x.ID() != cid {
			t.Fatalf("reconnect took slot %d, want %d", x.ID(), cid)
		}
		o := connect(t, p)

		_, a, err := x.Malloc(64, 0) // x's root on A goes with x's recovery
		if err != nil {
			t.Fatal(err)
		}
		oRoot, err := o.AttachRoot(a)
		if err != nil {
			t.Fatal(err)
		}
		// Owner's drops bump nothing; each malloc bumps once. Test the low
		// half, which is what a header carries.
		for lo := uint32(x.Era()); lo < 1 || lo > 4; lo = uint32(x.Era()) {
			r, _, err := x.Malloc(32, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := x.ReleaseRoot(r); err != nil {
				t.Fatal(err)
			}
		}

		f.crash(cid, func() { _, _ = x.AttachRoot(a) })
		if err := p.MarkClientDead(cid); err != nil {
			t.Fatal(err)
		}
		if _, err := svc.RecoverClient(cid); err != nil {
			t.Fatalf("recover x: %v", err)
		}
		if _, err := o.ReleaseRoot(oRoot); err != nil {
			t.Fatalf("o's release of A: %v", err)
		}
		if err := o.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := svc.RecoverClient(o.ID()); err != nil {
			t.Fatalf("recover o: %v", err)
		}
		mon := recovery.NewMonitor(svc, recovery.MonitorConfig{Threshold: math.MaxInt32})
		for i := 0; i < 4; i++ {
			mon.Tick()
		}
		if res := mustClean(t, p, "era wrap"); res.AllocatedObjects != 0 {
			t.Fatalf("%d objects left allocated", res.AllocatedObjects)
		}
	})
}
