package recovery_test

// The monitor rescans an ABANDONED segment because something happened to it
// — a free into it flags it, and so does a scan that left work pending — and
// otherwise only every 128th tick. Each test below proves one way the flag
// can go missing and what bounds the delay; the access hook is the
// scheduling point, as in shm's TestDeadOwnerScanWaitsForLivePush.

import (
	"math"
	"testing"

	"repro/internal/cxl"
	"repro/internal/layout"
	"repro/internal/obs"
	"repro/internal/recovery"
	"repro/internal/shm"
)

// abandoned is a dead, recovered owner's segment that stays ABANDONED under
// two blocks a survivor holds, and a monitor that has ticked once over it.
type abandoned struct {
	p        *shm.Pool
	svc      *recovery.Service
	mon      *recovery.Monitor
	survivor *shm.Client
	roots    [2]layout.Addr // the survivor's references into seg
	seg      int
	stateA   layout.Addr
	// hook, when set, sees every device access of every client.
	hook func(cid int, kind cxl.AccessKind, a cxl.Addr)
}

func newAbandoned(t *testing.T) *abandoned {
	t.Helper()
	f := &abandoned{}
	f.p = newTestPool(t, func(cid int, kind cxl.AccessKind, a cxl.Addr) {
		if f.hook != nil {
			f.hook(cid, kind, a)
		}
	})
	t.Cleanup(func() { f.p.CloseDevice() })
	var err error
	if f.svc, err = recovery.NewService(f.p); err != nil {
		t.Fatal(err)
	}
	f.survivor = connect(t, f.p)
	owner := connect(t, f.p)
	for i := range f.roots {
		_, block, err := owner.Malloc(64, 0)
		if err != nil {
			t.Fatal(err)
		}
		if f.roots[i], err = f.survivor.AttachRoot(block); err != nil {
			t.Fatal(err)
		}
		f.seg = f.p.Geometry().SegmentIndexOf(block)
	}
	f.stateA = f.p.Geometry().SegStateAddr(f.seg)
	if err := f.p.MarkClientDead(owner.ID()); err != nil {
		t.Fatal(err)
	}
	if _, err := f.svc.RecoverClient(owner.ID()); err != nil {
		t.Fatal(err)
	}
	f.mon = recovery.NewMonitor(f.svc, recovery.MonitorConfig{Threshold: math.MaxInt32})
	f.mon.Tick()
	if st := f.state(); st.State != layout.SegAbandoned || st.Flags != 0 {
		t.Fatalf("segment %d after its owner's recovery and one tick: %+v, want ABANDONED, unflagged", f.seg, st)
	}
	return f
}

func (f *abandoned) state() layout.SegState { return f.p.SegState(f.seg) }

func (f *abandoned) release(t *testing.T, i int) {
	t.Helper()
	if freed, err := f.survivor.ReleaseRoot(f.roots[i]); err != nil || !freed {
		t.Fatalf("survivor ReleaseRoot: freed=%v err=%v", freed, err)
	}
}

// scans counts the dead-owner scans the service's executor has run.
func (f *abandoned) scans() uint64 { return f.svc.Executor().Count(obs.CtrScanPass) }

// ticksUntilFree ticks mon until the segment is FREE and returns how many
// ticks that took; the backstop's bound is the test's failure.
func (f *abandoned) ticksUntilFree(t *testing.T, mon *recovery.Monitor) int {
	t.Helper()
	for n := 1; n <= 128; n++ {
		mon.Tick()
		if f.state().State == layout.SegFree {
			return n
		}
	}
	t.Fatalf("segment %d still %+v after 128 ticks", f.seg, f.state())
	return 0
}

// A free into an ABANDONED segment flags it, an untouched segment is not
// scanned, and the last free returns the segment at the very next tick.
func TestAbandonedSegmentFreedAtNextTick(t *testing.T) {
	f := newAbandoned(t)
	before := f.scans()
	for i := 0; i < 5; i++ {
		f.mon.Tick()
	}
	if got := f.scans(); got != before {
		t.Fatalf("%d scans in five ticks over a segment nothing happened to", got-before)
	}
	f.release(t, 0)
	if st := f.state(); st.Flags&layout.SegFlagPotentialLeaking == 0 {
		t.Fatalf("a free into the ABANDONED segment left it unflagged: %+v", st)
	}
	f.mon.Tick() // flagged: scanned, one block still live, flag cleared
	if st := f.state(); st.State != layout.SegAbandoned || st.Flags != 0 || f.scans() != before+1 {
		t.Fatalf("after the tick that followed the first free: %+v, %d scans", st, f.scans()-before)
	}
	f.release(t, 1)
	if n := f.ticksUntilFree(t, f.mon); n != 1 {
		t.Fatalf("segment FREE %d ticks after its last block went, want 1", n)
	}
}

// The lost event: the last free lands after the walker has passed the block,
// on a flag that is already set — so it adds none — and the scan, having seen
// the block live, clears the flag. Nothing announces the segment any more;
// the 128-tick backstop finds it.
func TestFreeBehindTheWalkerIsFoundByTheBackstop(t *testing.T) {
	f := newAbandoned(t)
	f.release(t, 0) // flags
	exec, raced := f.svc.Executor().ID(), false
	f.hook = func(cid int, kind cxl.AccessKind, a cxl.Addr) {
		// The scan's one CAS on the state word clears the flag, past its walk.
		if cid == exec && kind == cxl.OpCAS && a == f.stateA && !raced {
			raced = true
			f.release(t, 1)
		}
	}
	f.mon.Tick()
	f.hook = nil
	if !raced {
		t.Fatal("the scan never came to clear the flag")
	}
	if st := f.state(); st.State != layout.SegAbandoned || st.Flags != 0 {
		t.Fatalf("after the raced scan: %+v, want ABANDONED with the flag cleared", st)
	}
	n := f.ticksUntilFree(t, f.mon)
	if n < 2 {
		t.Fatalf("segment FREE after %d ticks: the free was not lost, the test proves nothing", n)
	}
	t.Logf("segment FREE %d ticks after the scan that lost its last free", n)
}

// The stale word: a root sweep reads the target segment's state word, flagged,
// before its release transaction begins; another executor's scan, seeing the
// target still live, clears the flag; the sweep's free-mark lands, and its
// rescan request, trusting the flagged word it holds, does nothing.
func TestFreeOnAStaleFlaggedWordIsFoundByTheBackstop(t *testing.T) {
	f := newAbandoned(t)
	target := f.survivor.RootTarget(f.roots[0])
	holder, scanner := connect(t, f.p), connect(t, f.p)
	if _, err := holder.AttachRoot(target); err != nil {
		t.Fatal(err)
	}
	if freed, err := f.survivor.ReleaseRoot(f.roots[0]); err != nil || freed {
		t.Fatalf("survivor ReleaseRoot of the shared block: freed=%v err=%v", freed, err)
	}
	f.release(t, 1) // flags
	if err := f.p.MarkClientDead(holder.ID()); err != nil {
		t.Fatal(err)
	}
	exec, raced := f.svc.Executor().ID(), false
	f.hook = func(cid int, kind cxl.AccessKind, a cxl.Addr) {
		// The sweep's header load follows its load of the state word.
		if cid == exec && kind == cxl.OpLoad && a == target+layout.HeaderOff && !raced {
			raced = true
			if rep := scanner.ScanSegment(f.seg, true); rep.Live != 1 || rep.Freed {
				t.Errorf("the racing scan: %+v, want one live block", rep)
			}
			if st := f.state(); st.Flags != 0 {
				t.Errorf("the racing scan left %+v, want the flag cleared", st)
			}
		}
	}
	if _, err := f.svc.RecoverClient(holder.ID()); err != nil {
		t.Fatal(err)
	}
	f.hook = nil
	if !raced {
		t.Fatal("the sweep never loaded its target's header")
	}
	if st := f.state(); st.State != layout.SegAbandoned || st.Flags != 0 {
		t.Fatalf("after the sweep's free: %+v, want ABANDONED and unflagged", st)
	}
	n := f.ticksUntilFree(t, f.mon)
	if n < 2 {
		t.Fatalf("segment FREE after %d ticks: the request was not lost, the test proves nothing", n)
	}
	t.Logf("segment FREE %d ticks after the free whose request was lost", n)
}

// The flag is cleared by hand (a repair action, a stuck CAS, any writer this
// design did not think of) over a segment whose blocks are all free.
func TestHandClearedFlagIsFoundByTheBackstop(t *testing.T) {
	f := newAbandoned(t)
	f.release(t, 0)
	f.release(t, 1)
	st := f.state()
	st.Flags = 0
	f.p.Device().Store(f.stateA, layout.PackSegState(st))
	n := f.ticksUntilFree(t, f.mon)
	if n < 2 {
		t.Fatalf("segment FREE after %d ticks without its flag", n)
	}
	t.Logf("segment FREE %d ticks after its flag was cleared", n)
}

// The scanner is killed mid-walk and the recovery service restarted: the new
// monitor's first tick scans every ABANDONED segment it finds, flagged or not.
func TestScannerKilledMidWalkServiceRestarted(t *testing.T) {
	f := newAbandoned(t)
	f.release(t, 0)
	f.release(t, 1)
	exec, walked := f.svc.Executor().ID(), 0
	f.hook = func(cid int, kind cxl.AccessKind, a cxl.Addr) {
		if cid == exec && kind == cxl.OpLoad && f.p.Geometry().SegmentIndexOf(a) == f.seg {
			if walked++; walked == 8 {
				panic("scanner killed mid-walk")
			}
		}
	}
	f.mon.Tick()
	f.hook = nil
	if fails := f.mon.Failures(); len(fails) != 1 || fails[0].Op != "scan" || f.state().State != layout.SegAbandoned {
		t.Fatalf("the killed scan: failures %+v, segment %+v", fails, f.state())
	}
	// Its flag may or may not have survived the dead scanner; take it away.
	st := f.state()
	st.Flags = 0
	f.p.Device().Store(f.stateA, layout.PackSegState(st))
	if err := f.p.MarkClientDead(exec); err != nil {
		t.Fatal(err)
	}
	svc, err := recovery.NewService(f.p)
	if err != nil {
		t.Fatal(err)
	}
	mon := recovery.NewMonitor(svc, recovery.MonitorConfig{Threshold: math.MaxInt32})
	if n := f.ticksUntilFree(t, mon); n != 1 {
		t.Fatalf("segment FREE %d ticks after the restart, want 1", n)
	}
	if fails := mon.Failures(); len(fails) > 0 {
		t.Fatalf("restarted monitor: %+v", fails[0])
	}
	mustClean(t, f.p, "after the restart")
}
