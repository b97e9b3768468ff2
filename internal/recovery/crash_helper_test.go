package recovery_test

// The package's one crash helper: every injected crash in these tests is
// "the victim dies before its Nth device write", delivered from outside the
// product by a faultinject.AccessSweeper installed as the pool device's
// access hook (one sweeper per victim; chain composes them).

import (
	"fmt"
	"testing"

	"repro/internal/cxl"
	"repro/internal/faultinject"
)

// fault is one victim's injector for one run of a story. n is the write to
// die before; n == 0 is the counting pass, which crashes nothing and
// leaves the number of writes the victim issued in writes.
type fault struct {
	sw     *faultinject.AccessSweeper
	n      int
	writes int
}

func newFault(n int) *fault {
	return &fault{sw: faultinject.NewAccessSweeper(), n: n}
}

// hook is the access hook to build the story's pool with.
func (f *fault) hook() cxl.AccessHook { return f.sw.Hook }

// chain composes access hooks into one that runs them in order; nil when
// there are none.
func chain(hooks ...cxl.AccessHook) cxl.AccessHook {
	if len(hooks) == 0 {
		return nil
	}
	return func(cid int, kind cxl.AccessKind, a cxl.Addr) {
		for _, h := range hooks {
			h(cid, kind, a)
		}
	}
}

// arm starts the window in which victim's writes count (victim -1: every
// client and the management plane). The story wraps each victim action in
// faultinject.Run until disarm.
func (f *fault) arm(victim int) {
	f.sw.SetVictim(victim)
	if f.n == 0 {
		f.sw.StartCounting()
	} else {
		f.sw.Arm(f.n)
	}
}

func (f *fault) disarm() { f.writes = f.sw.StopCounting() }

// crash runs op as a single armed window and reports the crash, if any.
func (f *fault) crash(victim int, op func()) *faultinject.Crash {
	f.arm(victim)
	defer f.disarm()
	return faultinject.Run(op)
}

// eachWrite runs story once uninjected to count the device writes its armed
// window issues, then once per write index with the victim dying before that
// write. story builds a fresh pool on f.hook(), reaches the operation under
// test, passes it to f.crash, then recovers and validates — also on the
// counting pass, where the victim dies after its last write. A failure is
// reported under the subtest "write=N", which is the repro coordinate.
func eachWrite(t *testing.T, story func(t *testing.T, f *fault)) {
	t.Helper()
	count := newFault(0)
	story(t, count)
	if count.writes == 0 {
		t.Fatal("the operation under test issued no device writes")
	}
	for n := 1; n <= count.writes; n++ {
		t.Run(fmt.Sprintf("write=%d", n), func(t *testing.T) { story(t, newFault(n)) })
	}
}
