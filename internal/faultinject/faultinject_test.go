package faultinject

import (
	"testing"

	"repro/internal/cxl"
)

func TestSweeperCrashesBeforeNthVictimWrite(t *testing.T) {
	s := NewAccessSweeper()
	s.SetVictim(2)
	s.Arm(3)
	landed := 0
	crash := Run(func() {
		for i := 0; i < 10; i++ {
			s.Hook(2, cxl.OpLoad, 0)  // loads never count
			s.Hook(1, cxl.OpStore, 0) // another client's write: ignored
			s.Hook(2, cxl.OpStore, 0)
			landed++
		}
	})
	if crash == nil || crash.Point != SweepPoint(3) {
		t.Fatalf("crash = %v, want %s", crash, SweepPoint(3))
	}
	if landed != 2 {
		t.Fatalf("%d victim writes landed before the crash, want 2", landed)
	}
}

func TestSweeperCountsStoresAndCASOnly(t *testing.T) {
	s := NewAccessSweeper()
	s.StartCounting()
	for _, k := range []cxl.AccessKind{cxl.OpLoad, cxl.OpStore, cxl.OpCAS, cxl.OpFlush, cxl.OpFence} {
		s.Hook(0, k, 0)
	}
	if got := s.StopCounting(); got != 2 {
		t.Fatalf("counted %d writes, want 2 (store + CAS)", got)
	}
	s.Hook(0, cxl.OpStore, 0) // off: must neither count nor crash
	if s.StopCounting() != 2 {
		t.Fatal("idle sweeper kept counting")
	}
}

func TestRunPropagatesForeignPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("foreign panic must propagate through Run")
		}
	}()
	Run(func() { panic("not a crash") })
}

func TestCrashErrorString(t *testing.T) {
	c := Crash{Point: SweepPoint(1)}
	if c.Error() == "" {
		t.Fatal("empty error string")
	}
}
