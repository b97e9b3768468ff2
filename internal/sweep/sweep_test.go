package sweep

import (
	"testing"

	"repro/internal/cxl"
	"repro/internal/layout"
)

func TestPositions(t *testing.T) {
	cases := []struct {
		w, cap int
		want   []int
	}{
		{0, 0, nil},
		{3, 0, []int{1, 2, 3}},
		{3, 5, []int{1, 2, 3}},
		{10, 4, []int{1, 4, 7, 10}},
		{7, 3, []int{1, 4, 7}},
		{100, 2, []int{1, 51, 100}},
	}
	for _, c := range cases {
		got := positions(c.w, c.cap)
		if len(got) != len(c.want) {
			t.Fatalf("positions(%d,%d) = %v, want %v", c.w, c.cap, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("positions(%d,%d) = %v, want %v", c.w, c.cap, got, c.want)
			}
		}
	}
}

// TestSweepBounded runs the whole phase-A sweep — every device write of every
// scripted op — on the heap backend (under a second), so `go test ./...`
// sees what `faultsim -sweep` sees. Any violation is a real
// crash-consistency bug; a lower op or position count means a PR quietly
// shrank the crash coverage (ROADMAP: "sweep positions not lower").
func TestSweepBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is slow")
	}
	vs, st, err := Run(Config{Backend: "heap"})
	if err != nil {
		t.Fatal(err)
	}
	// 1883: a release into a dead owner's segment pushes nothing (3 writes
	// fewer than the 1810 of the 32 ops before), the three remote-release
	// ops add 46, the free into an ABANDONED segment flags it (1), the data
	// writes gained 2, and zombie-after-recycle adds the new lessee's 27.
	// 1928: push-embed and push-embed-chain add 14 + 15, and free-embed's
	// cascade through the two objects they link adds 16.
	// 1786: an owner's drop of its last reference writes no redo entry and
	// bumps no era — release-root 8 → 3, free-embed 25 → 19, free-burst
	// 192 → 72, churn-extra 27 → 22, zombie-after-recycle 27 → 22,
	// release-queue 11 → 8.
	// 1788: send-batch and receive-batch became send-three 63 and
	// receive-three 66 (62 and 64): each hand-off publishes its own tail or
	// head and each receive closes its own era, while the interleaved RootRef
	// frees and claims reuse slots from the pending tier; malloc-burst
	// 212 → 211.
	if st.Ops != 38 || st.Positions < 1788 {
		t.Fatalf("sweep coverage shrank: %d ops, %d positions (want 38 ops, >= 1788 positions)",
			st.Ops, st.Positions)
	}
	for _, v := range vs {
		t.Errorf("%s", v)
	}
}

// TestSweepRecoveryBounded spot-checks phase B (crashing the recovery pass
// itself) on a handful of representative operations.
func TestSweepRecoveryBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is slow")
	}
	for _, opName := range []string{"malloc-small", "free-embed", "send", "release-remote-last", "release-into-abandoned"} {
		vs, _, err := Run(Config{Backend: "heap", MaxWrites: 4, RecoverySweep: true, Op: opName})
		if err != nil {
			t.Fatalf("%s: %v", opName, err)
		}
		for _, v := range vs {
			t.Errorf("%s", v)
		}
	}
}

// TestRootsLiveFindsDanglingRoot zeroes the count of an object a client
// holds (what a recovery that wrongly frees it leaves behind): the epilogue's
// read-through must name the root, and must pass the same roots beforehand.
func TestRootsLiveFindsDanglingRoot(t *testing.T) {
	e, err := setupWith("heap", 0, 0, cxl.Intercept{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.p.CloseDevice()
	if _, _, err := e.x.Malloc(64, 0); err != nil {
		t.Fatal(err)
	}
	_, b, err := e.x.Malloc(64, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := rootsLive(e.p, e.x.ID()); err != nil {
		t.Fatalf("live roots reported: %v", err)
	}
	hdr := layout.UnpackHeader(e.p.Device().Load(b + layout.HeaderOff))
	hdr.RefCnt = 0
	e.p.Device().Store(b+layout.HeaderOff, layout.PackHeader(hdr))
	if err := rootsLive(e.p, e.x.ID()); err == nil {
		t.Fatal("a root on a count-0 block went unreported")
	}
	if err := rootsLive(e.p, e.o.ID()); err != nil {
		t.Fatalf("another client's roots reported: %v", err)
	}
}
