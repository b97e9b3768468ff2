package recovery_test

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cxl"
	"repro/internal/layout"
	"repro/internal/recovery"
	"repro/internal/shm"
)

func newService(t *testing.T, p *shm.Pool, workers int) *recovery.Service {
	t.Helper()
	svc, err := recovery.NewServiceWorkers(p, workers)
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// refused reports whether err is how a recovery call that ran no pass
// answers: the claim is held, or the slot is no longer dead.
func refused(err error) bool {
	return errors.Is(err, shm.ErrRecoveryInProgress) || err != nil && strings.Contains(err.Error(), "not dead")
}

// releaseAndSettle drops the survivor's roots, lets a monitor's first ticks
// scan what they flagged, and requires a clean pool with nothing allocated.
func releaseAndSettle(t *testing.T, p *shm.Pool, svc *recovery.Service, survivor *shm.Client, roots []layout.Addr, context string) {
	t.Helper()
	for _, r := range roots {
		if _, err := survivor.ReleaseRoot(r); err != nil {
			t.Fatalf("[%s] survivor release: %v", context, err)
		}
	}
	mon := recovery.NewMonitor(svc, recovery.MonitorConfig{Threshold: math.MaxInt32})
	for i := 0; i < 3; i++ {
		mon.Tick()
	}
	if res := mustClean(t, p, context); res.AllocatedObjects != 0 {
		t.Fatalf("[%s] %d objects left after the survivor released its share", context, res.AllocatedObjects)
	}
}

// Two recovery services — a monitor's and an operator's cxlsnap -recover,
// say — recover one dead client at the same moment. The victim's recovery
// claim lets exactly one pass run: the other call is refused while the pass
// holds the claim, or finds the slot no longer dead after it. Without the
// claim both passes ran, and some trials left a reference to a freed block.
func TestConcurrentRecoverersOneClaim(t *testing.T) {
	const trials = 200
	for trial := 0; trial < trials; trial++ {
		context := fmt.Sprintf("trial %d", trial)
		p := newTestPool(t)
		victim, survivor := connect(t, p), connect(t, p)
		var shared []layout.Addr
		for i := 0; i < 60; i++ {
			_, block, err := victim.Malloc(48+16*(i%4), 0)
			if err != nil {
				t.Fatal(err)
			}
			if i%2 == 0 {
				root, err := survivor.AttachRoot(block)
				if err != nil {
					t.Fatal(err)
				}
				shared = append(shared, root)
			}
		}
		svcs := [2]*recovery.Service{newService(t, p, 1), newService(t, p, 1)}
		if err := victim.Crash(); err != nil {
			t.Fatal(err)
		}
		var errs [2]error
		var wg sync.WaitGroup
		start := make(chan struct{})
		for i, svc := range svcs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				_, errs[i] = svc.RecoverClient(victim.ID())
			}()
		}
		close(start)
		wg.Wait()
		if ok := (errs[0] == nil) != (errs[1] == nil); !ok || !refused(errs[0]) && !refused(errs[1]) {
			t.Fatalf("[%s] want one pass and one refusal, got %v and %v", context, errs[0], errs[1])
		}
		mustClean(t, p, context)
		releaseAndSettle(t, p, svcs[0], survivor, shared, context)
		p.CloseDevice()
	}
}

// The claim is let go only after the pass stores RECOVERED. A hook at that
// store runs a second service's RecoverClient, which must find the claim
// still held and run no pass; at the next access, with RECOVERED landed, a
// Connect takes the victim's slot, and the new lessee's objects must outlive
// the first pass's remaining steps. A pass that let go of the claim before
// FinishSlotLease would hand the second service a DEAD slot here: it would
// run a whole pass over the victim again.
func TestClaimReleasedAfterRecoveredStore(t *testing.T) {
	var (
		p              *shm.Pool
		svc2           *recovery.Service
		victim         *shm.Client
		armed, nested  bool
		stage          int
		err2, errConn  error
		lessee         *shm.Client
		lesseeBlocks   []layout.Addr
		recoveredStore layout.Addr
	)
	hook := func(_ int, kind cxl.AccessKind, a cxl.Addr) {
		if !armed || nested {
			return
		}
		nested = true
		defer func() { nested = false }()
		switch {
		case stage == 0 && kind == cxl.OpStore && a == recoveredStore:
			stage = 1
			_, err2 = svc2.RecoverClient(victim.ID())
		case stage == 1:
			stage = 2
			if lessee, errConn = p.Connect(); errConn != nil {
				return
			}
			for i := 0; i < 8; i++ {
				_, block, err := lessee.Malloc(64, 0)
				if err != nil {
					errConn = err
					return
				}
				lessee.StoreWord(block, 0, uint64(0x1e55ee00+i))
				lesseeBlocks = append(lesseeBlocks, block)
			}
		}
	}
	p = newTestPool(t, hook)
	defer p.CloseDevice()
	victim = connect(t, p)
	survivor := connect(t, p)
	var shared []layout.Addr
	for i := 0; i < 20; i++ {
		_, block, err := victim.Malloc(64, 0)
		if err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			root, err := survivor.AttachRoot(block)
			if err != nil {
				t.Fatal(err)
			}
			shared = append(shared, root)
		}
	}
	svc1 := newService(t, p, 1)
	svc2 = newService(t, p, 1)
	// Fill every other slot, so the only one a Connect can take is the
	// victim's once it reads RECOVERED.
	for {
		if _, err := p.Connect(); err != nil {
			break
		}
	}
	if err := victim.Crash(); err != nil {
		t.Fatal(err)
	}
	recoveredStore = p.Geometry().ClientStatusAddr(victim.ID())
	armed = true
	_, err1 := svc1.RecoverClient(victim.ID())
	armed = false
	if err1 != nil {
		t.Fatalf("first pass: %v", err1)
	}
	if stage != 2 {
		t.Fatalf("the hook reached stage %d of 2", stage)
	}
	if !errors.Is(err2, shm.ErrRecoveryInProgress) {
		t.Fatalf("a second service's call at the RECOVERED store returned %v, want shm.ErrRecoveryInProgress", err2)
	}
	if errConn != nil {
		t.Fatalf("new lessee: %v", errConn)
	}
	if lessee.ID() != victim.ID() {
		t.Fatalf("new lessee took slot %d, want the victim's %d", lessee.ID(), victim.ID())
	}
	if s := p.ClientStatus(lessee.ID()); s != layout.ClientAlive {
		t.Fatalf("new lessee's slot has status %d after the pass, want ALIVE", s)
	}
	if w := p.Device().Load(p.Geometry().ClientClaimAddr(victim.ID())); w != 0 {
		t.Fatalf("claim word %#x left behind by a finished pass", w)
	}
	res := mustClean(t, p, "after the first pass")
	if want := len(shared) + len(lesseeBlocks); res.AllocatedObjects != want {
		t.Fatalf("%d objects allocated, want the survivor's %d and the lessee's %d",
			res.AllocatedObjects, len(shared), len(lesseeBlocks))
	}
	for i, block := range lesseeBlocks {
		if got := lessee.LoadWord(block, 0); got != uint64(0x1e55ee00+i) {
			t.Fatalf("lessee block %d reads %#x", i, got)
		}
	}
}

// A pass and the monitor's maintenance scans share no lock: the monitor
// leaves a DEAD owner's huge heads to that owner's pass. Here the monitor
// ticks without pause while a pass frees the victim's private huge objects
// and keeps the shared ones, each of them holding a survivor's block in its
// embed. A tick that scanned a DEAD owner's head while the pass was freeing
// the object would free it a second time, releasing that block once more.
func TestMonitorTickDuringPassOverHugeHeads(t *testing.T) {
	const trials = 50
	for trial := 0; trial < trials; trial++ {
		context := fmt.Sprintf("trial %d", trial)
		// The pass sleeps before it releases a huge object's embedded
		// reference: long enough for ticks to scan the object's head, whose
		// count the pass has just dropped to 0.
		var armed atomic.Bool
		children := map[cxl.Addr]bool{}
		p := newTestPool(t, func(_ int, kind cxl.AccessKind, a cxl.Addr) {
			if armed.Load() && kind == cxl.OpCAS && children[a] {
				time.Sleep(time.Millisecond)
			}
		})
		svc := newService(t, p, 2)
		victim, survivor := connect(t, p), connect(t, p)
		// Each huge object embeds a survivor's block: freeing the object
		// twice would release that block's count twice.
		var shared []layout.Addr
		for i := 0; i < 4; i++ {
			_, block, err := victim.Malloc(96*1024, 1) // 1.5 segments
			if err != nil {
				t.Fatal(err)
			}
			childRoot, child, err := survivor.Malloc(64, 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := victim.SetEmbed(block, 0, child); err != nil {
				t.Fatal(err)
			}
			children[child+layout.HeaderOff] = true
			shared = append(shared, childRoot)
			if i%2 == 0 {
				root, err := survivor.AttachRoot(block)
				if err != nil {
					t.Fatal(err)
				}
				shared = append(shared, root)
			}
		}
		if err := victim.Crash(); err != nil {
			t.Fatal(err)
		}
		mon := recovery.NewMonitor(svc, recovery.MonitorConfig{Threshold: math.MaxInt32})
		stop, ticking := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(ticking)
			for {
				select {
				case <-stop:
					return
				default:
					mon.Tick()
				}
			}
		}()
		// The ticks see the victim DEAD and dispatch a pass of their own:
		// one of the two runs, the other is refused.
		armed.Store(true)
		_, err := svc.RecoverClient(victim.ID())
		close(stop)
		<-ticking
		mon.Start() // Start+Stop joins the passes the ticks dispatched
		mon.Stop()
		armed.Store(false)
		if err != nil && !refused(err) {
			t.Fatalf("[%s] RecoverClient: %v", context, err)
		}
		if s := p.ClientStatus(victim.ID()); s != layout.ClientRecovered {
			t.Fatalf("[%s] victim status %d, want RECOVERED", context, s)
		}
		if res := mustClean(t, p, context); res.AllocatedObjects != len(shared) {
			t.Fatalf("[%s] %d objects allocated, want the survivor's %d", context, res.AllocatedObjects, len(shared))
		}
		releaseAndSettle(t, p, svc, survivor, shared, context)
		p.CloseDevice()
	}
}
