package cxlshm_test

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	cxlshm "repro"
	"repro/internal/check"
)

func newPool(t *testing.T) *cxlshm.Pool {
	t.Helper()
	p, err := cxlshm.NewPool(cxlshm.Config{
		MaxClients:   16,
		NumSegments:  32,
		SegmentBytes: 64 * 1024,
		PageBytes:    4 * 1024,
		MaxQueues:    16,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

// TestNewPoolRejectsNonPowerOfTwo: segments and pages are located by shifts,
// so their sizes must be powers of two.
func TestNewPoolRejectsNonPowerOfTwo(t *testing.T) {
	for _, cfg := range []cxlshm.Config{
		{SegmentBytes: 96 * 1024, PageBytes: 4 * 1024},
		{SegmentBytes: 64 * 1024, PageBytes: 6 * 1024},
	} {
		if p, err := cxlshm.NewPool(cfg); err == nil || !strings.Contains(err.Error(), "power of two") {
			if p != nil {
				p.Close()
			}
			t.Errorf("NewPool(%d B segments, %d B pages) err = %v, want a power-of-two refusal",
				cfg.SegmentBytes, cfg.PageBytes, err)
		}
	}
}

func validateClean(t *testing.T, p *cxlshm.Pool, wantObjects int) {
	t.Helper()
	res := check.Validate(p.Internal())
	if !res.Clean() {
		for _, is := range res.Issues {
			t.Errorf("validate: %s", is)
		}
		t.FailNow()
	}
	if res.AllocatedObjects != wantObjects {
		t.Fatalf("allocated objects = %d, want %d", res.AllocatedObjects, wantObjects)
	}
}

func TestQuickstartFlow(t *testing.T) {
	p := newPool(t)
	a, err := p.Connect()
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Connect()
	if err != nil {
		t.Fatal(err)
	}

	ref, err := a.Malloc(64, 0)
	if err != nil {
		t.Fatal(err)
	}
	ref.Write(0, []byte("hello"))

	q, err := a.NewQueueTo(b.ID(), 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Send(q, ref); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Release(); err != nil {
		t.Fatal(err)
	}

	qb, err := b.OpenQueueFrom(a.ID())
	if err != nil {
		t.Fatal(err)
	}
	got, err := b.Receive(qb)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5)
	got.Read(0, buf)
	if string(buf) != "hello" {
		t.Fatalf("payload %q", buf)
	}
	if freed, err := got.Release(); err != nil || !freed {
		t.Fatalf("freed=%v err=%v", freed, err)
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	if err := qb.Close(); err != nil {
		t.Fatal(err)
	}
	p.Maintain()
	validateClean(t, p, 0)
}

func TestReleasedRefIsInert(t *testing.T) {
	p := newPool(t)
	c, _ := p.Connect()
	ref, err := c.Malloc(32, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Release(); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Release(); !errors.Is(err, cxlshm.ErrReleased) {
		t.Fatalf("double release: %v", err)
	}
	q, _ := c.NewQueueTo(c.ID(), 2)
	if err := c.Send(q, ref); !errors.Is(err, cxlshm.ErrReleased) {
		t.Fatalf("send of released ref: %v", err)
	}
}

func TestCloneSemantics(t *testing.T) {
	p := newPool(t)
	c, _ := p.Connect()
	ref, _ := c.Malloc(32, 0)
	clone := ref.Clone()
	if clone.Addr() != ref.Addr() {
		t.Fatal("clone points elsewhere")
	}
	if freed, _ := ref.Release(); freed {
		t.Fatal("object freed while clone lives")
	}
	if freed, _ := clone.Release(); !freed {
		t.Fatal("last clone release must free")
	}
	validateClean(t, p, 0)
}

func TestEmbeddedListThroughPublicAPI(t *testing.T) {
	p := newPool(t)
	c, _ := p.Connect()
	// Build a linked list: head -> n1 -> n2, each node = 1 embed + payload.
	n2, _ := c.Malloc(32, 1)
	n1, _ := c.Malloc(32, 1)
	head, _ := c.Malloc(32, 1)
	if err := n1.SetEmbed(0, n2); err != nil {
		t.Fatal(err)
	}
	if err := head.SetEmbed(0, n1); err != nil {
		t.Fatal(err)
	}
	// Drop the direct refs to the tail nodes: reachable via head only.
	n1.Release()
	n2.Release()
	validateClean(t, p, 3)
	// Traverse.
	a1, err := head.LoadEmbed(0)
	if err != nil || a1 == 0 {
		t.Fatalf("LoadEmbed: %v %v", a1, err)
	}
	// Releasing the head cascades through the whole list.
	if freed, _ := head.Release(); !freed {
		t.Fatal("head release must free")
	}
	validateClean(t, p, 0)
}

func TestConcurrentClientsStress(t *testing.T) {
	p := newPool(t)
	const clients = 6
	const opsPerClient = 400
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := p.Connect()
			if err != nil {
				errs <- err
				return
			}
			var held []*cxlshm.Ref
			for op := 0; op < opsPerClient; op++ {
				ref, err := c.Malloc(16+op%200, 0)
				if err != nil {
					errs <- err
					return
				}
				held = append(held, ref)
				if len(held) > 32 {
					victim := held[0]
					held = held[1:]
					if _, err := victim.Release(); err != nil {
						errs <- err
						return
					}
				}
			}
			for _, r := range held {
				if _, err := r.Release(); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	validateClean(t, p, 0)
}

func TestMonitorRecoversDeadClientEndToEnd(t *testing.T) {
	p := newPool(t)
	p.StartMonitor(2*time.Millisecond, 3)

	a, _ := p.Connect()
	b, _ := p.Connect()
	ref, err := a.Malloc(64, 0)
	if err != nil {
		t.Fatal(err)
	}
	ref.Write(0, []byte("shared!!"))
	shared, err := b.AttachAddr(ref.Addr())
	if err != nil {
		t.Fatal(err)
	}

	// a dies without releasing; b keeps heartbeating.
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		b.Heartbeat()
		if p.Internal().ClientStatus(a.ID()) == 3 { // ClientRecovered
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	buf := make([]byte, 8)
	shared.Read(0, buf)
	if string(buf) != "shared!!" {
		t.Fatalf("shared object corrupted: %q", buf)
	}
	if freed, err := shared.Release(); err != nil || !freed {
		t.Fatalf("freed=%v err=%v", freed, err)
	}
	p.Close() // stop monitor before validating (quiescence)
	p.Maintain()
	validateClean(t, p, 0)
}

// TestLiveMonitorUnderChurn runs several clients doing real work under a
// running monitor while two of them die at different times; the monitor
// must recover both without disturbing the others, and the pool must end
// clean.
//
// The monitor runs at the serving tier's 10 ms × 5: a tighter budget fences
// a live worker whose goroutine is merely starved (the race detector on a
// loaded machine), which is a false positive, not the deaths under test.
func TestLiveMonitorUnderChurn(t *testing.T) {
	p := newPool(t)
	p.StartMonitor(10*time.Millisecond, 5)

	const workers = 4
	type result struct {
		id   int
		err  error
		died bool
	}
	results := make(chan result, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			c, err := p.Connect()
			if err != nil {
				results <- result{w, err, false}
				return
			}
			var held []*cxlshm.Ref
			for op := 0; op < 600; op++ {
				c.Heartbeat()
				if w < 2 && op == 150+w*100 {
					// Workers 0 and 1 die at different moments, mid-stream,
					// holding references. They just stop heartbeating.
					results <- result{c.ID(), nil, true}
					return
				}
				ref, err := c.Malloc(16+op%100, 0)
				if err != nil {
					results <- result{c.ID(), err, false}
					return
				}
				held = append(held, ref)
				if len(held) > 16 {
					if _, err := held[0].Release(); err != nil {
						results <- result{c.ID(), err, false}
						return
					}
					held = held[1:]
				}
				time.Sleep(50 * time.Microsecond)
			}
			for _, r := range held {
				if _, err := r.Release(); err != nil {
					results <- result{c.ID(), err, false}
					return
				}
			}
			results <- result{c.ID(), nil, false}
		}(w)
	}
	var dead []int
	for i := 0; i < workers; i++ {
		r := <-results
		if r.err != nil {
			t.Fatalf("worker %d: %v", r.id, r.err)
		}
		if r.died {
			dead = append(dead, r.id)
		}
	}
	if len(dead) != 2 {
		t.Fatalf("expected 2 deaths, got %v", dead)
	}
	// Wait for the monitor to recover both.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		done := 0
		for _, cid := range dead {
			if p.Internal().ClientStatus(cid) == 3 { // recovered
				done++
			}
		}
		if done == len(dead) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	p.Close() // stop the monitor, then validate quiescently
	p.Maintain()
	validateClean(t, p, 0)
}

func TestPoolUsageSnapshot(t *testing.T) {
	p := newPool(t)
	u0 := p.Usage()
	if u0.SegmentsActive != 0 || u0.TotalBytes <= 0 {
		t.Fatalf("fresh usage %+v", u0)
	}
	c, _ := p.Connect()
	ref, err := c.Malloc(64, 0)
	if err != nil {
		t.Fatal(err)
	}
	u1 := p.Usage()
	if u1.SegmentsActive != 1 || u1.ClientsAlive < 1 {
		t.Fatalf("usage after malloc %+v", u1)
	}
	if u1.SegmentsFree >= u0.SegmentsFree+1 {
		t.Fatalf("free segments did not shrink: %d -> %d", u0.SegmentsFree, u1.SegmentsFree)
	}
	ref.Release()
}

func TestPoolExhaustionSurfacesError(t *testing.T) {
	p, err := cxlshm.NewPool(cxlshm.Config{
		MaxClients: 2, NumSegments: 4, SegmentBytes: 32 * 1024, PageBytes: 4 * 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	c, _ := p.Connect()
	var refs []*cxlshm.Ref
	for {
		ref, err := c.Malloc(1024, 0)
		if err != nil {
			if !errors.Is(err, cxlshm.ErrOutOfMemory) {
				t.Fatalf("want ErrOutOfMemory, got %v", err)
			}
			break
		}
		refs = append(refs, ref)
	}
	for _, r := range refs {
		r.Release()
	}
	if _, err := c.Malloc(1024, 0); err != nil {
		t.Fatalf("allocation after drain: %v", err)
	}
}
