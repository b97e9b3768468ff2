package rpc_test

import (
	"bytes"
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/check"
	"repro/internal/layout"
	"repro/internal/rpc"
	"repro/internal/shm"
)

func newPool(t *testing.T) *shm.Pool {
	t.Helper()
	p, err := shm.NewPool(shm.Config{Geometry: layout.GeometryConfig{
		MaxClients: 8, NumSegments: 32, SegmentWords: 1 << 13, PageWords: 1 << 9,
	}})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// echoUpper registers a handler that uppercases arg 0 into the output.
func echoUpper(c *shm.Client, args []layout.Addr, out layout.Addr) error {
	n := c.DataBytesOf(args[0])
	if m := c.DataBytesOf(out); m < n {
		n = m
	}
	buf := make([]byte, n)
	c.ReadData(args[0], 0, buf)
	for i, ch := range buf {
		if ch >= 'a' && ch <= 'z' {
			buf[i] = ch - 32
		}
	}
	c.WriteData(out, 0, buf)
	return nil
}

func TestCallRoundTrip(t *testing.T) {
	p := newPool(t)
	cc, _ := p.Connect()
	sc, _ := p.Connect()

	caller, err := rpc.NewCaller(cc, sc.ID(), 8)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := rpc.NewServer(sc, cc.ID())
	if err != nil {
		t.Fatal(err)
	}
	srv.Register(1, echoUpper)

	var stop atomic.Bool
	done := make(chan error, 1)
	go func() { done <- srv.Serve(stop.Load) }()

	argRoot, arg, err := caller.Arg([]byte("hello rdsm!!"))
	if err != nil {
		t.Fatal(err)
	}
	outRoot, out, err := caller.Call(1, []layout.Addr{arg}, 12)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 12)
	cc.ReadData(out, 0, got)
	if !bytes.Equal(got, []byte("HELLO RDSM!!")) {
		t.Fatalf("result %q", got)
	}

	stop.Store(true)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// Cleanup: everything reclaimed.
	for _, r := range []layout.Addr{argRoot, outRoot} {
		if _, err := cc.ReleaseRoot(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := caller.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	p.SweepQueueRegistry()
	res := check.Validate(p)
	if !res.Clean() {
		for _, is := range res.Issues {
			t.Errorf("validate: %s", is)
		}
		t.FailNow()
	}
	if res.AllocatedObjects != 0 {
		t.Fatalf("RPC leaked %d objects", res.AllocatedObjects)
	}
}

func TestCallManySequential(t *testing.T) {
	p := newPool(t)
	cc, _ := p.Connect()
	sc, _ := p.Connect()
	caller, _ := rpc.NewCaller(cc, sc.ID(), 4)
	srv, _ := rpc.NewServer(sc, cc.ID())
	// sum: adds all bytes of arg 0 into out[0].
	srv.Register(2, func(c *shm.Client, args []layout.Addr, out layout.Addr) error {
		n := c.DataBytesOf(args[0])
		buf := make([]byte, n)
		c.ReadData(args[0], 0, buf)
		var sum byte
		for _, b := range buf {
			sum += b
		}
		c.WriteData(out, 0, []byte{sum})
		return nil
	})
	var stop atomic.Bool
	go srv.Serve(stop.Load)
	defer stop.Store(true)

	for i := 0; i < 100; i++ {
		argRoot, arg, err := caller.Arg([]byte{1, 2, 3, byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		outRoot, out, err := caller.Call(2, []layout.Addr{arg}, 1)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 1)
		cc.ReadData(out, 0, got)
		if got[0] != byte(6+i) {
			t.Fatalf("call %d: sum=%d", i, got[0])
		}
		cc.ReleaseRoot(argRoot)
		cc.ReleaseRoot(outRoot)
	}
}

func TestUnknownFunctionUnblocksCaller(t *testing.T) {
	p := newPool(t)
	cc, _ := p.Connect()
	sc, _ := p.Connect()
	caller, _ := rpc.NewCaller(cc, sc.ID(), 4)
	srv, _ := rpc.NewServer(sc, cc.ID())

	done := make(chan struct{})
	go func() {
		// The call must not hang even though no handler exists; it surfaces
		// the failure as ErrRemote.
		_, _, err := caller.Call(99, nil, 8)
		if err != rpc.ErrRemote {
			t.Errorf("call: %v, want ErrRemote", err)
		}
		close(done)
	}()
	for {
		served, err := srv.Poll()
		if served {
			if err != rpc.ErrNoHandler {
				t.Fatalf("poll err: %v", err)
			}
			break
		}
	}
	<-done
}

func TestHandlerErrorPropagatesToCaller(t *testing.T) {
	p := newPool(t)
	cc, _ := p.Connect()
	sc, _ := p.Connect()
	caller, _ := rpc.NewCaller(cc, sc.ID(), 4)
	srv, _ := rpc.NewServer(sc, cc.ID())
	srv.Register(5, func(c *shm.Client, args []layout.Addr, out layout.Addr) error {
		return rpc.ErrRemote // any handler failure
	})
	done := make(chan error, 1)
	go func() {
		_, _, err := caller.Call(5, nil, 8)
		done <- err
	}()
	for {
		served, _ := srv.Poll()
		if served {
			break
		}
	}
	if err := <-done; err != rpc.ErrRemote {
		t.Fatalf("caller got %v, want ErrRemote", err)
	}
	// No leaks: the failed call's message and output were released.
	caller.Close()
	srv.Close()
	p.SweepQueueRegistry()
	res := check.Validate(p)
	if res.AllocatedObjects != 0 {
		t.Fatalf("failed call leaked %d objects", res.AllocatedObjects)
	}
}

func TestPipelinedCalls(t *testing.T) {
	p := newPool(t)
	cc, _ := p.Connect()
	sc, _ := p.Connect()
	caller, _ := rpc.NewCaller(cc, sc.ID(), 8)
	srv, _ := rpc.NewServer(sc, cc.ID())
	srv.Register(3, func(c *shm.Client, args []layout.Addr, out layout.Addr) error {
		c.StoreWord(out, 0, c.LoadWord(args[0], 0)*2)
		return nil
	})
	var stop atomic.Bool
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(stop.Load) }()
	defer stop.Store(true)

	// Issue 6 calls back-to-back, then collect out of order.
	const n = 6
	pend := make([]*rpc.Pending, n)
	argRoots := make([]layout.Addr, n)
	for i := 0; i < n; i++ {
		argRoot, arg, err := cc.Malloc(8, 0)
		if err != nil {
			t.Fatal(err)
		}
		cc.StoreWord(arg, 0, uint64(i+1))
		argRoots[i] = argRoot
		pend[i], err = caller.CallStart(3, []layout.Addr{arg}, 8)
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := n - 1; i >= 0; i-- { // reverse completion order
		outRoot, out, err := pend[i].Wait()
		if err != nil {
			t.Fatal(err)
		}
		if got := cc.LoadWord(out, 0); got != uint64(2*(i+1)) {
			t.Fatalf("call %d: got %d", i, got)
		}
		cc.ReleaseRoot(outRoot)
		cc.ReleaseRoot(argRoots[i])
	}
	// Cleanup must leave nothing allocated.
	caller.Close()
	stop.Store(true)
	// The server's shm.Client is single-threaded: drain it from here only
	// once the Serve goroutine has returned.
	if err := <-serveDone; err != nil {
		t.Fatal(err)
	}
	for {
		served, _ := srv.Poll()
		if !served {
			break
		}
	}
	srv.Close()
	p.SweepQueueRegistry()
	res := check.Validate(p)
	if res.AllocatedObjects != 0 {
		for _, is := range res.Issues {
			t.Logf("%s", is)
		}
		t.Fatalf("pipelined RPC leaked %d objects", res.AllocatedObjects)
	}
}

// TestFailedCallReleasesItsMessage calls with an argument that was already
// freed: Call and CallStart must both fail with ErrStaleReference and release
// the message and output objects they allocated.
func TestFailedCallReleasesItsMessage(t *testing.T) {
	p := newPool(t)
	cc, _ := p.Connect()
	sc, _ := p.Connect()
	caller, err := rpc.NewCaller(cc, sc.ID(), 4)
	if err != nil {
		t.Fatal(err)
	}
	// 1 KiB: a size class of its own, so no message can reuse the block.
	argRoot, arg, err := caller.Arg(make([]byte, 1024))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cc.ReleaseRoot(argRoot); err != nil {
		t.Fatal(err)
	}
	before := check.Validate(p).AllocatedObjects
	if _, _, err := caller.Call(1, []layout.Addr{arg}, 8); !errors.Is(err, shm.ErrStaleReference) {
		t.Fatalf("Call: %v, want %v", err, shm.ErrStaleReference)
	}
	if _, err := caller.CallStart(1, []layout.Addr{arg}, 8); !errors.Is(err, shm.ErrStaleReference) {
		t.Fatalf("CallStart: %v, want %v", err, shm.ErrStaleReference)
	}
	if after := check.Validate(p).AllocatedObjects; after != before {
		t.Fatalf("allocated objects %d before the failed calls, %d after", before, after)
	}
}

func TestSPSCRing(t *testing.T) {
	r := rpc.NewSPSCRing(4)
	if _, ok := r.Pop(); ok {
		t.Fatal("pop from empty ring")
	}
	for i := uint64(1); i <= 4; i++ {
		if !r.Push(i) {
			t.Fatalf("push %d failed", i)
		}
	}
	if r.Push(5) {
		t.Fatal("push into full ring succeeded")
	}
	if r.Len() != 4 {
		t.Fatalf("len=%d", r.Len())
	}
	for i := uint64(1); i <= 4; i++ {
		v, ok := r.Pop()
		if !ok || v != i {
			t.Fatalf("pop %d: %d %v", i, v, ok)
		}
	}
}

func TestSPSCRingConcurrent(t *testing.T) {
	r := rpc.NewSPSCRing(64)
	const n = 100000
	go func() {
		for i := uint64(1); i <= n; i++ {
			r.PushWait(i)
		}
	}()
	var prev uint64
	for i := 0; i < n; i++ {
		v := r.PopWait()
		if v != prev+1 {
			t.Fatalf("out of order: %d after %d", v, prev)
		}
		prev = v
	}
}
