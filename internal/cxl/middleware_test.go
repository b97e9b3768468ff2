package cxl

import (
	"testing"
	"time"
)

func TestWrapOrderAndBottom(t *testing.T) {
	d := newTestDevice(t, 64)
	m := Wrap(d, WithLatency(Latency{MissNS: 1}), WithWriteFaults(nil))
	// Last middleware is outermost.
	if _, ok := m.(*writeFaultMem); !ok {
		t.Fatalf("outermost layer is %T, want *writeFaultMem", m)
	}
	if Bottom(m) != Memory(d) {
		t.Fatal("Bottom must unwrap to the backing device")
	}
	if Bottom(Memory(d)) != Memory(d) {
		t.Fatal("Bottom of a bare device is the device")
	}
	if m.Words() != 64 || m.MaxClients() != d.MaxClients() {
		t.Fatal("passthrough must preserve geometry")
	}
}

// A write-fault layer retargets handles onto the interface path; the RAS
// fence must still drop a fenced client's writes there, before the hook.
func TestWithWriteFaultsPreservesFencing(t *testing.T) {
	d := newTestDevice(t, 64)
	hooked := 0
	m := Wrap(d, WithWriteFaults(func(_ AccessKind, _ Addr, v uint64) (uint64, WriteFault) {
		hooked++
		return v, WriteThrough
	}))
	h := m.Open(3)
	h.Store(4, 42)
	m.FenceClient(3)
	if !h.Fenced() {
		t.Fatal("retargeted handle must observe the fence")
	}
	h.Store(4, 99)
	if h.CAS(4, 42, 99) {
		t.Fatal("fenced CAS must fail through the interface path")
	}
	if d.Load(4) != 42 {
		t.Fatalf("fenced store leaked: %d", d.Load(4))
	}
	if h.DroppedWrites() != 2 {
		t.Fatalf("dropped = %d, want 2", h.DroppedWrites())
	}
	if hooked != 1 {
		t.Fatalf("write-fault hook saw %d writes, want only the one before the fence", hooked)
	}
}

func TestWithLatencyIsHandleTransparent(t *testing.T) {
	d := newTestDevice(t, 1<<14)
	m := Wrap(d, WithLatency(Latency{MissNS: 2000}))
	// Management plane stays uncharged.
	t0 := time.Now()
	for i := 0; i < 64; i++ {
		m.Load(Addr(1 + i*8))
	}
	if el := time.Since(t0); el > 50*time.Microsecond {
		t.Fatalf("management-plane loads charged latency (%v)", el)
	}
	// Client path is charged.
	h := m.Open(1)
	t0 = time.Now()
	h.Load(8)
	if el := time.Since(t0); el < 1500*time.Nanosecond {
		t.Fatalf("client miss charged only %v, want ~2µs", el)
	}
	// Handle keeps the concrete fast path (no retarget).
	if h.dev == nil {
		t.Fatal("latency layer must not retarget the handle off the fast path")
	}
}

func TestWithAccessHookCarriesClientID(t *testing.T) {
	d := newTestDevice(t, 64)
	type access struct {
		cid  int
		kind AccessKind
		a    Addr
	}
	var got []access
	m := Wrap(d, WithAccessHook(func(cid int, kind AccessKind, a Addr) {
		got = append(got, access{cid, kind, a})
	}))

	m.Store(1, 5) // management plane: cid 0
	h := m.Open(7)
	h.Load(1)
	h.CAS(1, 5, 6)
	h.Flush(1)
	h.SFence()

	want := []access{
		{0, OpStore, 1},
		{7, OpLoad, 1},
		{7, OpCAS, 1},
		{7, OpFlush, 1},
		{7, OpFence, 0},
	}
	if len(got) != len(want) {
		t.Fatalf("hook fired %d times, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("access %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestWithAccessHookCanCrash(t *testing.T) {
	d := newTestDevice(t, 64)
	type boom struct{}
	n := 0
	m := Wrap(d, WithAccessHook(func(cid int, kind AccessKind, a Addr) {
		n++
		if n == 3 {
			panic(boom{})
		}
	}))
	h := m.Open(1)
	func() {
		defer func() {
			if _, ok := recover().(boom); !ok {
				t.Fatal("expected the hook's panic to propagate")
			}
		}()
		for i := 0; i < 10; i++ {
			h.Store(Addr(1+i), 1)
		}
	}()
	// The crashed access must not have landed.
	if d.Load(3) != 0 {
		t.Fatal("access executed despite hook panic")
	}
	if d.Load(2) != 1 {
		t.Fatal("pre-crash accesses must have landed")
	}
}

func TestStackedMiddleware(t *testing.T) {
	d := newTestDevice(t, 1<<10)
	hooks, faults := 0, 0
	m := Wrap(d,
		WithAccessHook(func(int, AccessKind, Addr) { hooks++ }),
		WithWriteFaults(func(_ AccessKind, _ Addr, v uint64) (uint64, WriteFault) {
			faults++
			return v, WriteThrough
		}),
	)
	h := m.Open(2)
	h.Store(5, 1)
	h.Load(5)
	if faults != 1 || d.Load(5) != 1 {
		t.Fatalf("write-fault layer saw %d writes (word %d), want the one store", faults, d.Load(5))
	}
	if hooks != 2 {
		t.Fatalf("hook fired %d times, want 2", hooks)
	}
	if Bottom(m) != Memory(d) {
		t.Fatal("Bottom through two layers")
	}
}

func TestAccessKindString(t *testing.T) {
	for k, want := range map[AccessKind]string{
		OpLoad: "load", OpStore: "store", OpCAS: "cas",
		OpFlush: "flush", OpFence: "fence", AccessKind(99): "?",
	} {
		if k.String() != want {
			t.Fatalf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
}
