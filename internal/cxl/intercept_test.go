package cxl

import (
	"fmt"
	"testing"
	"time"
)

func TestInterceptAccessCarriesClientID(t *testing.T) {
	d := newTestDevice(t, 64)
	type access struct {
		cid  int
		kind AccessKind
		a    Addr
	}
	var got []access
	d.SetIntercept(Intercept{Access: func(cid int, kind AccessKind, a Addr) {
		got = append(got, access{cid, kind, a})
	}})

	d.Store(1, 5) // management plane: cid 0
	h := d.Open(7)
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

func TestInterceptAccessCanCrash(t *testing.T) {
	d := newTestDevice(t, 64)
	type boom struct{}
	n := 0
	d.SetIntercept(Intercept{Access: func(cid int, kind AccessKind, a Addr) {
		n++
		if n == 3 {
			panic(boom{})
		}
	}})
	h := d.Open(1)
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

// The write-fault hook decides the fate of management-plane writes too —
// recovery and validators are as exposed to a faulty device as clients are.
func TestInterceptWriteSeesManagementPlane(t *testing.T) {
	d := newTestDevice(t, 64)
	verdict := WriteThrough
	var seen []string
	d.SetIntercept(Intercept{Write: func(kind AccessKind, a Addr, v uint64) (uint64, WriteFault) {
		seen = append(seen, fmt.Sprintf("%v %d %d", kind, a, v))
		return 77, verdict
	}})
	d.Store(4, 1)
	verdict = WriteMangle
	d.Store(5, 1)
	verdict = WriteDrop
	d.Store(6, 1)
	if got := [3]uint64{d.Load(4), d.Load(5), d.Load(6)}; got != [3]uint64{1, 77, 0} {
		t.Fatalf("through/mangle/drop stores left %v, want [1 77 0]", got)
	}
	if !d.CAS(4, 99, 2) || d.Load(4) != 1 {
		t.Fatal("a dropped CAS must report success and leave the word stale")
	}
	verdict = WriteFailCAS
	if d.CAS(4, 1, 2) || d.Load(4) != 1 {
		t.Fatal("a failed CAS must report failure and leave the word")
	}
	verdict = WriteMangle
	if !d.CAS(4, 1, 2) || d.Load(4) != 77 {
		t.Fatalf("a mangled CAS must swap in the hook's value, word is %d", d.Load(4))
	}
	want := []string{"store 4 1", "store 5 1", "store 6 1", "cas 4 2", "cas 4 2", "cas 4 2"}
	if fmt.Sprint(seen) != fmt.Sprint(want) {
		t.Fatalf("write hook saw %q, want %q", seen, want)
	}
}

// The RAS fence drops a fenced client's writes before the write-fault hook
// sees them.
func TestInterceptWriteAfterFence(t *testing.T) {
	d := newTestDevice(t, 64)
	hooked := 0
	d.SetIntercept(Intercept{Write: func(_ AccessKind, _ Addr, v uint64) (uint64, WriteFault) {
		hooked++
		return v, WriteThrough
	}})
	h := d.Open(3)
	h.Store(4, 42)
	d.FenceClient(3)
	if !h.Fenced() {
		t.Fatal("handle must observe the fence")
	}
	h.Store(4, 99)
	if h.CAS(4, 42, 99) {
		t.Fatal("fenced CAS must fail")
	}
	if d.Load(4) != 42 {
		t.Fatalf("fenced store leaked: %d", d.Load(4))
	}
	if hooked != 1 {
		t.Fatalf("write-fault hook saw %d writes, want only the one before the fence", hooked)
	}
}

func TestInterceptLatencyIsClientOnly(t *testing.T) {
	d := newTestDevice(t, 1<<14)
	if h := d.Open(2); h.words != nil {
		t.Fatal("a counting device's handle must not take the fast path")
	}
	bare, err := NewDevice(Config{Words: 64, MaxClients: 2})
	if err != nil {
		t.Fatal(err)
	}
	bare.SetIntercept(Intercept{})
	if h := bare.Open(1); h.words == nil {
		t.Fatal("a zero intercept must keep the handle's fast path")
	}

	// A miss costs 1 ms: 64 charged loads take 64 ms, three orders of
	// magnitude above what 64 uncharged ones take even under -race, so the
	// bound below — one miss — fails if a single management-plane load is
	// charged and leaves the uncharged ones room for scheduler noise.
	const miss = time.Millisecond
	d.SetIntercept(Intercept{Latency: Latency{MissNS: int(miss)}})
	// Management plane stays uncharged.
	t0 := time.Now()
	for i := 0; i < 64; i++ {
		d.Load(Addr(1 + i*8))
	}
	if el := time.Since(t0); el >= miss {
		t.Fatalf("management-plane loads charged latency (%v for 64 loads, one miss is %v)", el, miss)
	}
	// Client path is charged.
	h := d.Open(1)
	t0 = time.Now()
	h.Load(8)
	if el := time.Since(t0); el < miss*3/4 {
		t.Fatalf("client miss charged only %v, want ~%v", el, miss)
	}
}

// One device with both hooks: each sees what it intercepts, once.
func TestInterceptAccessAndWrite(t *testing.T) {
	d := newTestDevice(t, 1<<10)
	var order []string
	d.SetIntercept(Intercept{
		Access: func(_ int, kind AccessKind, _ Addr) { order = append(order, "access "+kind.String()) },
		Write: func(kind AccessKind, _ Addr, v uint64) (uint64, WriteFault) {
			order = append(order, "write "+kind.String())
			return v, WriteThrough
		},
	})
	h := d.Open(2)
	h.Store(5, 1)
	h.Load(5)
	if d.Load(5) != 1 {
		t.Fatalf("store did not land: word %d", d.Load(5))
	}
	want := "[access store write store access load access load]"
	if got := fmt.Sprint(order); got != want {
		t.Fatalf("hooks fired %s, want %s", got, want)
	}
}

// A handle's Stats do not depend on what intercepts it: the same script
// moves every counter — flushes and fences included — by the same amount
// under every intercept, on both backends.
func TestStatsIndependentOfIntercept(t *testing.T) {
	intercepts := []struct {
		name string
		ic   Intercept
	}{
		{"none", Intercept{}},
		{"Access", Intercept{Access: func(int, AccessKind, Addr) {}}},
		{"Write", Intercept{Write: func(_ AccessKind, _ Addr, v uint64) (uint64, WriteFault) { return v, WriteThrough }}},
		{"Latency", Intercept{Latency: Latency{MissNS: 1, CASNS: 1, FlushNS: 1, FenceNS: 1}}},
	}
	backends := []struct {
		name string
		open func(cfg Config) (*Device, error)
	}{
		{"heap", NewDevice},
		{"mmap", NewAnonMapDevice},
	}
	want := Stats{Loads: 1, Stores: 1, CASes: 1, Flushes: 1, Fences: 1}
	for _, be := range backends {
		for _, ic := range intercepts {
			t.Run(be.name+"/"+ic.name, func(t *testing.T) {
				d, err := be.open(Config{Words: 64, MaxClients: 4, CountAccesses: true})
				if err != nil {
					t.Fatal(err)
				}
				defer d.Close()
				d.SetIntercept(ic.ic)
				h := d.Open(1)
				h.Load(1)
				h.Store(1, 1)
				h.CAS(1, 1, 2)
				h.SFence()
				h.Flush(1)
				if got := d.Stats(); got != want {
					t.Fatalf("Stats = %+v, want %+v", got, want)
				}
			})
		}
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
