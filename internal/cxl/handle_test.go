package cxl

import (
	"fmt"
	"reflect"
	"testing"
)

// TestHandlePathEquivalence runs one access script through a handle under
// every intercept that prices or observes accesses, over both backends, and
// demands what the bare fast path gives: the same values, the same
// wild-access panic text, the same RAS-fence behaviour (fence raised after
// Open) — plus proof that each hook saw every access, i.e. that the
// fast-path condition is false whenever anything is watching.
func TestHandlePathEquivalence(t *testing.T) {
	const words, cid = 64, 3
	type observed struct{ loads, stores, cases uint64 }
	type config struct {
		name string
		// intercept returns the intercept to set on the device and what its
		// hooks observed (nil: the intercept counts nothing).
		intercept func() (Intercept, func() observed)
	}
	// countHook is an access hook that counts what it sees into o and checks
	// that every access carries the handle's client ID.
	countHook := func(o *observed) AccessHook {
		return func(c int, kind AccessKind, _ Addr) {
			if c != cid {
				t.Errorf("hook saw client %d, want %d", c, cid)
			}
			switch kind {
			case OpLoad:
				o.loads++
			case OpStore:
				o.stores++
			case OpCAS:
				o.cases++
			}
		}
	}
	// countWrites is a pass-through write-fault hook counting into o.
	countWrites := func(o *observed) WriteFaultHook {
		return func(kind AccessKind, _ Addr, v uint64) (uint64, WriteFault) {
			if kind == OpStore {
				o.stores++
			} else {
				o.cases++
			}
			return v, WriteThrough
		}
	}
	configs := []config{
		{"bare", func() (Intercept, func() observed) { return Intercept{}, nil }},
		{"WithAccessHook", func() (Intercept, func() observed) {
			var o observed
			return Intercept{Access: countHook(&o)}, func() observed { return o }
		}},
		{"WithLatency", func() (Intercept, func() observed) {
			return Intercept{Latency: Latency{MissNS: 1, CASNS: 1}}, nil
		}},
		{"WithWriteFaults", func() (Intercept, func() observed) {
			var o observed
			return Intercept{Write: countWrites(&o)}, func() observed { return o }
		}},
		// With a write hook set too, the access hook still sees every client
		// access, under the client's ID.
		{"WithWriteFaults+WithAccessHook", func() (Intercept, func() observed) {
			var o, w observed
			return Intercept{Access: countHook(&o), Write: countWrites(&w)}, func() observed { return o }
		}},
	}
	backends := []struct {
		name string
		open func(t *testing.T, count bool) *Device
	}{
		{"heap", func(t *testing.T, count bool) *Device {
			d, err := NewDevice(Config{Words: words, MaxClients: 8, CountAccesses: count})
			if err != nil {
				t.Fatal(err)
			}
			return d
		}},
		{"mmap", func(t *testing.T, count bool) *Device {
			d, err := NewAnonMapDevice(Config{Words: words, MaxClients: 8, CountAccesses: count})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { d.Close() })
			return d
		}},
	}

	// panicText runs f and returns what it panicked with ("" if it did not).
	panicText := func(f func()) (msg string) {
		defer func() {
			if r := recover(); r != nil {
				msg = fmt.Sprint(r)
			}
		}()
		f()
		return ""
	}
	// The script, in three parts; each appends what a caller can see to the
	// trace. Observers are compared around the first and the last part: what
	// a hook counts of an access that then panics is its own business.
	type run struct {
		d     *Device
		h     *Handle
		trace []string
	}
	say := func(r *run, format string, args ...any) {
		r.trace = append(r.trace, fmt.Sprintf(format, args...))
	}
	plain := func(r *run) observed {
		for a := Addr(1); a < 6; a++ {
			r.h.Store(a, 100+a)
		}
		say(r, "load %d", r.h.Load(3))
		say(r, "cas hit %v", r.h.CAS(3, 103, 7))
		say(r, "cas miss %v", r.h.CAS(3, 103, 8))
		say(r, "load %d", r.h.Load(3))
		say(r, "last word %d", r.h.Load(words-1))
		return observed{loads: 3, stores: 5, cases: 2}
	}
	wild := func(r *run) {
		for _, a := range []Addr{0, words} {
			say(r, "load %#x: %s", a, panicText(func() { r.h.Load(a) }))
			say(r, "store %#x: %s", a, panicText(func() { r.h.Store(a, 1) }))
			say(r, "cas %#x: %s", a, panicText(func() { r.h.CAS(a, 0, 1) }))
		}
	}
	// Fence raised after Open: writes drop, uncounted, and reads go on and
	// find memory unchanged.
	fenced := func(r *run) observed {
		r.d.FenceClient(cid)
		r.h.Store(2, 999)
		say(r, "fenced cas %v", r.h.CAS(3, 7, 999))
		say(r, "fenced %v", r.h.Fenced())
		say(r, "load %d %d", r.h.Load(2), r.h.Load(3))
		return observed{loads: 2}
	}

	var want []string // the bare, uncounted heap handle: the fast path itself
	for _, be := range backends {
		for _, count := range []bool{false, true} {
			for _, st := range configs {
				name := fmt.Sprintf("%s/CountAccesses=%v/%s", be.name, count, st.name)
				t.Run(name, func(t *testing.T) {
					d := be.open(t, count)
					ic, hooksSaw := st.intercept()
					d.SetIntercept(ic)
					r := &run{d: d, h: d.Open(cid)}
					if fast, want := r.h.words != nil, st.name == "bare" && !count; fast != want {
						t.Fatalf("fast path taken: %v, want %v", fast, want)
					}
					deviceSaw := func() observed {
						s := d.Stats()
						return observed{s.Loads, s.Stores, s.CASes}
					}
					// check runs one part and compares what it issued with what
					// the hooks and the device's own counters saw of it.
					check := func(part string, f func(*run) observed) {
						var l0 observed
						if hooksSaw != nil {
							l0 = hooksSaw()
						}
						d0 := deviceSaw()
						issued := f(r)
						if hooksSaw != nil {
							l1 := hooksSaw()
							got := observed{l1.loads - l0.loads, l1.stores - l0.stores, l1.cases - l0.cases}
							if st.name == "WithWriteFaults" {
								got.loads = issued.loads // a write hook sees no loads
							}
							if got != issued {
								t.Errorf("%s: intercept observed %+v, handle issued %+v", part, got, issued)
							}
						}
						d1 := deviceSaw()
						got := observed{d1.loads - d0.loads, d1.stores - d0.stores, d1.cases - d0.cases}
						if !count {
							issued = observed{}
						}
						if got != issued {
							t.Errorf("%s: Stats() moved by %+v, want %+v", part, got, issued)
						}
					}
					check("plain accesses", plain)
					wild(r)
					check("fenced accesses", fenced)

					if want == nil {
						want = r.trace
						if got := want[5]; got != "load 0x0: cxl: wild device access at word 0x0 (pool 64 words)" {
							t.Fatalf("reference panic text: %q", got)
						}
						if got := want[len(want)-2:]; got[0] != "fenced true" || got[1] != "load 102 7" {
							t.Fatalf("reference fence behaviour: %q", got)
						}
					}
					if !reflect.DeepEqual(r.trace, want) {
						t.Errorf("trace differs from the bare handle's:\n got %q\nwant %q", r.trace, want)
					}
				})
			}
		}
	}
}
