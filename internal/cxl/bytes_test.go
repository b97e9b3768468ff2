package cxl

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"
)

// readBytesRef is the byte-at-a-time ReadBytes the word copies replaced,
// kept as the reference they must match access for access.
func readBytesRef(h *Handle, a Addr, off int, p []byte) {
	i := 0
	for i < len(p) {
		byteIdx := off + i
		wordOff := byteIdx % WordBytes
		wa := a + Addr(byteIdx/WordBytes)
		w := h.Load(wa)
		if wordOff == 0 && len(p)-i >= WordBytes {
			for k := 0; k < WordBytes; k++ {
				p[i+k] = byte(w >> (8 * k))
			}
			i += WordBytes
			continue
		}
		n := WordBytes - wordOff
		if n > len(p)-i {
			n = len(p) - i
		}
		for k := 0; k < n; k++ {
			p[i+k] = byte(w >> (8 * (wordOff + k)))
		}
		i += n
	}
}

// writeBytesRef is the byte-at-a-time WriteBytes the word copies replaced:
// a store per whole word, a read-modify-write per partial one.
func writeBytesRef(h *Handle, a Addr, off int, p []byte) {
	i := 0
	for i < len(p) {
		byteIdx := off + i
		wordOff := byteIdx % WordBytes
		wa := a + Addr(byteIdx/WordBytes)
		if wordOff == 0 && len(p)-i >= WordBytes {
			var w uint64
			for k := 0; k < WordBytes; k++ {
				w |= uint64(p[i+k]) << (8 * k)
			}
			h.Store(wa, w)
			i += WordBytes
			continue
		}
		w := h.Load(wa)
		n := WordBytes - wordOff
		if n > len(p)-i {
			n = len(p) - i
		}
		for k := 0; k < n; k++ {
			shift := 8 * (wordOff + k)
			w &^= uint64(0xff) << shift
			w |= uint64(p[i+k]) << shift
		}
		h.Store(wa, w)
		i += n
	}
}

// access is one device access as an AccessHook sees it.
type access struct {
	kind AccessKind
	a    Addr
}

// bytesRig is a counting device whose access hook records every access, so
// a copy's exact access sequence can be compared with the reference's.
type bytesRig struct {
	d   *Device
	h   *Handle
	seq []access
}

// TestBytesMatchReference runs ReadBytes and WriteBytes against the
// byte-at-a-time reference for every offset 0–15 and every length 0–40, on
// a heap and a file-backed device: the same bytes read, the same device
// words after a write (neighbour bytes included), and the same accesses —
// kind, address and order — and the same load and store counts per call.
func TestBytesMatchReference(t *testing.T) {
	const words, base = 16, 4
	backends := []struct {
		name string
		open func(t *testing.T) *Device
	}{
		{"heap", func(t *testing.T) *Device {
			d, err := NewDevice(Config{Words: words, MaxClients: 2, CountAccesses: true})
			if err != nil {
				t.Fatal(err)
			}
			return d
		}},
		{"mmap", func(t *testing.T) *Device {
			d, err := NewAnonMapDevice(Config{Words: words, MaxClients: 2, CountAccesses: true})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { d.Close() })
			return d
		}},
	}
	// fill sets every word to a pattern with no two bytes equal, so a byte
	// read from or written to the wrong place shows.
	fill := func(r *bytesRig) {
		for a := Addr(1); a < words; a++ {
			r.d.Store(a, 0x0706050403020100+0x0808080808080808*uint64(a))
		}
	}
	for _, be := range backends {
		t.Run(be.name, func(t *testing.T) {
			rig := func() *bytesRig {
				r := &bytesRig{d: be.open(t)}
				r.d.SetIntercept(Intercept{Access: func(_ int, kind AccessKind, a Addr) {
					r.seq = append(r.seq, access{kind, a})
				}})
				r.h = r.d.Open(1)
				return r
			}
			got, want := rig(), rig()
			// run performs op on both rigs from the same device state and
			// compares the accesses and counts it cost.
			run := func(what string, op func(r *bytesRig)) {
				t.Helper()
				for _, r := range []*bytesRig{got, want} {
					fill(r)
					r.d.ResetStats()
					r.seq = r.seq[:0]
					op(r)
				}
				if !reflect.DeepEqual(got.seq, want.seq) {
					t.Fatalf("%s: accesses %v, want %v", what, got.seq, want.seq)
				}
				if g, w := got.d.Stats(), want.d.Stats(); g.Loads != w.Loads || g.Stores != w.Stores {
					t.Fatalf("%s: %d loads %d stores, want %d and %d", what, g.Loads, g.Stores, w.Loads, w.Stores)
				}
			}
			src := make([]byte, 40)
			for i := range src {
				src[i] = 0xA0 + byte(i)
			}
			for off := 0; off < 16; off++ {
				for n := 0; n <= 40; n++ {
					what := fmt.Sprintf("off %d len %d", off, n)
					pg, pw := make([]byte, n), make([]byte, n)
					run("read "+what, func(r *bytesRig) {
						if r == got {
							r.h.ReadBytes(base, off, pg)
						} else {
							readBytesRef(r.h, base, off, pw)
						}
					})
					if !bytes.Equal(pg, pw) {
						t.Fatalf("read %s: % x, want % x", what, pg, pw)
					}
					run("write "+what, func(r *bytesRig) {
						if r == got {
							r.h.WriteBytes(base, off, src[:n])
						} else {
							writeBytesRef(r.h, base, off, src[:n])
						}
					})
					for a := Addr(1); a < words; a++ {
						if g, w := got.d.Load(a), want.d.Load(a); g != w {
							t.Fatalf("write %s: word %d = %#x, want %#x", what, a, g, w)
						}
					}
				}
			}
		})
	}
}

// FuzzDeviceBytes compares ReadBytes and WriteBytes with the byte-at-a-time
// reference on the fast path (no intercept, no counting): random device
// words, offset and data must read the same bytes and leave the same words.
func FuzzDeviceBytes(f *testing.F) {
	const words, base = 32, 2
	f.Add(make([]byte, 8*words), uint8(0), []byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 8*words), uint8(4), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte("device words"), uint8(13), bytes.Repeat([]byte{0x5a}, 41))
	open := func(t *testing.T, init []byte) *Handle {
		d, err := NewDevice(Config{Words: words, MaxClients: 2})
		if err != nil {
			t.Fatal(err)
		}
		for a := Addr(1); a < words; a++ {
			var w [WordBytes]byte
			copy(w[:], init[min(len(init), int(a)*WordBytes):])
			d.Store(a, binary.LittleEndian.Uint64(w[:]))
		}
		return d.Open(1)
	}
	f.Fuzz(func(t *testing.T, init []byte, off uint8, data []byte) {
		o := int(off % 64)
		if room := (words-base)*WordBytes - o; len(data) > room {
			data = data[:room]
		}
		got, want := open(t, init), open(t, init)
		pg, pw := make([]byte, len(data)), make([]byte, len(data))
		got.ReadBytes(base, o, pg)
		readBytesRef(want, base, o, pw)
		if !bytes.Equal(pg, pw) {
			t.Fatalf("off %d: read % x, want % x", o, pg, pw)
		}
		got.WriteBytes(base, o, data)
		writeBytesRef(want, base, o, data)
		for a := Addr(1); a < words; a++ {
			if g, w := got.Load(a), want.Load(a); g != w {
				t.Fatalf("off %d len %d: word %d = %#x, want %#x", o, len(data), a, g, w)
			}
		}
	})
}
