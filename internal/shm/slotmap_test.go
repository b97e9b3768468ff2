package shm_test

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/layout"
	"repro/internal/shm"
)

// The free-slot bitmap is an accelerator that nothing but Connect keeps, so
// Connect must be right over any bitmap at all: it claims FREE and RECOVERED
// slots only, each at most once and every one of them before it reports
// exhaustion, and the status scan it falls back to leaves every claimable
// slot listed in the bitmap. The slots are in every status, and the bitmap
// words are all ones, all zeros, random, or set only beyond MaxClients.
func TestConnectOverAnyBitmap(t *testing.T) {
	const clients = 70 // two bitmap words, the second one mostly beyond MaxClients
	statuses := []uint64{layout.ClientSlotFree, layout.ClientAlive, layout.ClientDead, layout.ClientRecovered}
	rng := rand.New(rand.NewSource(1))
	bitmaps := map[string]func(w int, beyond uint64) uint64{
		"all-ones":  func(int, uint64) uint64 { return ^uint64(0) },
		"all-zeros": func(int, uint64) uint64 { return 0 },
		"random":    func(int, uint64) uint64 { return rng.Uint64() },
		"beyond":    func(_ int, beyond uint64) uint64 { return beyond },
	}
	for name, bitmap := range bitmaps {
		t.Run(name, func(t *testing.T) {
			p, err := shm.NewPool(shm.Config{Geometry: layout.GeometryConfig{
				MaxClients:   clients,
				NumSegments:  16,
				SegmentWords: 1 << 13,
				PageWords:    1 << 9,
				MaxQueues:    8,
			}})
			if err != nil {
				t.Fatal(err)
			}
			defer p.CloseDevice()
			geo, dev := p.Geometry(), p.Device()
			claimable := map[int]bool{}
			for cid := 1; cid <= clients; cid++ {
				s := statuses[cid%len(statuses)]
				dev.Store(geo.ClientStatusAddr(cid), s)
				if s == layout.ClientSlotFree || s == layout.ClientRecovered {
					claimable[cid] = true
				}
			}
			for w := 0; w < int(geo.SlotMapWords); w++ {
				var beyond uint64
				for b := 0; b < 64; b++ {
					if w*64+b+1 > clients {
						beyond |= 1 << b
					}
				}
				dev.Store(geo.SlotMapAddr(w), bitmap(w, beyond))
			}
			listed := func(cid int) bool {
				a, bit := geo.SlotMapBit(cid)
				return dev.Load(a)&bit != 0
			}

			fellBack := false
			for want := len(claimable); ; want-- {
				// A Connect that finds no claimable slot listed falls back
				// to the status scan.
				hidden := true
				for cid := range claimable {
					hidden = hidden && !listed(cid)
				}
				c, err := p.Connect()
				if want == 0 {
					var ex *shm.SlotExhaustedError
					if !errors.As(err, &ex) {
						t.Fatalf("Connect over an exhausted pool: %v, %v", c, err)
					}
					break
				}
				if err != nil {
					t.Fatalf("Connect with %d claimable slots left: %v", want, err)
				}
				if !claimable[c.ID()] {
					t.Fatalf("Connect took slot %d, which was not claimable", c.ID())
				}
				delete(claimable, c.ID())
				fellBack = fellBack || hidden
				if !fellBack {
					continue
				}
				for cid := range claimable {
					if !listed(cid) {
						t.Fatalf("after a fallback, claimable slot %d is missing from the bitmap", cid)
					}
				}
			}
		})
	}
}
