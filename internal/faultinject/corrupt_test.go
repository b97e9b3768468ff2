package faultinject

import (
	"reflect"
	"testing"

	"repro/internal/cxl"
)

// fakeMem is a tiny word store for exercising at-rest injection without a
// real device.
type fakeMem map[cxl.Addr]uint64

func (m fakeMem) Load(a cxl.Addr) uint64     { return m[a] }
func (m fakeMem) Store(a cxl.Addr, v uint64) { m[a] = v }

func seededMem() fakeMem {
	m := fakeMem{}
	for a := cxl.Addr(0); a < 64; a++ {
		m[a] = uint64(a) * 0x9e3779b97f4a7c15
	}
	return m
}

// TestCorruptorDeterministic is the -repro contract: the same (region,
// class, seed) over the same candidate addresses must yield the identical
// injected fault sequence, run after run.
func TestCorruptorDeterministic(t *testing.T) {
	candidates := []cxl.Addr{3, 7, 11, 15, 19, 23, 27, 31}
	for _, class := range AllClasses {
		for _, region := range AllRegions {
			var sequences [][]InjectedFault
			for run := 0; run < 2; run++ {
				m := seededMem()
				c := NewCorruptor(region, class, 42)
				i := c.PickIndex(len(candidates))
				switch class {
				case ClassBitFlip:
					c.FlipBit(m, candidates[i])
				case ClassTorn:
					c.Tear(m, candidates[i:])
				case ClassStuckCAS:
					snap := m.Load(candidates[i])
					c.Arm([]cxl.Addr{candidates[i]})
					// Model a trial where no CAS reached the region.
					c.Disarm()
					c.FallbackAtRest(m, candidates[i], snap)
				}
				sequences = append(sequences, c.Faults())
			}
			if len(sequences[0]) == 0 {
				t.Errorf("%s/%s: no faults injected", region, class)
			}
			if !reflect.DeepEqual(sequences[0], sequences[1]) {
				t.Errorf("%s/%s: fault sequences differ across runs:\n  %v\n  %v",
					region, class, sequences[0], sequences[1])
			}
		}
	}
}

// TestCorruptorSeedsDiverge guards against a degenerate planner that ignores
// the seed (which would silently shrink campaign coverage).
func TestCorruptorSeedsDiverge(t *testing.T) {
	candidates := []cxl.Addr{3, 7, 11, 15, 19, 23, 27, 31}
	diverged := false
	for seed := int64(0); seed < 8 && !diverged; seed++ {
		m1, m2 := seededMem(), seededMem()
		c1 := NewCorruptor(RegionBlockHeader, ClassBitFlip, seed)
		c2 := NewCorruptor(RegionBlockHeader, ClassBitFlip, seed+1)
		c1.FlipBit(m1, candidates[c1.PickIndex(len(candidates))])
		c2.FlipBit(m2, candidates[c2.PickIndex(len(candidates))])
		if !reflect.DeepEqual(c1.Faults(), c2.Faults()) {
			diverged = true
		}
	}
	if !diverged {
		t.Fatal("eight consecutive seeds produced identical faults; planner ignores the seed")
	}
}

// TestCorruptorTearScribblesTail checks the torn-write shape: a cut point
// k ≥ 1, prefix untouched, every tail word rewritten.
func TestCorruptorTearScribblesTail(t *testing.T) {
	record := []cxl.Addr{10, 11, 12, 13, 14}
	m := seededMem()
	orig := map[cxl.Addr]uint64{}
	for _, a := range record {
		orig[a] = m.Load(a)
	}
	c := NewCorruptor(RegionRedoLog, ClassTorn, 7)
	faults := c.Tear(m, record)
	if len(faults) == 0 || len(faults) >= len(record) {
		t.Fatalf("tear rewrote %d of %d words; want at least 1 and at most %d",
			len(faults), len(record), len(record)-1)
	}
	k := len(record) - len(faults)
	for _, a := range record[:k] {
		if m.Load(a) != orig[a] {
			t.Errorf("prefix word %d changed: %#x -> %#x", a, orig[a], m.Load(a))
		}
	}
	for i, a := range record[k:] {
		if m.Load(a) != faults[i].After {
			t.Errorf("tail word %d: device holds %#x, fault record says %#x", a, m.Load(a), faults[i].After)
		}
	}
}

// TestCorruptorStuckCASLie drives the live hook end to end over a real
// device: a lying CAS reports success, leaves the word stale, and records
// exactly one live fault.
func TestCorruptorStuckCASLie(t *testing.T) {
	dev, err := cxl.NewDevice(cxl.Config{Words: 128, MaxClients: 4})
	if err != nil {
		t.Fatal(err)
	}
	const target = cxl.Addr(17)
	dev.Store(target, 5)

	// Find a seed drawing the lie flavor so the test is deterministic.
	var lier *Corruptor
	for seed := int64(0); seed < 32; seed++ {
		cand := NewCorruptor(RegionQueueSlot, ClassStuckCAS, seed)
		cand.Arm([]cxl.Addr{target})
		if cand.Lie() {
			lier = cand
			break
		}
	}
	if lier == nil {
		t.Fatal("no seed in [0,32) draws the success-lie flavor")
	}
	dev.SetIntercept(cxl.Intercept{Write: lier.Hook})
	if !dev.CAS(target, 5, 6) {
		t.Fatal("lying CAS reported failure; want success-lie")
	}
	if got := dev.Load(target); got != 5 {
		t.Fatalf("word moved to %d under a success-lie; want stale 5", got)
	}
	if !lier.Fired() {
		t.Fatal("live fault not recorded")
	}
	// The lie is one-shot: the next CAS is honest.
	if !dev.CAS(target, 5, 6) || dev.Load(target) != 6 {
		t.Fatal("hook did not return to honesty after the one-shot lie")
	}
}

// TestCorruptorStuckCASSpin drives the spin flavor: CAS fails spinFailures-1
// times and the next attempt wedges the caller with stuckCASSpin.
func TestCorruptorStuckCASSpin(t *testing.T) {
	var spinner *Corruptor
	for seed := int64(0); seed < 32; seed++ {
		cand := NewCorruptor(RegionEraMatrix, ClassStuckCAS, seed)
		cand.Arm([]cxl.Addr{cxl.Addr(9)})
		if !cand.Lie() {
			spinner = cand
			break
		}
	}
	if spinner == nil {
		t.Fatal("no seed in [0,32) draws the spin flavor")
	}
	dev, err := cxl.NewDevice(cxl.Config{Words: 64, MaxClients: 4})
	if err != nil {
		t.Fatal(err)
	}
	dev.SetIntercept(cxl.Intercept{Write: spinner.Hook})
	dev.Store(9, 1)
	crash := Run(func() {
		for i := 0; i < spinFailures+2; i++ {
			if dev.CAS(9, 1, 2) {
				t.Fatal("spinning CAS reported success")
			}
		}
	})
	if crash == nil || crash.Point != stuckCASSpin {
		t.Fatalf("spin did not wedge the caller: crash=%v", crash)
	}
	if got := dev.Load(9); got != 1 {
		t.Fatalf("word moved to %d under spin-fail; want stale 1", got)
	}
}
