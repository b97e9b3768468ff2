package faultinject

import (
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/cxl"
)

// Corruption model. The access sweeper covers fail-stop:
// a client dies, the words it wrote stay exactly as written. This file covers
// the messier device-side faults ("Towards CXL Resilience to CPU Failures"):
//
//	bit-flip    one word has one bit inverted at rest
//	torn        a multi-word record was being rewritten when the writer died:
//	            a prefix of the record carries the new value, the tail is
//	            scribbled garbage
//	stuck-cas   a wedged agent: CAS against a word either reports success
//	            while leaving the word stale (success-lie), or fails
//	            persistently until the caller gives up (spin)
//
// Faults are targetable by pool region and deterministic from a seed: the
// Corruptor consumes randomness in a fixed order (index, then bit/cut/flavor,
// then garbage words), so the same (region, class, seed) triple over the same
// candidate addresses reproduces the identical fault sequence on any backend —
// the property `faultsim -repro` depends on.
//
// The package stays device-level: it knows addresses, not layout. Resolving a
// Region to its candidate addresses requires the pool geometry and live
// structures, so that mapping lives in the campaign driver (internal/sweep).

// Region names a targetable area of the pool for corruption injection.
type Region string

// Targetable regions.
const (
	RegionSuperblock  Region = "superblock"
	RegionSegmentMeta Region = "segment-meta"
	RegionBlockHeader Region = "block-header"
	RegionRedoLog     Region = "redo-log"
	RegionEraMatrix   Region = "era-matrix"
	RegionQueueSlot   Region = "queue-slot"
	RegionTelemetry   Region = "telemetry"
)

// AllRegions lists every targetable region, for systematic campaigns.
var AllRegions = []Region{
	RegionSuperblock, RegionSegmentMeta, RegionBlockHeader, RegionRedoLog,
	RegionEraMatrix, RegionQueueSlot, RegionTelemetry,
}

// ParseRegion resolves a region name.
func ParseRegion(s string) (Region, error) {
	for _, r := range AllRegions {
		if string(r) == s {
			return r, nil
		}
	}
	return "", fmt.Errorf("faultinject: unknown region %q (want one of %v)", s, AllRegions)
}

// Class names a corruption fault class.
type Class string

// Fault classes.
const (
	ClassBitFlip  Class = "bit-flip"
	ClassTorn     Class = "torn"
	ClassStuckCAS Class = "stuck-cas"
)

// AllClasses lists every fault class, for systematic campaigns.
var AllClasses = []Class{ClassBitFlip, ClassTorn, ClassStuckCAS}

// ParseClass resolves a fault-class name.
func ParseClass(s string) (Class, error) {
	for _, c := range AllClasses {
		if string(c) == s {
			return c, nil
		}
	}
	return "", fmt.Errorf("faultinject: unknown fault class %q (want one of %v)", s, AllClasses)
}

// stuckCASSpin is the crash label raised when a spin-flavored
// stuck CAS has failed enough times that the acting client counts as wedged;
// the harness converts the panic into a client death, modeling an agent that
// hung retrying and was fenced.
const stuckCASSpin Point = "corrupt/stuck-cas-spin"

// spinFailures is how many injected CAS failures a spin-flavored stuck CAS
// delivers before declaring the caller wedged.
const spinFailures = 4

// InjectedFault records one concrete fault the Corruptor delivered, in
// injection order. The sequence is the campaign's reproducibility contract:
// equal seeds and candidate sets must yield equal sequences.
type InjectedFault struct {
	Region Region
	Class  Class
	Addr   cxl.Addr
	// Bit is the flipped bit index (bit-flip only).
	Bit uint
	// Before and After are the word values around the fault. For a live
	// stuck CAS, Before is the stale value left in place and After the value
	// the caller believed it wrote (lie) or wanted to write (spin).
	Before, After uint64
	// Mode distinguishes how the fault landed: "at-rest" (word rewritten in
	// place), "live" (intercepted in flight), or "at-rest-fallback" (stuck
	// CAS armed but never exercised; staleness emulated at rest).
	Mode string
}

func (f InjectedFault) String() string {
	switch f.Class {
	case ClassBitFlip:
		return fmt.Sprintf("%s/%s @%d bit %d (%#x -> %#x)", f.Region, f.Class, f.Addr, f.Bit, f.Before, f.After)
	default:
		return fmt.Sprintf("%s/%s @%d %s (%#x -> %#x)", f.Region, f.Class, f.Addr, f.Mode, f.Before, f.After)
	}
}

// wordMem is the slice of cxl.Device the at-rest injectors need.
type wordMem interface {
	Load(cxl.Addr) uint64
	Store(cxl.Addr, uint64)
}

// Corruptor plans and delivers the faults of one campaign trial. All
// randomness flows from the seed in a fixed consumption order, so a trial is
// replayable from (region, class, seed) alone. The zero Corruptor is not
// usable; construct with NewCorruptor.
//
// At-rest classes (bit-flip, torn) write the fault directly. Stuck CAS is
// live: Arm it over the region's words and install Hook as the device's
// cxl.Intercept.Write; if no CAS reaches the region before the trial ends,
// FallbackAtRest emulates the staleness after the fact so every trial
// injects something.
type Corruptor struct {
	region Region
	class  Class
	seed   int64
	rng    *rand.Rand

	mu      sync.Mutex
	faults  []InjectedFault
	armed   bool
	targets map[cxl.Addr]struct{}
	lie     bool // stuck-CAS flavor: success-lie vs spin-fail
	fails   int  // spin: injected failures so far
}

// NewCorruptor returns a corruptor for one (region, class, seed) trial.
func NewCorruptor(region Region, class Class, seed int64) *Corruptor {
	return &Corruptor{
		region: region,
		class:  class,
		seed:   seed,
		rng:    rand.New(rand.NewSource(seed)),
	}
}

// Region returns the targeted region.
func (c *Corruptor) Region() Region { return c.region }

// Class returns the fault class.
func (c *Corruptor) Class() Class { return c.class }

// Seed returns the trial seed.
func (c *Corruptor) Seed() int64 { return c.seed }

// Faults returns the faults injected so far, in order.
func (c *Corruptor) Faults() []InjectedFault {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]InjectedFault(nil), c.faults...)
}

func (c *Corruptor) record(f InjectedFault) {
	c.mu.Lock()
	c.faults = append(c.faults, f)
	c.mu.Unlock()
}

// PickIndex deterministically selects one of n candidates (the campaign
// driver calls it to choose a word, record, or slot within the region).
func (c *Corruptor) PickIndex(n int) int {
	if n <= 1 {
		return 0
	}
	return c.rng.Intn(n)
}

// FlipBit injects a single-bit flip at a: one seeded bit of the word is
// inverted at rest.
func (c *Corruptor) FlipBit(m wordMem, a cxl.Addr) InjectedFault {
	bit := uint(c.rng.Intn(64))
	before := m.Load(a)
	after := before ^ (1 << bit)
	m.Store(a, after)
	f := InjectedFault{
		Region: c.region, Class: ClassBitFlip, Addr: a, Bit: bit,
		Before: before, After: after, Mode: "at-rest",
	}
	c.record(f)
	return f
}

// Tear injects a torn multi-word update over record: a seeded cut point
// k ∈ [1, len) is chosen, words before k are left as written (the prefix that
// landed), and words [k, len) are scribbled with seeded garbage (the tail the
// dying writer never completed, read back as whatever the line buffer held).
// Records shorter than two words degrade to a full-word scribble.
func (c *Corruptor) Tear(m wordMem, record []cxl.Addr) []InjectedFault {
	if len(record) == 0 {
		return nil
	}
	k := 0
	if len(record) > 1 {
		k = 1 + c.rng.Intn(len(record)-1)
	}
	var out []InjectedFault
	for _, a := range record[k:] {
		before := m.Load(a)
		after := c.rng.Uint64()
		m.Store(a, after)
		f := InjectedFault{
			Region: c.region, Class: ClassTorn, Addr: a,
			Before: before, After: after, Mode: "at-rest",
		}
		c.record(f)
		out = append(out, f)
	}
	return out
}

// Arm prepares live stuck-CAS injection over the given words: the next CAS
// any client issues against one of them misbehaves. The flavor — success-lie
// or spin-fail — is drawn from the seed. Install Hook as the device's
// cxl.Intercept.Write for the arming to take effect.
func (c *Corruptor) Arm(targets []cxl.Addr) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.targets = make(map[cxl.Addr]struct{}, len(targets))
	for _, a := range targets {
		c.targets[a] = struct{}{}
	}
	c.lie = c.rng.Intn(2) == 0
	c.fails = 0
	c.armed = true
}

// Disarm stops live injection (recovery, repair and validation must run over
// an honest device).
func (c *Corruptor) Disarm() {
	c.mu.Lock()
	c.armed = false
	c.mu.Unlock()
}

// Lie reports the drawn stuck-CAS flavor: true for success-lie, false for
// spin-fail. Only meaningful after Arm.
func (c *Corruptor) Lie() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lie
}

// Hook is the cxl.WriteFaultHook delivering live stuck-CAS faults. Stores
// always pass through; a CAS against an armed target either success-lies
// (the caller proceeds believing the word updated, but it is stale) or fails
// spinFailures times and then raises stuckCASSpin, wedging the caller.
func (c *Corruptor) Hook(kind cxl.AccessKind, a cxl.Addr, v uint64) (uint64, cxl.WriteFault) {
	if kind != cxl.OpCAS {
		return v, cxl.WriteThrough
	}
	c.mu.Lock()
	if !c.armed {
		c.mu.Unlock()
		return v, cxl.WriteThrough
	}
	if _, ok := c.targets[a]; !ok {
		c.mu.Unlock()
		return v, cxl.WriteThrough
	}
	if c.lie {
		c.armed = false // one lie per trial: exactly one word goes stale
		c.faults = append(c.faults, InjectedFault{
			Region: c.region, Class: ClassStuckCAS, Addr: a,
			After: v, Mode: "live",
		})
		c.mu.Unlock()
		return v, cxl.WriteDrop
	}
	c.fails++
	if c.fails >= spinFailures {
		c.armed = false
		c.faults = append(c.faults, InjectedFault{
			Region: c.region, Class: ClassStuckCAS, Addr: a,
			After: v, Mode: "live",
		})
		c.mu.Unlock()
		panic(Crash{Point: stuckCASSpin})
	}
	c.mu.Unlock()
	return v, cxl.WriteFailCAS
}

// Fired reports whether live injection already delivered its fault.
func (c *Corruptor) Fired() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, f := range c.faults {
		if f.Mode == "live" {
			return true
		}
	}
	return false
}

// FallbackAtRest emulates a stuck CAS at rest when the live hook was armed
// but no CAS reached the region before the trial ended: if the word moved
// since arming it is reverted to the arm-time snapshot (the staleness a
// success-lie would have left), otherwise its low bit is flipped (the
// divergence a lied-to caller believes it wrote). Call with the arm-time
// snapshot of the chosen word.
func (c *Corruptor) FallbackAtRest(m wordMem, a cxl.Addr, snapshot uint64) InjectedFault {
	before := m.Load(a)
	after := snapshot
	if before == snapshot {
		after = snapshot ^ 1
	}
	m.Store(a, after)
	f := InjectedFault{
		Region: c.region, Class: ClassStuckCAS, Addr: a,
		Before: before, After: after, Mode: "at-rest-fallback",
	}
	c.record(f)
	return f
}
