// Package cxl simulates a CXL-attached shared memory device.
//
// The paper's hardware platform maps one external CXL memory device into the
// physical address space of multiple compute nodes, forming a single cache
// coherency domain that supports plain loads/stores plus atomic
// compare-and-swap. This package models that device as one concrete type,
// Device: a word-addressable pool. A load is an atomic load, a CAS a locked
// compare-and-swap and a store one plain x86 store (storeWord), so all
// clients (goroutines standing in for threads/processes/machines) share one
// coherent memory under x86-TSO, the model a host's own loads and stores see
// of CXL 3.0 shared memory. The words live on the Go heap (NewDevice) or in
// an mmap'd file (CreateMapDevice, OpenMapDevice); either way the data path
// is the same code. What a campaign or a model adds to that path — the
// Table 1 latency model, an access hook, write faults — is one Intercept
// value set on the device (SetIntercept).
//
// Addresses are 64-bit word offsets from the beginning of the pool
// (machine-independent pointers, like PMDK-style offsets). Address 0 is
// reserved as the nil pointer.
//
// The device also models two failure-related hardware features:
//
//   - RAS fencing: a fence (Device.FenceClient) silently drops, for good,
//     every later store and CAS through the client's Handles opened before
//     it, modelling "the failed client cannot modify the shared memory pool
//     after its recovery has started" (paper §3.2); one opened after writes.
//   - Flush/fence accounting: Handle.Flush and Handle.SFence count
//     invocations and optionally burn a configurable latency, so the
//     Figure 7 cost breakdown can be reproduced.
package cxl

import (
	"fmt"
	"sync/atomic"
)

// Addr is a machine-independent pointer: a word offset into the device.
// Addr 0 is the nil pointer.
type Addr = uint64

// WordBytes is the size of one device word.
const WordBytes = 8

// LineWords is the number of words per modelled cache line.
const LineWords = 8

// counters is one access-counter block. The device keeps one for its own
// management-plane accesses and one per client ID for Handle accesses, so
// concurrent clients never share a counter cache line: enabling access
// counting must not serialize the very accesses whose scalability the
// benchmarks measure. Stats merges all blocks on read.
type counters struct {
	loads, stores, cases, flushes, fences atomic.Uint64
	_                                     [24]byte // pad to a cache line
}

func (c *counters) reset() {
	c.loads.Store(0)
	c.stores.Store(0)
	c.cases.Store(0)
	c.flushes.Store(0)
	c.fences.Store(0)
}

// Device is the simulated CXL shared memory pool. Its words and fence epochs
// live on the Go heap (NewDevice) or in an mmap'd file (CreateMapDevice,
// OpenMapDevice, NewAnonMapDevice); the data path is the same either way.
//
// Direct Device calls (Load, Store, CAS) are the management plane — pool
// formatting, the recovery service, validators — which the paper's model
// exempts from client fencing. Client code opens a Handle (Open), the only
// path on which RAS fencing, the latency model and per-client access
// accounting apply.
//
// All word accesses are atomic. Concurrent use by any number of Handles is
// safe; the zero value is not usable, construct with NewDevice or one of the
// file constructors.
type Device struct {
	words []uint64
	// fence[cid] counts client cid's RAS fences: a Handle writes only while
	// it holds the count it captured at Open. For a file-backed device this
	// slice views the shared file, so a recovery service in another process
	// can fence this process's clients.
	fence []atomic.Uint64

	// data is the file mapping words and fence view (nil on the heap), and
	// path the file's name. readOnly marks a PROT_READ observer mapping:
	// every mutating call panics by name (see deny).
	data     []byte
	path     string
	readOnly bool

	// icpt is what observes, prices or corrupts accesses (SetIntercept).
	icpt Intercept

	// countAccesses enables the per-access load/store/CAS counters. Off by
	// default; when on, counting is handle-local (see counters).
	countAccesses bool

	// devCtr counts management-plane accesses (direct Device calls: pool
	// formatting, recovery, validators).
	devCtr counters
	// hctr[cid] is the counter block Handles opened for cid use. Handle
	// incarnations for the same client ID share a block, so totals stay
	// monotonic across slot reuse.
	hctr []counters
}

// Config configures a Device.
type Config struct {
	// Words is the pool size in 8-byte words. Must be > 0.
	Words int
	// MaxClients bounds the client IDs that can be fenced. Must be > 0.
	MaxClients int
	// CountAccesses enables load/store/CAS statistics. Counting is
	// handle-local and merged on read, so it perturbs concurrent
	// benchmarks far less than a shared counter would; still, keep it off
	// for pure throughput runs.
	CountAccesses bool
}

// NewDevice creates a heap-backed device of cfg.Words words, all zero.
func NewDevice(cfg Config) (*Device, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	d := &Device{}
	d.init(make([]uint64, cfg.Words), make([]atomic.Uint64, cfg.MaxClients+1), cfg.CountAccesses)
	return d, nil
}

func (cfg Config) validate() error {
	if cfg.Words <= 0 {
		return fmt.Errorf("cxl: pool size must be positive, got %d words", cfg.Words)
	}
	if cfg.MaxClients <= 0 {
		return fmt.Errorf("cxl: MaxClients must be positive, got %d", cfg.MaxClients)
	}
	return nil
}

// init wires the device core around the given storage. words and fence may
// live on the Go heap (NewDevice) or inside an mmap'd file (newMapDevice).
func (d *Device) init(words []uint64, fence []atomic.Uint64, countAccesses bool) {
	d.words = words
	d.fence = fence
	d.countAccesses = countAccesses
	d.hctr = make([]counters, len(fence))
}

// Words reports the size of the pool in words.
func (d *Device) Words() int { return len(d.words) }

// Bytes reports the size of the pool in bytes.
func (d *Device) Bytes() int { return len(d.words) * WordBytes }

// MaxClients reports the highest client ID that can be fenced or opened.
func (d *Device) MaxClients() int { return len(d.fence) - 1 }

// check panics on an out-of-range address. A real device would machine-check;
// in the simulation an out-of-range access is always an implementation bug,
// never a recoverable condition, so panicking is the correct response.
func (d *Device) check(a Addr) {
	if a == 0 || a >= uint64(len(d.words)) {
		panic(fmt.Sprintf("cxl: wild device access at word %#x (pool %d words)", a, len(d.words)))
	}
}

// deny panics for a mutating call on a read-only mapping: a tool that
// attached read-only and then tries to write is always a bug, better caught
// here, by name, than as a SIGSEGV from the MMU.
func (d *Device) deny(op string) {
	panic(fmt.Sprintf("cxl: %s on a read-only pool mapping (attached with OpenMapDeviceReadOnly; reopen read-write to mutate)", op))
}

// Load atomically reads the word at a. The intercept's Access hook sees it
// as cid 0.
func (d *Device) Load(a Addr) uint64 {
	d.check(a)
	if d.icpt.Access != nil {
		d.icpt.Access(0, OpLoad, a)
	}
	if d.countAccesses {
		d.devCtr.loads.Add(1)
	}
	return atomic.LoadUint64(&d.words[a])
}

// Store writes v to the word at a with storeWord, ignoring fencing. It is used
// by the recovery service and by pool initialization. Client code must go
// through a Handle so RAS fencing applies. The intercept's Access hook sees
// it as cid 0, then its Write hook decides its fate.
func (d *Device) Store(a Addr, v uint64) {
	if d.readOnly {
		d.deny(fmt.Sprintf("Store(%#x)", a))
	}
	d.check(a)
	if d.icpt.Access != nil {
		d.icpt.Access(0, OpStore, a)
	}
	if d.icpt.Write != nil {
		var ok bool
		if v, ok = d.icpt.faultStore(a, v); !ok {
			return
		}
	}
	if d.countAccesses {
		d.devCtr.stores.Add(1)
	}
	storeWord(&d.words[a], v)
}

// CAS atomically compares-and-swaps the word at a, ignoring fencing. The
// intercept applies as for Store.
func (d *Device) CAS(a Addr, old, new uint64) bool {
	if d.readOnly {
		d.deny(fmt.Sprintf("CAS(%#x)", a))
	}
	d.check(a)
	if d.icpt.Access != nil {
		d.icpt.Access(0, OpCAS, a)
	}
	if d.icpt.Write != nil {
		var ok, res bool
		if new, ok, res = d.icpt.faultCAS(a, new); !ok {
			return res
		}
	}
	if d.countAccesses {
		d.devCtr.cases.Add(1)
	}
	return atomic.CompareAndSwapUint64(&d.words[a], old, new)
}

// FenceClient RAS-fences client cid for good: every Handle opened for cid so
// far drops its stores and CAS from now on; a Handle opened later writes.
func (d *Device) FenceClient(cid int) {
	if d.readOnly {
		d.deny("FenceClient")
	}
	if cid <= 0 || cid >= len(d.fence) {
		return
	}
	d.fence[cid].Add(1)
}

// Stats is a snapshot of device access counters.
type Stats struct {
	Loads, Stores, CASes, Flushes, Fences uint64
}

// Stats merges the management-plane counters and every client's handle
// counters into one snapshot.
func (d *Device) Stats() Stats {
	s := Stats{
		Loads:   d.devCtr.loads.Load(),
		Stores:  d.devCtr.stores.Load(),
		CASes:   d.devCtr.cases.Load(),
		Flushes: d.devCtr.flushes.Load(),
		Fences:  d.devCtr.fences.Load(),
	}
	for i := range d.hctr {
		c := &d.hctr[i]
		s.Loads += c.loads.Load()
		s.Stores += c.stores.Load()
		s.CASes += c.cases.Load()
		s.Flushes += c.flushes.Load()
		s.Fences += c.fences.Load()
	}
	return s
}

// ResetStats zeroes all access counters, including every handle's.
func (d *Device) ResetStats() {
	d.devCtr.reset()
	for i := range d.hctr {
		d.hctr[i].reset()
	}
}
