// Package cxl simulates a CXL-attached shared memory device.
//
// The paper's hardware platform maps one external CXL memory device into the
// physical address space of multiple compute nodes, forming a single cache
// coherency domain that supports plain loads/stores plus atomic
// compare-and-swap. This package models that device behind the Memory
// interface as a word-addressable pool. Every access goes through
// sync/atomic, so all clients (goroutines standing in for threads/processes/
// machines) observe a linearizable shared memory exactly as CXL 3.0 memory
// sharing promises. Two backends implement Memory — the heap-backed Device
// here and the mmap'd-file MapDevice — plus arbitrary middleware stacks
// built with Wrap.
//
// Addresses are 64-bit word offsets from the beginning of the pool
// (machine-independent pointers, like PMDK-style offsets). Address 0 is
// reserved as the nil pointer.
//
// The device also models two failure-related hardware features:
//
//   - RAS fencing: once a client ID is fenced (Memory.FenceClient), stores
//     and CAS issued through that client's Handle are silently dropped,
//     modelling "the failed client cannot modify the shared memory pool
//     after its recovery has started" (paper §3.2).
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

// Device is the heap-backed simulated CXL shared memory pool. MapDevice
// embeds it to reuse the entire data path over an mmap'd file.
//
// All word accesses are atomic. Concurrent use by any number of Handles is
// safe; the zero value is not usable, construct with NewDevice.
type Device struct {
	words []uint64
	// fenced[cid] is nonzero once client cid has been RAS-fenced. For a
	// MapDevice this slice views the shared file, so a recovery service in
	// another process can fence this process's clients.
	fenced []atomic.Uint32

	// countAccesses enables the per-access load/store/CAS counters. Off by
	// default; when on, counting is handle-local (see counters).
	countAccesses bool

	// devCtr counts management-plane accesses (direct Memory calls: pool
	// formatting, recovery, validators).
	devCtr counters
	// hctr[cid] is the counter block Handles opened for cid use. Handle
	// incarnations for the same client ID share a block, so totals stay
	// monotonic across slot reuse.
	hctr []counters
}

// Device implements Memory.
var _ Memory = (*Device)(nil)

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
	d.init(make([]uint64, cfg.Words), make([]atomic.Uint32, cfg.MaxClients+1), cfg.CountAccesses)
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

// init wires the device core around the given storage. words and fenced may
// live on the Go heap (NewDevice) or inside an mmap'd file (MapDevice).
func (d *Device) init(words []uint64, fenced []atomic.Uint32, countAccesses bool) {
	d.words = words
	d.fenced = fenced
	d.countAccesses = countAccesses
	d.hctr = make([]counters, len(fenced))
}

// Words reports the size of the pool in words.
func (d *Device) Words() int { return len(d.words) }

// Bytes reports the size of the pool in bytes.
func (d *Device) Bytes() int { return len(d.words) * WordBytes }

// MaxClients reports the highest client ID that can be fenced or opened.
func (d *Device) MaxClients() int { return len(d.fenced) - 1 }

// SetAccessCounting switches load/store/CAS counting on or off. Call before
// the device is shared (handles snapshot the flag at Open); intended for
// instrumenting a freshly opened MapDevice.
func (d *Device) SetAccessCounting(on bool) { d.countAccesses = on }

// check panics on an out-of-range address. A real device would machine-check;
// in the simulation an out-of-range access is always an implementation bug,
// never a recoverable condition, so panicking is the correct response.
func (d *Device) check(a Addr) {
	if a == 0 || a >= uint64(len(d.words)) {
		panic(fmt.Sprintf("cxl: wild device access at word %#x (pool %d words)", a, len(d.words)))
	}
}

// Load atomically reads the word at a.
func (d *Device) Load(a Addr) uint64 {
	d.check(a)
	if d.countAccesses {
		d.devCtr.loads.Add(1)
	}
	return atomic.LoadUint64(&d.words[a])
}

// Store atomically writes v to the word at a, ignoring fencing. It is used
// by the recovery service and by pool initialization. Client code must go
// through a Handle so RAS fencing applies.
func (d *Device) Store(a Addr, v uint64) {
	d.check(a)
	if d.countAccesses {
		d.devCtr.stores.Add(1)
	}
	atomic.StoreUint64(&d.words[a], v)
}

// CAS atomically compares-and-swaps the word at a, ignoring fencing.
func (d *Device) CAS(a Addr, old, new uint64) bool {
	d.check(a)
	if d.countAccesses {
		d.devCtr.cases.Add(1)
	}
	return atomic.CompareAndSwapUint64(&d.words[a], old, new)
}

// Fence is a management-plane ordering point. Go atomics are sequentially
// consistent, so nothing to do; Handle.SFence carries the accounting.
func (d *Device) Fence() {}

// Flush is a management-plane CLWB point; Handle.Flush carries the
// accounting and latency.
func (d *Device) Flush(a Addr) {}

// FenceClient RAS-fences client cid: all subsequent stores and CAS issued
// through a Handle opened for cid are dropped. Idempotent.
func (d *Device) FenceClient(cid int) {
	if cid <= 0 || cid >= len(d.fenced) {
		return
	}
	d.fenced[cid].Store(1)
}

// UnfenceClient lifts the RAS fence for cid (used when a recovered client
// slot is handed to a fresh client).
func (d *Device) UnfenceClient(cid int) {
	if cid <= 0 || cid >= len(d.fenced) {
		return
	}
	d.fenced[cid].Store(0)
}

// ClientFenced reports whether cid is currently fenced.
func (d *Device) ClientFenced(cid int) bool {
	if cid <= 0 || cid >= len(d.fenced) {
		return false
	}
	return d.fenced[cid].Load() != 0
}

// Close releases backend resources: nothing, for the heap backend.
func (d *Device) Close() error { return nil }

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
