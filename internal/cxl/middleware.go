package cxl

import "sync/atomic"

// Middleware is a composable Memory interceptor. Wrap stacks middleware
// over a backend, re-homing what used to be baked-in device internals —
// the Table 1 latency model, access counting, crash-point hooks for fault
// campaigns — as configuration:
//
//	mem := cxl.Wrap(dev,
//	    cxl.WithLatency(cxl.LatencyCXL),
//	    cxl.WithCounting(&ctr),
//	    cxl.WithAccessHook(hook))
//
// Two kinds of layers exist. Handle-transparent layers (WithLatency)
// configure the client path at Open time and keep the devirtualized
// concrete fast path to the bottom device. Intercepting layers
// (WithCounting, WithAccessHook at the device plane) retarget handles onto
// the interface path so they observe every access, including the
// management-plane accesses of recovery and validators.
type Middleware func(Memory) Memory

// Wrap applies middleware to m innermost-first: the last element of mws
// becomes the outermost layer.
func Wrap(m Memory, mws ...Middleware) Memory {
	for _, mw := range mws {
		m = mw(m)
	}
	return m
}

// Unwrapper is implemented by middleware layers; Bottom uses it to find the
// backing device.
type Unwrapper interface {
	Unwrap() Memory
}

// Bottom walks the middleware stack to the backing Memory (the heap Device
// or MapDevice at the bottom).
func Bottom(m Memory) Memory {
	for {
		u, ok := m.(Unwrapper)
		if !ok {
			return m
		}
		m = u.Unwrap()
	}
}

// passthrough delegates the full Memory surface to an inner layer;
// middleware embeds it and overrides what it intercepts.
type passthrough struct {
	inner Memory
}

func (p *passthrough) Words() int             { return p.inner.Words() }
func (p *passthrough) Bytes() int             { return p.inner.Bytes() }
func (p *passthrough) Load(a Addr) uint64     { return p.inner.Load(a) }
func (p *passthrough) Store(a Addr, v uint64) { p.inner.Store(a, v) }
func (p *passthrough) CAS(a Addr, old, new uint64) bool {
	return p.inner.CAS(a, old, new)
}
func (p *passthrough) Fence()                    { p.inner.Fence() }
func (p *passthrough) Flush(a Addr)              { p.inner.Flush(a) }
func (p *passthrough) MaxClients() int           { return p.inner.MaxClients() }
func (p *passthrough) FenceClient(cid int)       { p.inner.FenceClient(cid) }
func (p *passthrough) UnfenceClient(cid int)     { p.inner.UnfenceClient(cid) }
func (p *passthrough) ClientFenced(cid int) bool { return p.inner.ClientFenced(cid) }
func (p *passthrough) Open(cid int) *Handle      { return p.inner.Open(cid) }
func (p *passthrough) Stats() Stats              { return p.inner.Stats() }
func (p *passthrough) ResetStats()               { p.inner.ResetStats() }
func (p *passthrough) Close() error              { return p.inner.Close() }
func (p *passthrough) Unwrap() Memory            { return p.inner }

// --- latency middleware ---

// latencyMem carries a Latency profile for the client path. It is
// handle-transparent: handles opened through it keep the concrete fast
// path, because the latency model has always charged only client (Handle)
// accesses — the management plane (recovery service, validators) is exempt,
// matching real hardware where latency lives in the client's interconnect
// path, not in the passive device.
type latencyMem struct {
	passthrough
	lat Latency
}

// WithLatency injects the Table 1 latency model into every Handle opened
// through the returned layer. See Latency for the model.
func WithLatency(lat Latency) Middleware {
	return func(m Memory) Memory {
		return &latencyMem{passthrough{m}, lat}
	}
}

func (l *latencyMem) Open(cid int) *Handle {
	return l.inner.Open(cid).setLatency(l.lat)
}

// LatencyProfile exposes the configured profile (tests, tools).
func (l *latencyMem) LatencyProfile() Latency { return l.lat }

// --- counting middleware ---

// AccessCounter aggregates every access flowing through a WithCounting
// layer. Unlike the backend's built-in handle-local counting, one counter
// observes the whole stack — client and management plane alike — at the
// cost of shared atomics; use it for campaigns and tools, not for
// fast-path benchmarks.
type AccessCounter struct {
	Loads, Stores, CASes, Flushes, Fences atomic.Uint64
}

// Snapshot returns the counter values as a Stats.
func (c *AccessCounter) Snapshot() Stats {
	return Stats{
		Loads:   c.Loads.Load(),
		Stores:  c.Stores.Load(),
		CASes:   c.CASes.Load(),
		Flushes: c.Flushes.Load(),
		Fences:  c.Fences.Load(),
	}
}

// Reset zeroes the counter.
func (c *AccessCounter) Reset() {
	c.Loads.Store(0)
	c.Stores.Store(0)
	c.CASes.Store(0)
	c.Flushes.Store(0)
	c.Fences.Store(0)
}

type countingMem struct {
	passthrough
	ctr *AccessCounter
}

// WithCounting counts every access through the layer into ctr. Handles are
// retargeted onto the interface path so client accesses are observed too.
func WithCounting(ctr *AccessCounter) Middleware {
	return func(m Memory) Memory {
		return &countingMem{passthrough{m}, ctr}
	}
}

func (c *countingMem) Load(a Addr) uint64 {
	c.ctr.Loads.Add(1)
	return c.inner.Load(a)
}

func (c *countingMem) Store(a Addr, v uint64) {
	c.ctr.Stores.Add(1)
	c.inner.Store(a, v)
}

func (c *countingMem) CAS(a Addr, old, new uint64) bool {
	c.ctr.CASes.Add(1)
	return c.inner.CAS(a, old, new)
}

func (c *countingMem) Fence() {
	c.ctr.Fences.Add(1)
	c.inner.Fence()
}

func (c *countingMem) Flush(a Addr) {
	c.ctr.Flushes.Add(1)
	c.inner.Flush(a)
}

func (c *countingMem) Open(cid int) *Handle {
	return c.inner.Open(cid).retarget(c)
}

// --- access-hook middleware ---

// AccessKind distinguishes the operations an AccessHook observes.
type AccessKind uint8

// Hooked operations.
const (
	OpLoad AccessKind = iota
	OpStore
	OpCAS
	OpFlush
	OpFence
)

func (k AccessKind) String() string {
	switch k {
	case OpLoad:
		return "load"
	case OpStore:
		return "store"
	case OpCAS:
		return "cas"
	case OpFlush:
		return "flush"
	case OpFence:
		return "fence"
	}
	return "?"
}

// AccessHook observes one access before it executes. cid is the client the
// access is issued for, or 0 for management-plane accesses. A hook may
// panic (e.g. with faultinject.Crash) to bring down the current client at
// an exact device-access boundary — the §6.2.2 crash injector as stack
// configuration instead of code edits.
type AccessHook func(cid int, kind AccessKind, a Addr)

type hookMem struct {
	passthrough
	hook AccessHook
}

// WithAccessHook invokes hook before every access through the layer:
// client accesses carry the issuing client's ID (hooked on the Handle),
// management-plane accesses carry cid 0. Stack it outside retargeting
// layers (WithCounting) to keep client IDs — a hook layer below one still
// observes every access, but at the device plane, as cid 0.
func WithAccessHook(hook AccessHook) Middleware {
	return func(m Memory) Memory {
		return &hookMem{passthrough{m}, hook}
	}
}

func (hm *hookMem) Load(a Addr) uint64 {
	hm.hook(0, OpLoad, a)
	return hm.inner.Load(a)
}

func (hm *hookMem) Store(a Addr, v uint64) {
	hm.hook(0, OpStore, a)
	hm.inner.Store(a, v)
}

func (hm *hookMem) CAS(a Addr, old, new uint64) bool {
	hm.hook(0, OpCAS, a)
	return hm.inner.CAS(a, old, new)
}

func (hm *hookMem) Fence() {
	hm.hook(0, OpFence, 0)
	hm.inner.Fence()
}

func (hm *hookMem) Flush(a Addr) {
	hm.hook(0, OpFlush, a)
	hm.inner.Flush(a)
}

func (hm *hookMem) Open(cid int) *Handle {
	// Hook at the handle (carries the client ID, keeps the concrete data
	// path underneath) instead of retargeting: the handle invokes the hook
	// itself, so the device-plane interception above never double-fires
	// for client accesses.
	return hm.inner.Open(cid).setHook(hm.hook)
}
