package cxl

import (
	"encoding/binary"
	"sync/atomic"
)

// Handle is one client's view of a Device. It is the only path client code
// may use to access shared memory: RAS fencing, the device's Intercept and
// per-client access counting are applied here; a fence drops a Handle's
// writes for good, and only a Handle opened after it writes. A Handle is
// owned by a single goroutine and is not goroutine-safe (matching the paper's
// one-client-per-thread model); the Device underneath is fully concurrent.
//
// Dispatch hangs on one precomputed condition, held in words: the device's
// word array exactly when nothing observes or prices this handle's accesses
// (a zero Intercept, not counting), nil otherwise. Under it Load/Store/CAS
// are a bounds test against words, the fence-word load (Store/CAS) and one
// access: an atomic load, a plain store (storeFast: on amd64 the tests and the
// store are one assembly routine) or an atomic CAS. Anything else (words
// nil, a wild address, a fenced handle) runs the *Slow twin: wild-access
// panic, dropped writes, the intercept, counters. Open computes it once.
type Handle struct {
	dev *Device
	// words is dev's word array while the fast-path condition holds.
	words []uint64
	cid   int

	// fence points at this client's RAS fence epoch in the device (heap or
	// mmap'd file); the handle writes only while it still equals epoch.
	fence *atomic.Uint64
	epoch uint64
	// ctr is this client's counter block in the device, merged into Stats
	// on read. count gates all counting on it.
	ctr   *counters
	count bool

	// lat, when set, applies the intercept's latency model (see Latency).
	// cache models this client's CPU cache: a small direct-mapped set of
	// recently touched line addresses, consulted only when lat is set.
	lat   *Latency
	cache lineCache
}

// Open creates a Handle for client cid. cid must be in [1, MaxClients].
func (d *Device) Open(cid int) *Handle {
	if d.readOnly {
		d.deny("Open")
	}
	if cid <= 0 || cid >= len(d.fence) {
		panic("cxl: Open with out-of-range client id")
	}
	h := &Handle{
		dev:   d,
		cid:   cid,
		fence: &d.fence[cid],
		epoch: d.fence[cid].Load(),
		ctr:   &d.hctr[cid],
		count: d.countAccesses,
	}
	if d.icpt.Latency != (Latency{}) {
		h.lat = &d.icpt.Latency
	}
	if d.icpt.Access == nil && d.icpt.Write == nil && h.lat == nil && !h.count {
		h.words = d.words
	}
	return h
}

// Fenced reports whether this handle has been RAS-fenced. Once true, it stays.
func (h *Handle) Fenced() bool { return h.fence.Load() != h.epoch }

// Load atomically reads the word at a.
func (h *Handle) Load(a Addr) uint64 {
	if a != 0 && a < uint64(len(h.words)) {
		return atomic.LoadUint64(&h.words[a])
	}
	return h.loadSlow(a)
}

func (h *Handle) loadSlow(a Addr) uint64 {
	d := h.dev
	if d.icpt.Access != nil {
		d.icpt.Access(h.cid, OpLoad, a)
	}
	if h.lat != nil {
		h.chargeAccess(a, false)
	}
	d.check(a)
	if h.count {
		h.ctr.loads.Add(1)
	}
	return atomic.LoadUint64(&d.words[a])
}

// Store writes v at a with storeFast: on amd64 one assembly call that runs
// the fast-path tests and one plain store. If the handle is fenced the write
// is silently dropped, exactly as a RAS-isolated node's writes never reach
// the device.
func (h *Handle) Store(a Addr, v uint64) { storeFast(h, a, v) }

func (h *Handle) storeSlow(a Addr, v uint64) {
	d := h.dev
	d.check(a)
	if h.Fenced() {
		return
	}
	if d.icpt.Access != nil {
		d.icpt.Access(h.cid, OpStore, a)
	}
	if h.lat != nil {
		h.chargeAccess(a, false)
	}
	if d.icpt.Write != nil {
		var ok bool
		if v, ok = d.icpt.faultStore(a, v); !ok {
			return
		}
	}
	if h.count {
		h.ctr.stores.Add(1)
	}
	storeWord(&d.words[a], v)
}

// CAS atomically compares-and-swaps the word at a. Returns false without
// touching memory if the handle is fenced.
func (h *Handle) CAS(a Addr, old, new uint64) bool {
	if a != 0 && a < uint64(len(h.words)) && h.fence.Load() == h.epoch {
		return atomic.CompareAndSwapUint64(&h.words[a], old, new)
	}
	return h.casSlow(a, old, new)
}

func (h *Handle) casSlow(a Addr, old, new uint64) bool {
	d := h.dev
	d.check(a)
	if h.Fenced() {
		return false
	}
	if d.icpt.Access != nil {
		d.icpt.Access(h.cid, OpCAS, a)
	}
	if h.lat != nil {
		h.chargeAccess(a, true)
	}
	if d.icpt.Write != nil {
		var ok, res bool
		if new, ok, res = d.icpt.faultCAS(a, new); !ok {
			return res
		}
	}
	if h.count {
		h.ctr.cases.Add(1)
	}
	return atomic.CompareAndSwapUint64(&d.words[a], old, new)
}

// SFence orders the client's preceding stores before its subsequent ones,
// modelling the sfence the paper inserts in the allocation fast path. Under
// x86-TSO one client's stores already become visible in program order (and
// Store off amd64 is sequentially consistent), so the fence only needs to be
// accounted (and optionally charged) for the Figure 7 breakdown.
func (h *Handle) SFence() {
	if hook := h.dev.icpt.Access; hook != nil {
		hook(h.cid, OpFence, 0)
	}
	if h.count {
		h.ctr.fences.Add(1)
	}
	if h.lat != nil && h.lat.FenceNS > 0 {
		h.lat.charge(h.lat.FenceNS)
	}
}

// Flush models a CLWB of the cache line containing a, persisting it to the
// device (needed on the paper's CXL 2.0 platform; see §6.1). It is an
// accounting no-op plus optional latency.
func (h *Handle) Flush(a Addr) {
	if hook := h.dev.icpt.Access; hook != nil {
		hook(h.cid, OpFlush, a)
	}
	if h.count {
		h.ctr.flushes.Add(1)
	}
	if h.lat != nil && h.lat.FlushNS > 0 {
		h.lat.charge(h.lat.FlushNS)
	}
}

// chargeAccess applies the latency model for one word access.
func (h *Handle) chargeAccess(a Addr, cas bool) {
	lat := h.lat
	if !lat.enabled() {
		return
	}
	if cas {
		if lat.CASNS > 0 {
			lat.charge(lat.CASNS)
		}
		// CAS invalidates the line everywhere; drop it from our cache too.
		h.cache.invalidate(a)
		return
	}
	if h.cache.touch(a) {
		return // modelled cache hit: free
	}
	if lat.MissNS > 0 {
		lat.charge(lat.MissNS)
	}
}

// ReadBytes copies len(p) bytes starting at byte offset off (>= 0) within
// the object at word address a into p, a word at a time: one atomic load per
// word the range touches, in address order, each word laid out
// little-endian, matching how a real CXL device presents memory to x86
// hosts. A whole word goes straight into p; a partial word at either edge
// contributes only the bytes the range covers.
func (h *Handle) ReadBytes(a Addr, off int, p []byte) {
	if len(p) == 0 {
		return
	}
	a += Addr(off / WordBytes)
	if at := off % WordBytes; at != 0 {
		p = p[h.loadPart(a, at, p):]
		a++
	}
	for len(p) >= WordBytes {
		binary.LittleEndian.PutUint64(p, h.Load(a))
		p = p[WordBytes:]
		a++
	}
	if len(p) > 0 {
		h.loadPart(a, 0, p)
	}
}

// WriteBytes stores p at byte offset off (>= 0) within the object at word
// address a, a word at a time, in address order: one store per whole word,
// and a read-modify-write (a load, then a store) for a partial word at
// either edge. The read-modify-write is not atomic with respect to
// concurrent writers of the same word, exactly like real shared memory.
func (h *Handle) WriteBytes(a Addr, off int, p []byte) {
	if len(p) == 0 {
		return
	}
	a += Addr(off / WordBytes)
	if at := off % WordBytes; at != 0 {
		p = p[h.storePart(a, at, p):]
		a++
	}
	for len(p) >= WordBytes {
		h.Store(a, binary.LittleEndian.Uint64(p))
		p = p[WordBytes:]
		a++
	}
	if len(p) > 0 {
		h.storePart(a, 0, p)
	}
}

// loadPart copies the bytes of word a from byte at onwards into the head of
// p, as many as fit, and returns how many it copied.
func (h *Handle) loadPart(a Addr, at int, p []byte) int {
	var w [WordBytes]byte
	binary.LittleEndian.PutUint64(w[:], h.Load(a))
	return copy(p, w[at:])
}

// storePart overwrites the bytes of word a from byte at onwards with the
// head of p, as many as fit, by read-modify-write, and returns how many it
// stored.
func (h *Handle) storePart(a Addr, at int, p []byte) int {
	var w [WordBytes]byte
	binary.LittleEndian.PutUint64(w[:], h.Load(a))
	n := copy(w[at:], p)
	h.Store(a, binary.LittleEndian.Uint64(w[:]))
	return n
}
