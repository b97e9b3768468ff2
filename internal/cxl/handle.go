package cxl

import "sync/atomic"

// Handle is one client's view of a Memory. It is the only path client code
// may use to access shared memory: RAS fencing, the latency model, access
// hooks and per-client access counting are applied here. A Handle is owned
// by a single goroutine and is not goroutine-safe (matching the paper's
// one-client-per-thread model); the Memory underneath is fully concurrent.
//
// Dispatch hangs on one precomputed condition, held in words: the device's
// word array exactly when nothing observes or prices this handle's accesses
// (opened directly on a *Device or *MapDevice, no hook, no latency model,
// not counting), nil otherwise. Under it Load/Store/CAS are a bounds test
// against words, the fence-word load (Store/CAS) and one sync/atomic op; any
// other access — words nil, a wild address, a fenced client — runs the
// *Slow twin: wild-access panic, dropped writes, hooks, latency, counters,
// interface path. setFast recomputes it in Open (clear if the device counts),
// retarget and setHook (clear) and setLatency (clear for a non-zero profile).
type Handle struct {
	// mem is the full Memory stack accesses flow through when dev is nil.
	mem Memory
	// dev short-circuits to the concrete bottom device when no intercepting
	// middleware is stacked (devirtualized path, hooks and latency allowed).
	dev *Device
	// words is dev's word array while the fast-path condition holds.
	words []uint64
	cid   int

	// fencedW points at this client's RAS fence word in the bottom device
	// (heap or mmap'd file). Fencing is device-authoritative, so the fast
	// check survives retargeting through middleware.
	fencedW *atomic.Uint32
	// ctr is this client's counter block in the bottom device, merged into
	// Stats on read. count gates all counting on it; on the interface path
	// the bottom device counts loads, stores and CAS for itself.
	ctr   *counters
	count bool

	// lat, when set, applies the latency model (see Latency); installed by
	// the WithLatency middleware. cache models this client's CPU cache: a
	// small direct-mapped set of recently touched line addresses, consulted
	// only when lat is set.
	lat   *Latency
	cache lineCache

	// hook, when set, observes every access before it executes (installed
	// by WithAccessHook); it may panic to simulate a crash mid-operation.
	hook AccessHook

	// droppedWrites counts stores/CAS swallowed by the RAS fence.
	droppedWrites uint64
}

// Open creates a Handle for client cid. cid must be in [1, MaxClients].
func (d *Device) Open(cid int) *Handle {
	if cid <= 0 || cid >= len(d.fenced) {
		panic("cxl: Open with out-of-range client id")
	}
	return (&Handle{
		mem:     d,
		dev:     d,
		cid:     cid,
		fencedW: &d.fenced[cid],
		ctr:     &d.hctr[cid],
		count:   d.countAccesses,
	}).setFast()
}

// setFast recomputes the fast-path condition (see Handle).
func (h *Handle) setFast() *Handle {
	h.words = nil
	if h.dev != nil && h.hook == nil && h.lat == nil && !h.count {
		h.words = h.dev.words
	}
	return h
}

// retarget reroutes the handle's data path through m, an intercepting
// middleware layer: dev is cleared so every Load/Store/CAS goes through m.
// The fence word and counter block stay wired to the bottom device
// (fencing and Stats remain device-authoritative); fast-path counting is
// disabled because the bottom device now counts the interface-path calls
// itself. Any handle-level hook installed by a layer below m is cleared
// for the same reason: that layer now sees the retargeted traffic at the
// device plane, and keeping the handle hook too would fire it twice.
// Hook layers stacked above m set their hook after this runs and keep it.
func (h *Handle) retarget(m Memory) *Handle {
	h.mem = m
	h.dev = nil
	h.count = false
	h.hook = nil
	return h.setFast()
}

// setLatency installs the latency profile (WithLatency middleware).
func (h *Handle) setLatency(l Latency) *Handle {
	if l != (Latency{}) {
		h.lat = &l
	}
	return h.setFast()
}

// setHook installs an access hook (WithAccessHook middleware). Multiple
// hooks chain, innermost first.
func (h *Handle) setHook(hook AccessHook) *Handle {
	if prev := h.hook; prev != nil {
		h.hook = func(cid int, kind AccessKind, a Addr) {
			prev(cid, kind, a)
			hook(cid, kind, a)
		}
	} else {
		h.hook = hook
	}
	return h.setFast()
}

// Fenced reports whether this handle's client has been RAS-fenced.
func (h *Handle) Fenced() bool { return h.fencedW.Load() != 0 }

// DroppedWrites reports how many stores/CAS were swallowed by the fence.
func (h *Handle) DroppedWrites() uint64 { return h.droppedWrites }

// Load atomically reads the word at a.
func (h *Handle) Load(a Addr) uint64 {
	if a != 0 && a < uint64(len(h.words)) {
		return atomic.LoadUint64(&h.words[a])
	}
	return h.loadSlow(a)
}

func (h *Handle) loadSlow(a Addr) uint64 {
	if h.hook != nil {
		h.hook(h.cid, OpLoad, a)
	}
	if h.lat != nil {
		h.chargeAccess(a, false)
	}
	if d := h.dev; d != nil {
		d.check(a)
		if h.count {
			h.ctr.loads.Add(1)
		}
		return atomic.LoadUint64(&d.words[a])
	}
	return h.mem.Load(a)
}

// Store atomically writes v at a. If the client is fenced the write is
// silently dropped, exactly as a RAS-isolated node's writes never reach the
// device.
func (h *Handle) Store(a Addr, v uint64) {
	if a != 0 && a < uint64(len(h.words)) && h.fencedW.Load() == 0 {
		atomic.StoreUint64(&h.words[a], v)
		return
	}
	h.storeSlow(a, v)
}

func (h *Handle) storeSlow(a Addr, v uint64) {
	d := h.dev
	if d != nil {
		d.check(a)
	}
	if h.Fenced() {
		h.droppedWrites++
		return
	}
	if h.hook != nil {
		h.hook(h.cid, OpStore, a)
	}
	if h.lat != nil {
		h.chargeAccess(a, false)
	}
	if d != nil {
		if h.count {
			h.ctr.stores.Add(1)
		}
		atomic.StoreUint64(&d.words[a], v)
		return
	}
	h.mem.Store(a, v)
}

// CAS atomically compares-and-swaps the word at a. Returns false without
// touching memory if the client is fenced.
func (h *Handle) CAS(a Addr, old, new uint64) bool {
	if a != 0 && a < uint64(len(h.words)) && h.fencedW.Load() == 0 {
		return atomic.CompareAndSwapUint64(&h.words[a], old, new)
	}
	return h.casSlow(a, old, new)
}

func (h *Handle) casSlow(a Addr, old, new uint64) bool {
	d := h.dev
	if d != nil {
		d.check(a)
	}
	if h.Fenced() {
		h.droppedWrites++
		return false
	}
	if h.hook != nil {
		h.hook(h.cid, OpCAS, a)
	}
	if h.lat != nil {
		h.chargeAccess(a, true)
	}
	if d != nil {
		if h.count {
			h.ctr.cases.Add(1)
		}
		return atomic.CompareAndSwapUint64(&d.words[a], old, new)
	}
	return h.mem.CAS(a, old, new)
}

// SFence orders the client's preceding stores before its subsequent ones,
// modelling the sfence the paper inserts in the allocation fast path. With
// Go atomics every access is already sequentially consistent, so the fence
// only needs to be accounted (and optionally charged) for the Figure 7
// breakdown.
func (h *Handle) SFence() {
	if h.hook != nil {
		h.hook(h.cid, OpFence, 0)
	}
	if h.count {
		h.ctr.fences.Add(1)
	}
	if h.lat != nil && h.lat.FenceNS > 0 {
		h.lat.charge(h.lat.FenceNS)
	}
	if h.dev == nil {
		h.mem.Fence()
	}
}

// Flush models a CLWB of the cache line containing a, persisting it to the
// device (needed on the paper's CXL 2.0 platform; see §6.1). It is an
// accounting no-op plus optional latency.
func (h *Handle) Flush(a Addr) {
	if h.hook != nil {
		h.hook(h.cid, OpFlush, a)
	}
	if h.count {
		h.ctr.flushes.Add(1)
	}
	if h.lat != nil && h.lat.FlushNS > 0 {
		h.lat.charge(h.lat.FlushNS)
	}
	if h.dev == nil {
		h.mem.Flush(a)
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

// ReadBytes copies n bytes starting at byte offset off within the object at
// word address a into p. Word loads are atomic; byte extraction is
// little-endian, matching how a real CXL device presents memory to x86
// hosts. Whole interior words are read with a single load.
func (h *Handle) ReadBytes(a Addr, off int, p []byte) {
	i := 0
	for i < len(p) {
		byteIdx := off + i
		wordOff := byteIdx % WordBytes
		wa := a + Addr(byteIdx/WordBytes)
		w := h.Load(wa)
		if wordOff == 0 && len(p)-i >= WordBytes {
			// Full-word fast path.
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

// WriteBytes stores p at byte offset off within the object at word address
// a. Whole interior words are written with single stores; partial edge words
// use read-modify-write (non-atomic with respect to concurrent writers of
// the same word, exactly like real shared memory).
func (h *Handle) WriteBytes(a Addr, off int, p []byte) {
	i := 0
	for i < len(p) {
		byteIdx := off + i
		wordOff := byteIdx % WordBytes
		wa := a + Addr(byteIdx/WordBytes)
		if wordOff == 0 && len(p)-i >= WordBytes {
			// Full-word fast path.
			var w uint64
			for k := 0; k < WordBytes; k++ {
				w |= uint64(p[i+k]) << (8 * k)
			}
			h.Store(wa, w)
			i += WordBytes
			continue
		}
		// Partial word: read-modify-write.
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
