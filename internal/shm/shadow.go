package shm

import (
	"fmt"

	"repro/internal/layout"
	"repro/internal/obs"
)

// Owner-local metadata shadow cache.
//
// The paper's fast-path argument (§3.3, §5.1) is that allocation needs no
// cross-client synchronization because each client owns its segments
// exclusively. The original implementation still re-read the owner-exclusive
// words (page meta pmInfo/pmFree/pmScan, the segment next-page counter) from
// the device on every operation — round trips that CXL access latency makes
// expensive. This file adds a client-side shadow of exactly those words with
// a strict write-through discipline:
//
//   - The device words stay authoritative. Every mutation stores the new
//     value to the device at the same program point the old code did, so the
//     §5.1 ordering (link → fence → advance) is unchanged on the device.
//   - Only reads are elided: an owner-exclusive word is written by one
//     client only (deferred frees from other clients go through the
//     segment's client_free CAS list, never the page meta), so the shadow
//     can never go stale while the client lives.
//   - Recovery and validation never look at a shadow: a crash loses the
//     cache and recovery reconstructs everything from device words alone.
//     A RAS-fenced client's shadow may diverge (its stores are dropped),
//     which is harmless for the same reason — nothing it does is visible.
//
// The shadow also carries the O(1) page-membership flag (onClassList) that
// replaces readdClassPage's linear scan, and fixes a latent exhaustion bug:
// a temporarily-full page popped from the class/RootRef cache is now
// re-added the moment one of its blocks comes back.

// ownedPage is the client-side shadow of one owned page: where its slots
// are, the device address of its meta area, mirrors of the three meta words,
// the class-cache membership flag and the page's reference shadows.
type ownedPage struct {
	meta layout.Addr // device address of the page's meta area
	// Slot i (RootRef, or block of the page's class) sits at base + i*unit;
	// roots or blocks shadows them, allocated on first use. recip is
	// ⌈2⁶⁴/unit⌉, which turns the slot index into a multiply (refcache.go).
	base, unit layout.Addr
	recip      uint64
	roots      []rootShadow
	blocks     []blockShadow
	info       uint64 // shadow of meta+pmInfo (packed PageMeta)
	free       uint64 // shadow of meta+pmFree (free-list head)
	scan       uint64 // shadow of meta+pmScan (bump pointer)
	// onClassList marks the page as present in classPages[class] (normal
	// pages) or rootPages (RootRef pages), making re-adds O(1).
	onClassList bool

	// pend holds blocks (or RootRef slots) freed by this client but not yet
	// published to the page's device free list: each is free-marked on the
	// device (header zero, meta recording this client as freeer — exactly
	// the "lost block" state the segment-local scan accepts once the freeer
	// is dead), while the chain/head stores are batched into the next
	// publication burst. Allocation pops from here first, so a free/malloc
	// pair in the same epoch costs zero list publication stores.
	pend []layout.Addr
	// usedDelta accumulates unpublished changes to the page's Used counter
	// (pmInfo): +1 per allocation, -1 per deferred free. The device word
	// lags by at most one publication epoch; nothing in recovery or
	// validation reads Used (it is an owner-local occupancy hint).
	usedDelta int32
	// pendListed marks the page as present in the client's pendPages list.
	pendListed bool
}

// ownedSeg is the client-side shadow of one owned segment: the claimed-page
// counter and the pages claimed so far.
type ownedSeg struct {
	seg      int
	nextPage int          // shadow of the segment's next-page counter
	pages    []*ownedPage // indexed by page number; nil beyond nextPage
}

// ownedSegOf returns the shadow for seg if this client owns it, else nil
// (also for SegmentIndexOf's −1), sparing the free path a SegState load: a
// segment enters at claimSegment and never leaves while the client lives.
func (c *Client) ownedSegOf(seg int) *ownedSeg {
	if uint(seg) >= uint(len(c.ownedBySeg)) {
		return nil
	}
	return c.ownedBySeg[seg]
}

// ownedPageOf returns the shadow for the page containing addr, or nil when
// the address is not in an owned, claimed page.
func (c *Client) ownedPageOf(seg int, addr layout.Addr) *ownedPage {
	os := c.ownedSegOf(seg)
	if os == nil {
		return nil
	}
	pg := c.geo.PageIndexOf(seg, addr)
	if pg < 0 || pg >= len(os.pages) {
		return nil
	}
	return os.pages[pg]
}

// storePMFree writes a page's free-list head word, keeping the shadow
// coherent when the page is owned. Cold paths that may touch either owned or
// foreign pages (the segment-local scan's relink rounds) must go through
// this instead of a raw store.
func (c *Client) storePMFree(seg int, metaA layout.Addr, v uint64) {
	c.h.Store(metaA+pmFree, v)
	if os := c.ownedSegOf(seg); os != nil {
		// metaA identifies the page by its meta address, not a data address;
		// recover the page index from the meta-area offset.
		pg := int((metaA - c.geo.PageMetaAddr(seg, 0)) / layout.Addr(layout.PageMetaWords))
		if pg >= 0 && pg < len(os.pages) && os.pages[pg] != nil {
			os.pages[pg].free = v
		}
	}
}

// --- deferred metadata publication ---

// pendCap bounds the client-wide count of unpublished frees. Reaching it
// forces a publication burst, so the worst-case "lost block" exposure after
// a crash (all free to the segment scan) stays bounded no matter how
// free-heavy the workload is.
const pendCap = 256

// notePendPage registers op as carrying unpublished state.
func (c *Client) notePendPage(op *ownedPage) {
	if !op.pendListed {
		op.pendListed = true
		c.pendPages = append(c.pendPages, op)
	}
}

// deferFree parks a freed block (already free-marked on the device) on the
// page's pending list instead of publishing it. Publication happens in a
// burst at the next epoch boundary (alloc refill, heartbeat, scan, close, or
// the pendCap backstop). The page is re-added to its allocation cache — the
// pending tier is the allocator's first stop, so the block is immediately
// reusable with zero further device stores.
func (c *Client) deferFree(op *ownedPage, block layout.Addr) {
	op.pend = append(op.pend, block)
	op.usedDelta--
	c.notePendPage(op)
	info := layout.UnpackPageMeta(op.info)
	switch info.Kind {
	case layout.PageKindNormal:
		c.readdClassPage(int(info.SizeClass), op)
	case layout.PageKindRootRef:
		if !op.onClassList {
			op.onClassList = true
			c.rootPages = append(c.rootPages, op)
		}
	}
	if c.pendCount++; c.pendCount >= pendCap {
		c.flushPending(EpochBackstop)
	}
}

// noteUsedDelta defers a page Used-counter change to the next publication
// burst.
func (c *Client) noteUsedDelta(op *ownedPage, d int32) {
	op.usedDelta += d
	c.notePendPage(op)
}

// publishPage performs one page's publication burst: chain every pending
// block into one intrusive list ending at the current published head, then
// publish the new head with a single pmFree store, then fold the deferred
// Used delta into one pmInfo store. A crash before the head store leaves the
// pending blocks exactly as they were — free-marked on no list, free to the
// segment scan once this client is dead; a crash after it has published
// everything that matters (the Used counter is an occupancy hint).
func (c *Client) publishPage(op *ownedPage) {
	info := layout.UnpackPageMeta(op.info)
	if n := len(op.pend); n > 0 {
		nextOff := layout.Addr(freeNextOff)
		if info.Kind == layout.PageKindRootRef {
			nextOff = layout.RootRefPptrOff
		}
		for i, b := range op.pend {
			nxt := op.free
			if i+1 < n {
				nxt = op.pend[i+1]
			}
			c.h.Store(b+nextOff, nxt)
		}
		op.free = op.pend[0]
		c.h.Store(op.meta+pmFree, op.free)
		op.pend = op.pend[:0]
		// The page has published free space again: make sure the allocator
		// can find it (it may have been dropped from its cache while full).
		switch info.Kind {
		case layout.PageKindNormal:
			c.readdClassPage(int(info.SizeClass), op)
		case layout.PageKindRootRef:
			if !op.onClassList {
				op.onClassList = true
				c.rootPages = append(c.rootPages, op)
			}
		}
	}
	if op.usedDelta != 0 {
		if op.usedDelta > 0 {
			info.Used += uint32(op.usedDelta)
		} else if d := uint32(-op.usedDelta); info.Used > d {
			info.Used -= d
		} else {
			info.Used = 0
		}
		op.usedDelta = 0
		op.info = layout.PackPageMeta(info)
		c.h.Store(op.meta+pmInfo, op.info)
	}
}

// Publication-epoch triggers: what caused a flushPending burst. Recorded
// per client (LastPublishEpoch) so diagnostics — the crash sweep's repro
// lines in particular — can name the epoch a crash landed in.
const (
	EpochRefill    = "refill"    // allocation slow path claiming a fresh page
	EpochHeartbeat = "heartbeat" // periodic liveness beat
	EpochScan      = "scan"      // scan entry of an owned segment
	EpochDetach    = "detach"    // client Close
	EpochBackstop  = "backstop"  // pendCap reached
	EpochFlush     = "flush"     // explicit Flush call
)

// flushPending publishes every page's deferred frees and counter deltas in
// one coalesced burst. Called at the epoch boundaries (alloc refill,
// heartbeat, scan entry of an owned segment, close) and by the pendCap
// backstop. A fenced client skips both the stores (the device would drop
// them) and the shadow mutation, leaving the pending state as recovery's
// segment scan expects it.
func (c *Client) flushPending(trigger string) {
	if len(c.pendPages) == 0 || c.h.Fenced() {
		return
	}
	c.epochTrigger, c.epochSeq = trigger, c.epochSeq+1
	published := c.pendCount
	for _, op := range c.pendPages {
		c.publishPage(op)
		op.pendListed = false
	}
	c.pendPages = c.pendPages[:0]
	c.pendCount = 0
	c.loc[obs.CtrPublishBatch]++
	if published > 0 {
		c.loc[obs.CtrPublishedFrees] += uint64(published)
		c.observe(obs.HistPublishBatch, int64(published))
	}
}

// Flush publishes all deferred owner-local metadata (pending frees, page
// used counters) to the device immediately. Applications that want a
// bounded-staleness device image (e.g. before handing the pool file to an
// external inspector) can call it at will; the allocator's own epoch
// triggers make it unnecessary otherwise.
func (c *Client) Flush() { c.flushPending(EpochFlush) }

// LastPublishEpoch reports the most recent publication epoch: its trigger
// and a per-client sequence number (0 = no epoch has run yet). The
// trigger is recorded before the epoch's first store, so it names even an
// epoch a crash cut short.
func (c *Client) LastPublishEpoch() (trigger string, seq uint64) {
	return c.epochTrigger, c.epochSeq
}

// CheckShadow verifies every cached word against the device, returning the
// first mismatch. The shadow is an optimization, never a source of truth;
// tests call this after workloads and crash-recovery drills to prove the
// write-through discipline holds. Must not be called on a fenced client
// (dropped stores make divergence expected and harmless there).
//
// Published mirrors (info/free/scan) must match the device exactly. Pending
// (deferred) frees are verified in place: each pending block must be
// free-marked on the device with this client recorded as the freeer, and
// must not be reachable from the page's published free list (it will only
// become reachable in a publication burst).
func (c *Client) CheckShadow() error {
	for _, os := range c.owned {
		np := int(c.h.Load(c.geo.SegNextPageAddr(os.seg)))
		if np != os.nextPage {
			return fmt.Errorf("shm: shadow seg %d next-page %d, device %d", os.seg, os.nextPage, np)
		}
		for pg, op := range os.pages {
			if op == nil {
				continue
			}
			if got := c.h.Load(op.meta + pmInfo); got != op.info {
				return fmt.Errorf("shm: shadow seg %d page %d info %#x, device %#x", os.seg, pg, op.info, got)
			}
			if got := c.h.Load(op.meta + pmFree); got != op.free {
				return fmt.Errorf("shm: shadow seg %d page %d free %#x, device %#x", os.seg, pg, op.free, got)
			}
			if got := c.h.Load(op.meta + pmScan); got != op.scan {
				return fmt.Errorf("shm: shadow seg %d page %d scan %#x, device %#x", os.seg, pg, op.scan, got)
			}
			if err := c.checkPendCoherent(os.seg, pg, op); err != nil {
				return err
			}
			if err := c.checkRefShadow(op); err != nil {
				return err
			}
		}
	}
	for block, qs := range c.queues {
		// The client's own end is exact; the opposite end may lag (it is
		// re-read only on apparent full/empty), so cached <= device.
		if dev := c.h.Load(qs.headA); qs.head > dev {
			return fmt.Errorf("shm: queue %#x cached head %d ahead of device %d", block, qs.head, dev)
		}
		if dev := c.h.Load(qs.tailA); qs.tail > dev {
			return fmt.Errorf("shm: queue %#x cached tail %d ahead of device %d", block, qs.tail, dev)
		}
	}
	return nil
}

// checkPendCoherent verifies one page's deferred-publication state against
// the device (see CheckShadow).
func (c *Client) checkPendCoherent(seg, pg int, op *ownedPage) error {
	if len(op.pend) == 0 {
		return nil
	}
	info := layout.UnpackPageMeta(op.info)
	nextOff := layout.Addr(freeNextOff)
	if info.Kind == layout.PageKindRootRef {
		nextOff = layout.RootRefPptrOff
	}
	c.scr.onList.reset(c.geo.SegmentBase(seg), layout.Addr(c.geo.SegmentWords))
	c.markChain(op.free, nextOff, int(c.geo.PageWords))
	for _, b := range op.pend {
		if c.scr.onList.has(b) {
			return fmt.Errorf("shm: seg %d page %d pending block %#x already on the published free list", seg, pg, b)
		}
		if info.Kind == layout.PageKindRootRef {
			if w := c.h.Load(b); w != 0 {
				return fmt.Errorf("shm: seg %d page %d pending RootRef slot %#x not cleared on device (%#x)", seg, pg, b, w)
			}
			continue
		}
		if w := c.h.Load(b + layout.HeaderOff); w != 0 {
			return fmt.Errorf("shm: seg %d page %d pending block %#x header not zero (%#x)", seg, pg, b, w)
		}
		m := layout.UnpackMeta(c.h.Load(b + layout.MetaOff))
		if m.Allocated() || int(m.EmbedCnt) != c.cid {
			return fmt.Errorf("shm: seg %d page %d pending block %#x not free-marked by this client (meta %+v)", seg, pg, b, m)
		}
	}
	return nil
}
