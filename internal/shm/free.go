package shm

import (
	"repro/internal/layout"
	"repro/internal/obs"
)

// Reclamation (paper §5.3).
//
// Reclaiming space is the one non-idempotent step that can follow a
// release's commit point, so it is never redone. Two disciplines keep it
// safe across crashes:
//
//   - Plain objects (no embedded references) are reclaimed inline, inside
//     the still-open transaction window: if the client dies mid-reclaim its
//     redo entry is still valid and recovery marks the containing segment
//     POTENTIAL_LEAKING instead of redoing the free. The asynchronous
//     segment-local scan then either observes the free as completed or
//     completes it.
//
//   - Objects with embedded references need a cascade of further release
//     transactions (each reusing the single redo entry), so the parent's
//     transaction must close first. Before it closes, the parent's segment
//     is flagged POTENTIAL_LEAKING; a crash anywhere in the cascade leaves a
//     refcount-zero block in a flagged segment for the scan to finish
//     (recovery's DFS of embedded references, §5.4, runs there).
//
//   - An owner's drop of its last reference to a block of its own pages
//     (releaseTxnMode) has no transaction window and flags nothing: a crash
//     leaves an allocated block at count 0 under lcid 0 in one of the dead
//     owner's ACTIVE segments, and its recovery scans all of those.

// flagSegmentLeaking sets the sticky POTENTIAL_LEAKING flag on the segment
// containing addr. Reclaiming a segment (re-claim CAS) clears it by packing
// a fresh state word.
func (c *Client) flagSegmentLeaking(addr layout.Addr) {
	seg := c.geo.SegmentIndexOf(addr)
	if seg < 0 {
		return
	}
	if c.pool.flagLeaking(c.pool.dev, seg, 0) {
		c.loc[obs.CtrLeakFlag]++
		c.pool.Trace(obs.Event{Type: obs.EvSegmentFlagged, Segment: seg})
	}
}

// FlagSegmentLeaking sets the POTENTIAL_LEAKING flag on segment seg (also
// used by the recovery service when replaying a release that hit zero).
func (p *Pool) FlagSegmentLeaking(seg int) {
	if p.flagLeaking(p.dev, seg, 0) {
		p.tel.PoolAdd(obs.CtrLeakFlag, 1)
		p.Trace(obs.Event{Type: obs.EvSegmentFlagged, Segment: seg})
	}
}

// flagWriter is the write plane a flag goes through: a client's RAS-fenceable
// Handle, or the management plane (cxl.Device), as for telWriter.
type flagWriter interface {
	Load(layout.Addr) uint64
	CAS(a layout.Addr, old, new uint64) bool
}

// flagLeaking sets the flag, the one place that does, reporting whether this
// call made the 0→1 transition — only that transition is worth a caller's
// counting and tracing (the flag is sticky until a scan clears it, so re-flags
// are routine noise). w is the segment's state word if the caller holds it,
// else 0. A held word is trusted: flagged already — a free's common case, w
// being the word its owner-gone verdict loaded — costs no access, and one
// attempt is made, since whoever else rewrote an unflagged ABANDONED word
// flagged or released the segment. What the trust can lose — w read flagged
// before the release transaction began, the flag cleared by a scan before its
// free-mark landed — is one of the lost events the monitor's backstop bounds.
//
// On an ABANDONED segment the flag is the request to scan it at the monitor's
// next tick rather than its 128th (recovery.Monitor). A free and a scan that
// leaves work pending make it through their own handle, so that the client's
// fence stops it and its death just before it is a crash position (a freeer
// that dies there has its release's redo entry still open — the replay flags
// — or flagged before closing it), and neither count nor trace it: it is
// routine, and a tick's worth of frees would flush the forensic event ring.
func (p *Pool) flagLeaking(m flagWriter, seg int, w uint64) bool {
	a := p.geo.SegStateAddr(seg)
	for held := w != 0; ; {
		if !held {
			w = m.Load(a)
		}
		st := layout.UnpackSegState(w)
		if st.Flags&layout.SegFlagPotentialLeaking != 0 {
			return false
		}
		st.Flags |= layout.SegFlagPotentialLeaking
		if m.CAS(a, w, layout.PackSegState(st)) {
			return true
		}
		if held {
			return false
		}
	}
}

// cascadeFree frees a refcount-zero object whose transaction already closed
// (embed-carrying or change-path objects; the segment is already flagged, or
// is an ACTIVE one of the owner's, which its recovery scans): it releases all
// embedded references reachable from start (iteratively — recovery must
// handle arbitrarily deep structures without growing the Go stack) and frees
// every object whose count reaches zero. erased reports that start's header
// already reads 0 (the owner's drop CASed it there).
func (c *Client) cascadeFree(start layout.Addr, erased bool) {
	stack := append(c.scr.stack[:0], start)
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		op, bs := c.blockOf(b)
		m := layout.UnpackMeta(c.h.Load(b + layout.MetaOff))
		for i := 0; i < int(m.EmbedCnt); i++ {
			ea := b + layout.DataOff + layout.Addr(i)
			t := c.h.Load(ea)
			if t == 0 {
				continue
			}
			_, pending, err := c.releaseTxnMode(ea, t, false, 0, 0)
			if err != nil {
				continue // stale/fenced: leave for the scan
			}
			if pending {
				// Embed-carrying child hit zero: releaseTxnMode flagged its
				// segment; finish its cascade from the explicit stack. Plain
				// children were inline-reclaimed by releaseTxnMode itself.
				stack = append(stack, t)
			}
		}
		c.reclaimRaw(b, m, op, bs, 0, erased && b == start)
	}
	c.scr.stack = stack
}

// reclaimRaw frees one block whose reference count is zero and whose
// embedded references (if any) have been released. It marks the block free
// — recording the freeing client's ID in the meta word's embed field — and
// then either parks it on the owner's pending list (owner-local free:
// publication to the page free list is deferred to the next epoch burst,
// shadow.go) or pushes it onto the segment's client_free list (cross-client
// deferred free, paper Figure 3) — unless nobody will allocate from the
// segment again (SegGoneWord): then the free-mark, with freeer 0 for "no
// push follows", is the whole free. Decided before the free-mark, and nothing
// in the segment is written after it but the rescan request (flagLeaking: a
// CAS a released segment's state word refuses): the block stays allocated
// until the last store, so the scan cannot release the segment under a write
// in flight.
//
// Order matters: header zero, then meta free-mark. After the free-mark the
// block is in the "lost" state — free-marked, on no list — which is exactly
// what the owner-local deferral relies on: if the freeer crashes before its
// publication burst, the segment-local scan takes the block for free once
// the recorded freeer is dead — at which point the freeer is RAS-fenced, so
// its own late publication can never land.
// The caller passes what its transaction already resolved: the block's
// unpacked meta, its owned page and its live shadow (blockOf), and goneW, the
// segment's state word if it has seen the owner gone (SegGoneWord; 0 = ask),
// and erased when the header already reads 0, which skips its store.
func (c *Client) reclaimRaw(block layout.Addr, m layout.Meta, op *ownedPage, bs *blockShadow, goneW uint64, erased bool) {
	if m.Flags&layout.MetaHuge != 0 {
		c.freeHuge(block, m)
		return
	}
	seg, freeer := 0, uint16(c.cid)
	if op == nil {
		if seg = c.geo.SegmentIndexOf(block); seg < 0 {
			return
		}
		if goneW == 0 {
			goneW = c.pool.SegGoneWord(seg)
		}
		if goneW != 0 {
			freeer = 0
		}
	}
	bs.drop()
	if !erased {
		c.h.Store(block+layout.HeaderOff, 0)
	}
	c.h.Store(block+layout.MetaOff, layout.PackMeta(layout.Meta{
		Flags: 0, EmbedCnt: freeer, BlockWords: m.BlockWords,
	}))
	// Counted once marked: a free cut short before the mark is redone, and
	// counted, by the segment scan.
	c.loc[obs.CtrFree]++

	if op != nil {
		// Owner-local free: two device stores total. The list/counter
		// publication is deferred (shadow.go) — and skipped entirely if a
		// malloc reuses the block from the pending tier first.
		c.deferFree(op, block)
	} else if freeer != 0 {
		// Cross-client deferred free: push onto the segment's client_free
		// list; the owner collects in its slow path.
		cf := c.geo.SegClientFreeAddr(seg)
		for {
			old := c.h.Load(cf)
			c.h.Store(block+freeNextOff, old)
			if c.h.CAS(cf, old, block) {
				break
			}
			if c.h.Fenced() {
				return
			}
		}
	} else if layout.UnpackSegState(goneW).State == layout.SegAbandoned {
		// Request a rescan; one still ACTIVE has its recovery pass's scan ahead.
		c.pool.flagLeaking(c.h, seg, goneW)
	}
}

// freeHuge returns a huge object's segments to the free pool: bodies from
// last to first, the head last, so a partial free is re-runnable — the head
// segment's survival marks the free as incomplete, and already-freed (or
// re-claimed) segments are recognized by their changed state/cid and
// skipped.
func (c *Client) freeHuge(block layout.Addr, m layout.Meta) {
	head := c.geo.SegmentIndexOf(block)
	if head < 0 {
		return
	}
	headSt := layout.UnpackSegState(c.h.Load(c.geo.SegStateAddr(head)))
	if headSt.State != layout.SegHugeHead {
		return // already freed (idempotent re-run)
	}
	owner := headSt.CID
	k := int((m.BlockWords + c.geo.SegmentWords - 1) / c.geo.SegmentWords)
	// Erase the object identity before releasing memory. Counted once erased:
	// a rerun meets a head without meta and releases it uncounted (scan.go).
	c.h.Store(block+layout.HeaderOff, 0)
	c.h.Store(block+layout.MetaOff, 0)
	c.loc[obs.CtrFreeHuge]++
	for j := k - 1; j >= 1; j-- {
		a := c.geo.SegStateAddr(head + j)
		st := layout.UnpackSegState(c.h.Load(a))
		if st.CID == owner && st.State == layout.SegHugeBody {
			// The object's payload covered this segment's base words; scrub
			// them so a future claimer's crash recovery never reads leftover
			// payload as a block header (see releaseSegment).
			bb := c.geo.SegmentBase(head + j)
			c.h.Store(bb+layout.HeaderOff, 0)
			c.h.Store(bb+layout.MetaOff, 0)
			c.h.Store(a, layout.PackSegState(layout.SegState{
				Version: st.Version + 1, State: layout.SegFree,
			}))
		}
	}
	c.releaseSegment(head)
}
