package shm

import (
	"time"

	"repro/internal/layout"
	"repro/internal/obs"
)

// The asynchronous segment-local scan (paper §5.3).
//
// A segment needs a scan when a client died between two specific
// instructions of the reclamation path. The scan walks one segment's pages
// — never the whole pool — and:
//
//   - reclaims "leaked" blocks: allocated, reference count zero, last
//     touched (lcid) by a client that is no longer alive — completing the
//     interrupted reclamation, including the DFS release of any embedded
//     references the dead client hadn't released yet (§5.4);
//   - in a live owner's segment, re-inserts "lost" free blocks: marked
//     free but on no free list, where the recorded freeer is dead (its RAS
//     fence guarantees its own pending push can never land);
//   - in a dead owner's segment, sweeps leftover in_use RootRef slots and
//     judges the rest by refcount alone: nobody will allocate there again,
//     so no list is written — a free-marked block or a cleared slot is free
//     wherever it is (one exception, in scanSegmentOnce) — and once quiet
//     (no live or pending block) the segment returns to the free pool. Until
//     then it is ABANDONED and changes only when a block in it is freed: the
//     freeer flags it POTENTIAL_LEAKING (flagLeaking), as does a scan that
//     leaves a block pending, and the monitor rescans on the flag.
//
// Concurrency contract: one scanner at a time per segment, and the segment's
// state word, with its owner's slot status, says which — no lock is taken:
//
//   - ACTIVE under a live owner: the owner, from its own slow path;
//   - ACTIVE, huge head or huge body under a DEAD owner: that owner's
//     recovery pass, which runs under the owner's recovery claim
//     (slotlease.go), so there is one pass per dead client whichever
//     process runs it;
//   - ABANDONED, or a huge head whose owner's slot is unleased (FREE or
//     RECOVERED): the monitor's maintenance scans, one at a time per monitor.
//
// A pass makes a segment ABANDONED only after its own scan of it, and stores
// RECOVERED — handing the victim's surviving huge heads to the monitor — only
// after its last scan, so a segment changes hands without overlap. Two
// monitors on one pool would each scan the same ABANDONED segment; a pool has
// one monitor.

// ScanReport summarizes one segment-local scan.
type ScanReport struct {
	// Reclaimed counts leaked blocks whose reclamation the scan completed.
	Reclaimed int
	// Relinked counts lost free blocks re-inserted into a free list.
	Relinked int
	// SweptRoots counts dead-owner RootRef slots released.
	SweptRoots int
	// Live counts blocks still holding references (or owned by live work).
	Live int
	// Pending counts blocks some live client is mid-operation on (they
	// resolve on their own; rescan later).
	Pending int
	// Quiet reports that nothing in the segment is allocated or pending.
	Quiet bool
	// Freed reports that the scan returned the segment to the free pool.
	Freed bool
}

// ScanSegment runs the segment-local scan of seg, executed by client c.
// ownerDead must be true when the segment's owner is known dead (abandoned
// segments, or active segments being recovered); it enables the RootRef
// sweep and segment reclamation.
//
// The scan runs in rounds: reclaiming a leaked block through the cascade, or
// sweeping a root, frees blocks that may land in this segment behind the walk
// or after the membership snapshot, so a round only records the lost free
// blocks it meets and re-links them itself when it did neither (its snapshot
// is then still fresh); a round that did drops its verdict and the next one
// starts afresh. A dead owner's leaked plain block is freed in place, by two
// stores to the block alone, so a round that freed only such blocks is final.
func (c *Client) ScanSegment(seg int, ownerDead bool) ScanReport {
	t0 := time.Now()
	total := c.scanSegment(seg, ownerDead)
	c.loc[obs.CtrScanPass]++
	c.loc[obs.CtrScanReclaimed] += uint64(total.Reclaimed)
	c.loc[obs.CtrScanRelinked] += uint64(total.Relinked)
	c.mx.Observe(obs.HistScanNS, time.Since(t0).Nanoseconds())
	c.publishMetrics()
	return total
}

func (c *Client) scanSegment(seg int, ownerDead bool) ScanReport {
	reclaimed, swept := 0, 0
	for {
		if c.ownedSegOf(seg) != nil {
			// A round over a segment we own starts with a publication epoch:
			// our deferred frees are in the lost-block state (freeer == us),
			// so the re-link would insert them and a later burst insert them
			// again. Every round: a round's own reclaims park more of them.
			c.flushPending(EpochScan)
		}
		r, settled := c.scanSegmentOnce(seg, ownerDead)
		reclaimed += r.Reclaimed
		swept += r.SweptRoots
		if settled {
			r.Reclaimed, r.SweptRoots = reclaimed, swept
			return r
		}
	}
}

// segSet is the scan's free-list membership set: one bit per word of the
// segment being scanned, indexed by word offset from the segment base, so
// recording and testing a node costs no hashing and the set is reused from
// scan to scan. Only addresses inside the segment are indexed. A damaged
// chain's node outside it is never recorded, hence never "seen" again: the
// walk's step bound ends a cycle out there, and the block walk only ever
// asks about addresses inside the segment.
type segSet struct {
	base, words layout.Addr
	bits        []uint64
}

// reset empties the set and aims it at the segment of words words at base.
func (s *segSet) reset(base, words layout.Addr) {
	if n := int((words + 63) / 64); n <= cap(s.bits) {
		s.bits = s.bits[:n]
		clear(s.bits)
	} else {
		s.bits = make([]uint64, n)
	}
	s.base, s.words = base, words
}

func (s *segSet) add(a layout.Addr) {
	if off := a - s.base; off < s.words {
		s.bits[off>>6] |= 1 << (off & 63)
	}
}

func (s *segSet) has(a layout.Addr) bool {
	off := a - s.base
	return off < s.words && s.bits[off>>6]&(1<<(off&63)) != 0
}

// markChain records the free chain starting at head, linked through the
// word at nextOff, in c.scr.onList. The walk is bounded: this is recovery
// machinery and may run over a damaged pool, where a free chain can contain
// a cycle (e.g. a corruption-induced double insert). A repeat visit or an
// impossible chain length ends the walk — every reachable block's
// membership is already recorded by then, and the repairing fsck owns
// diagnosing the broken chain itself.
func (c *Client) markChain(head, nextOff layout.Addr, maxSteps int) {
	steps := 0
	for b := head; b != 0; b = c.h.Load(b + nextOff) {
		if c.scr.onList.has(b) {
			break
		}
		if steps++; steps > maxSteps {
			break
		}
		c.scr.onList.add(b)
	}
}

// markFreeLists records in c.scr.onList every block reachable from a free
// list of seg: its claimed pages' lists and client_free.
func (c *Client) markFreeLists(seg, numPages int) {
	c.scr.onList.reset(c.geo.SegmentBase(seg), layout.Addr(c.geo.SegmentWords))
	for p := 0; p < numPages; p++ {
		meta := c.geo.PageMetaAddr(seg, p)
		info := layout.UnpackPageMeta(c.h.Load(meta + pmInfo))
		if info.Kind == layout.PageKindQuarantined {
			continue
		}
		nextOff := layout.Addr(freeNextOff)
		if info.Kind == layout.PageKindRootRef {
			nextOff = layout.RootRefPptrOff
		}
		c.markChain(c.h.Load(meta+pmFree), nextOff, int(c.geo.PageWords))
	}
	c.markChain(c.h.Load(c.geo.SegClientFreeAddr(seg)), freeNextOff, numPages*int(c.geo.PageWords))
}

// lostNode is a re-link candidate: a free-marked block or a cleared RootRef
// slot that is on no free list and whose freeer can no longer push it.
type lostNode struct {
	meta, addr, nextOff layout.Addr // page meta area, node, its next-pointer word
}

// scanScratch is the memory a client's scans and reclaim cascades reuse from
// call to call, so that in steady state they allocate nothing. A Client is
// single-goroutine and neither user re-enters itself, so one copy suffices.
type scanScratch struct {
	onList segSet
	lost   []lostNode
	stack  []layout.Addr // cascadeFree's explicit DFS stack
}

// RootSweep is what one walk of SweepRootRefSlot calls over a dead client's
// RootRef slots remembers from root to root; the zero value starts a walk
// (a segment scan's own sweep), NewRootSweep a recovery pass's. seg and goneW
// are the last target segment seen ACTIVE under a dead owner and its state
// word. That verdict holds for the rest of the walk: the segment's only way
// out is → ABANDONED → FREE, and every later target there is pinned
// allocated by the very root being swept. (If another executor abandons the
// segment meanwhile, a free this walk then makes into it goes unflagged, for
// the monitor's backstop to find.)
//
// A recovery pass's walk knows its victim, the dead client whose pass runs
// it. A last reference into the victim's own ACTIVE segment is dropped rather
// than released: that segment's scan is still ahead in the same pass, and it
// frees the block. The victim is fenced and its pass holds the claim, so what
// the pass read after the fence holds for the whole walk: the victim's era
// word and the state words of the segments it owns ACTIVE. No one but the
// pass writes those segments' page metas either, so a page's free and bump
// pointers are read once, when a target first lies in the page.
type RootSweep struct {
	victim int
	era    uint64 // the victim's era word
	seg    int
	goneW  uint64
	active []sweepSeg // by segment: the victim's ACTIVE ones, else zero
}

// sweepSeg is a victim's ACTIVE segment's state word and its pages' free and
// bump pointers, each page's read once.
type sweepSeg struct {
	w     uint64
	pages []sweepPage
}

type sweepPage struct {
	free, scan layout.Addr
	read       bool
}

// NewRootSweep begins a recovery pass's walk over victim's RootRef slots
// (RootSweep): era is victim's era word, active the segments it owns ACTIVE
// and words their state words, all read by the pass after the fence.
func (p *Pool) NewRootSweep(victim int, era uint64, active []int, words []uint64) *RootSweep {
	rs := &RootSweep{victim: victim, era: era, active: make([]sweepSeg, p.geo.NumSegments)}
	for k, seg := range active {
		rs.active[seg] = sweepSeg{words[k], make([]sweepPage, p.geo.PagesPerSegment)}
	}
	return rs
}

// scanSegmentOnce runs one round of the scan. settled reports that its
// verdict is final: it released the segment, or it neither cascaded a
// reclaim nor swept a root, so nothing it did can have landed behind the walk.
func (c *Client) scanSegmentOnce(seg int, ownerDead bool) (r ScanReport, settled bool) {
	a := c.geo.SegStateAddr(seg)
	w := c.h.Load(a)
	st := layout.UnpackSegState(w)
	switch st.State {
	case layout.SegHugeHead:
		m := layout.UnpackMeta(c.h.Load(c.geo.SegmentBase(seg) + layout.MetaOff))
		if m.Quarantined() {
			// Quarantined by the repairing fsck: never reclaimed, never
			// released — counting it live pins the whole run in place.
			r.Live++
			return r, true
		}
		hdr := layout.UnpackHeader(c.h.Load(c.geo.SegmentBase(seg) + layout.HeaderOff))
		if hdr.RefCnt > 0 {
			r.Live++
			return r, true
		}
		c.observeEra(hdr.LCID, hdr.LEra, 0) // as for a paged block, below
		// Zero refcount: either a completed-then-interrupted free or an
		// interrupted allocation. Safe to reclaim when the owner is dead
		// (nobody can be mid-operation) — the scan's caller guarantees that
		// or is the owner itself.
		if m.BlockWords == 0 {
			// Header/meta never initialized (mid-allocation crash): free the
			// head and let orphan bodies be swept by the caller.
			c.releaseSegment(seg)
		} else {
			c.cascadeFree(c.geo.SegmentBase(seg), false)
		}
		r.Reclaimed++
		r.Quiet, r.Freed = true, true
		return r, true
	case layout.SegActive, layout.SegAbandoned:
		// fall through to the page walk
	default:
		r.Quiet = true
		return r, true
	}

	numPages := int(c.h.Load(c.geo.SegNextPageAddr(seg)))
	if numPages > c.geo.PagesPerSegment {
		numPages = c.geo.PagesPerSegment
	}

	// Membership pass, for a scan that re-links what it finds lost. A dead
	// owner's segment is reclaimed by refcount alone — nothing is re-linked —
	// and its lists are walked on demand (below), at most once per round.
	listed := !ownerDead
	if listed {
		c.markFreeLists(seg, numPages)
	}

	lost, cascaded := c.scr.lost[:0], false
	for p := 0; p < numPages; p++ {
		metaA := c.geo.PageMetaAddr(seg, p)
		info := layout.UnpackPageMeta(c.h.Load(metaA + pmInfo))
		base := c.geo.PageBase(seg, p)
		scanPos := c.h.Load(metaA + pmScan)
		end := base + layout.Addr(c.geo.PageWords)
		if scanPos > end {
			scanPos = end
		}
		switch info.Kind {
		case layout.PageKindQuarantined:
			// Written off by the repairing fsck: contents untouchable, and the
			// page pins its segment (a released segment would recycle it).
			r.Live++
			continue
		case layout.PageKindRootRef:
			var rs RootSweep
			for slot := base; slot+layout.RootRefWords <= scanPos; slot += layout.RootRefWords {
				if !ownerDead && c.scr.onList.has(slot) {
					continue
				}
				if slot == c.inflightRoot {
					// Taken by this client's own in-progress malloc but not
					// yet claimed in_use (we got here via the slow path's
					// scanFlaggedOwned): re-linking it would hand the slot
					// out twice.
					r.Live++
					continue
				}
				inUse, _ := layout.UnpackRootRef(c.h.Load(slot))
				if inUse {
					if ownerDead {
						if c.SweepRootRefSlot(slot, &rs) {
							r.SweptRoots++
						}
					} else {
						r.Live++
					}
					continue
				}
				// Lost free slot: cleared but never pushed. Only the owner
				// loses slots (RootRef frees are owner-local), and a live
				// owner is the scanner itself.
				if !ownerDead {
					lost = append(lost, lostNode{metaA, slot, layout.RootRefPptrOff})
				}
			}
		case layout.PageKindNormal:
			if int(info.SizeClass) >= len(c.geo.Classes) {
				continue
			}
			bw := layout.Addr(c.geo.Classes[info.SizeClass].BlockWords)
			for b := base; b+bw <= scanPos; b += bw {
				if !ownerDead && c.scr.onList.has(b) {
					continue
				}
				m := layout.UnpackMeta(c.h.Load(b + layout.MetaOff))
				if m.Quarantined() {
					r.Live++ // sticky: pins the segment, never reclaimed
					continue
				}
				if m.Allocated() {
					hw := c.h.Load(b + layout.HeaderOff)
					hdr := layout.UnpackHeader(hw)
					if hdr.RefCnt > 0 {
						r.Live++
						continue
					}
					// Zero refcount, still allocated: leaked if the last
					// toucher is dead; otherwise a live client is between
					// its commit CAS and the end of its reclaim.
					if !c.pool.ClientDeadOrRecovered(int(hdr.LCID)) {
						r.Pending++
						continue
					}
					// The free erases the header's (lcid, lera): perhaps a dead
					// client's only evidence of a commit whose ModifyRef its
					// recovery has yet to replay. Witness it (Condition 2).
					c.observeEra(hdr.LCID, hdr.LEra, 0)
					r.Reclaimed++
					if ownerDead && m.EmbedCnt == 0 && m.Flags&layout.MetaHuge == 0 {
						// A dead owner's plain block — most often one a
						// recovery pass dropped (SweepRootRefSlot), or the owner
						// itself before it died (the owner's drop) — is freed
						// from the words in hand: reclaimRaw's owner-gone free
						// without its state load, and with no rescan request,
						// since this round's verdict already counts it free.
						// A dropped block's header already reads 0 (the drop's
						// CAS wrote it, and no writer CASes a count-0 header),
						// so only another header needs erasing.
						if hw != 0 {
							c.h.Store(b+layout.HeaderOff, 0)
						}
						c.h.Store(b+layout.MetaOff, layout.PackMeta(layout.Meta{BlockWords: m.BlockWords}))
						c.loc[obs.CtrFree]++
						continue
					}
					c.cascadeFree(b, hw == 0) // a dropped block's header is 0 already
					cascaded = true
				} else if freeer := int(m.EmbedCnt); ownerDead {
					// Free, listed or not — unless its freeer lives and is not
					// the owner (whose frees never push): it chose to push
					// before the owner died (reclaimRaw), so the block is
					// pending until client_free or a page list holds it.
					if freeer != 0 && freeer != int(st.CID) && !c.pool.ClientDeadOrRecovered(freeer) {
						if !listed {
							listed = true
							c.markFreeLists(seg, numPages)
						}
						if !c.scr.onList.has(b) {
							r.Pending++
						}
					}
				} else if freeer == c.cid || c.pool.ClientDeadOrRecovered(freeer) {
					// Free-marked block not on any list: lost mid-free. The
					// freeer's ID was recorded in the meta embed field. It is
					// judged here, as close to the snapshot as the walk gets:
					// a dead freeer is fenced, so that verdict cannot go stale
					// before the re-link below.
					lost = append(lost, lostNode{metaA, b, freeNextOff})
				} else {
					r.Pending++ // live freeer will complete the push
				}
			}
		}
	}
	c.scr.lost = lost[:0]

	r.Quiet = r.Live == 0 && r.Pending == 0
	if cascaded || r.SweptRoots > 0 {
		// The cascades' and sweeps' frees may have landed on this segment's
		// lists since the snapshot: the candidates are stale.
		return r, false
	}
	for _, l := range lost {
		c.h.Store(l.addr+l.nextOff, c.h.Load(l.meta+pmFree))
		c.storePMFree(seg, l.meta, l.addr)
	}
	r.Relinked = len(lost)
	if r.Quiet && ownerDead {
		// Return the whole segment to the pool (resets flags and client_free;
		// versions defeat ABA on reuse) — and the page count, lest a claimer
		// dying before its own reset leave a scan these unlisted free blocks.
		c.h.Store(c.geo.SegClientFreeAddr(seg), 0)
		c.h.Store(c.geo.SegNextPageAddr(seg), 0)
		c.releaseSegment(seg)
		r.Freed = true
		return r, true
	}
	if r.Pending > 0 {
		// A live client's push or reclaim is still to land here and will not
		// announce itself: an ABANDONED segment comes back at the next tick.
		c.pool.flagLeaking(c.h, seg, w)
	} else if st.Flags&layout.SegFlagPotentialLeaking != 0 {
		// Everything interrupted has been resolved; clear the sticky flag so
		// the segment isn't rescanned forever. Live blocks are fine — the
		// flag only means "a reclaim may have been cut short here". Nobody
		// rewrites a flagged word under a scan, so w is still current — and
		// if it is not, the flag stays.
		st.Flags &^= layout.SegFlagPotentialLeaking
		c.h.CAS(a, w, layout.PackSegState(st))
	}
	return r, true
}

// scanFlaggedOwned runs the owner's periodic duty (§5.3): a segment-local
// scan of any owned segment carrying the POTENTIAL_LEAKING flag. Called
// from the allocation slow path, so its cost amortizes exactly as the paper
// argues ("doesn't need to be performed more than once per second").
func (c *Client) scanFlaggedOwned() {
	for _, os := range c.owned {
		st := layout.UnpackSegState(c.h.Load(c.geo.SegStateAddr(os.seg)))
		if int(st.CID) == c.cid && st.State == layout.SegActive &&
			st.Flags&layout.SegFlagPotentialLeaking != 0 {
			c.ScanSegment(os.seg, false)
		}
	}
}

// SweepRootRefSlot releases whatever an in_use RootRef slot of a dead
// client still references, applying the §5.1 in-flight allocation checks:
//
//   - pptr == 0: the allocation never linked (or a release already
//     unlinked); just clear the slot.
//   - pptr equals the free pointer of the target's page (free-list head or
//     bump frontier): the allocation never advanced past the block; the
//     block is still free, so only the slot is cleared.
//   - target header refcount == 0: the allocation never initialized the
//     count; the block is reclaimed by the segment scan, clear the slot.
//   - refcount == 1 in an ACTIVE segment of the walk's victim: the last-reference
//     drop (dropLastRef, shared with the owner's drop) — header ← 0 by CAS,
//     then the slot clear; no redo entry, no era bump, no free. The pass's scan of that segment, still ahead, finds an
//     allocated block with count 0 and lcid 0 and frees it (DESIGN.md §4c).
//   - otherwise: a normal era-based release, the slot's word 0 being the
//     reference word: the ModifyRef (or its redo replay) clears the slot.
//
// The in-flight check applies only where the target's owner is gone: a dead
// client allocates, and links, none but its own blocks. Each word is read
// once: the header load is the release's first CAS guess, the owner-gone
// verdict its reclaim's, and rs carries the verdict from root to root. Must
// run after the dead client's redo entry has been replayed (recovery does; the
// segment scan only sees abandoned segments, which recovery produces after
// replay). Returns true if the slot was in use.
func (c *Client) SweepRootRefSlot(slot layout.Addr, rs *RootSweep) bool {
	inUse, _ := layout.UnpackRootRef(c.h.Load(slot))
	if !inUse {
		return false
	}
	c.loc[obs.CtrRootSwept]++
	pptr := c.h.Load(slot + layout.RootRefPptrOff)
	if pptr == 0 {
		c.h.Store(slot, 0)
		return true
	}
	var goneW uint64
	if tseg := c.geo.SegmentIndexOf(pptr); tseg >= 0 {
		var as *sweepSeg
		if rs.active != nil && rs.active[tseg].w != 0 {
			as = &rs.active[tseg]
			goneW = as.w
		} else if goneW = rs.goneW; goneW == 0 || rs.seg != tseg {
			goneW = c.pool.SegGoneWord(tseg)
			rs.seg, rs.goneW = tseg, 0
			if layout.UnpackSegState(goneW).State == layout.SegActive {
				rs.goneW = goneW // an ABANDONED word may yet gain its flag: ask again
			}
		}
		if tp := c.geo.PageIndexOf(tseg, pptr); tp >= 0 && goneW != 0 {
			tmeta := c.geo.PageMetaAddr(tseg, tp)
			inFlight := false
			if as != nil {
				pg := &as.pages[tp]
				if !pg.read {
					pg.free, pg.scan, pg.read = c.h.Load(tmeta+pmFree), c.h.Load(tmeta+pmScan), true
				}
				inFlight = pg.free == pptr || pg.scan == pptr
			} else {
				inFlight = c.h.Load(tmeta+pmFree) == pptr || c.h.Load(tmeta+pmScan) == pptr
			}
			if inFlight {
				// In-flight allocation: the block never left the free
				// pointer, so releasing would double-free (§5.1).
				c.h.Store(slot, 0)
				return true
			}
		}
	}
	hdrW := c.h.Load(pptr + layout.HeaderOff)
	hdr := layout.UnpackHeader(hdrW)
	if hdr.RefCnt == 0 {
		// Initialization never completed (or the object is already being
		// reclaimed); the segment scan finishes the block.
		c.h.Store(slot, 0)
		return true
	}
	if st := layout.UnpackSegState(goneW); hdr.RefCnt == 1 && rs.victim != 0 &&
		st.State == layout.SegActive && int(st.CID) == rs.victim {
		var cur uint64 // the header's writer's era word, when the walk holds it
		if int(hdr.LCID) == rs.victim {
			cur = rs.era
		}
		if c.dropLastRef(pptr, hdrW, cur) {
			c.h.Store(slot, 0)
			return true
		}
		hdrW = 0 // the count moved under the drop: the release reloads it
	}
	// A failed release (fenced, stale) leaves the slot as it is, for a rerun.
	if _, pending, _ := c.releaseTxnMode(slot, pptr, false, hdrW, goneW); pending {
		c.cascadeFree(pptr, false)
	}
	return true
}
