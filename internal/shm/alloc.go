package shm

import (
	"time"

	"repro/internal/layout"
	"repro/internal/obs"
)

// Allocation (paper §3.3 and §5.1).
//
// Fast path: each client owns segments exclusively (claimed with one CAS on
// the Global Segment Allocation Vec), carves pages per size class inside
// them, and allocates blocks from a page with no cross-client
// synchronization. To tolerate partial failure, cxl_malloc also allocates an
// implicit RootRef from dedicated RootRef-only pages and performs four
// carefully ordered steps:
//
//	1. claim a RootRef slot (in_use ← 1, pptr ← 0)
//	2. link: RootRef.pptr ← block          (block still counts as free)
//	3. advance the page free pointer        (now allocated, refcnt still 0)
//	4. init block meta + header (refcnt=1), then bump the era
//
// A fence orders 2 before 3 and a flush persists the RootRef. Recovery can
// then classify any crash point: pptr==free-pointer ⇒ the allocation never
// completed step 3, skip the release (§5.1); header refcnt==0 ⇒ step 4 never
// completed, free only the RootRef.
//
// All owner-exclusive metadata reads on this path come from the client's
// shadow cache (shadow.go); every write still lands on the device at the
// same program point, so the ordering recovery depends on is unchanged.

// blockSlot describes a block reserved (but not yet advanced past) in a page.
type blockSlot struct {
	op       *ownedPage
	addr     layout.Addr
	fromPend bool        // true: tail of the page's pending (unpublished) frees
	fromFree bool        // true: head of the page free list; false: bump region
	next     layout.Addr // new free-list head or new bump pointer
}

// freeNextOff is the block-relative word holding the intrusive free-list
// next pointer while the block is free. It lives in the data area so the
// header word of a free block can stay zero.
const freeNextOff = layout.DataOff

// Page meta word offsets within a page's meta area.
const (
	pmInfo = 0 // packed PageMeta (kind, used, size class)
	pmFree = 1 // free-list head
	pmScan = 2 // bump pointer into the never-allocated tail of the page
)

// PageMetaScanOff is pmScan for the recovery service, whose RootRef sweep
// walks a dead client's slots up to the page's bump pointer.
const PageMetaScanOff = pmScan

// allocSampleEvery is the Malloc latency sampling period: one call in this
// many feeds the alloc_ns histogram, keeping the fast path flat while the
// histogram still converges within any benchmark-scale run. Must be a power
// of two.
const allocSampleEvery = 64

// Malloc allocates dataBytes of shared memory with embedRefs embedded
// references at the start of the data area (paper §3.1: cxl_malloc). It
// returns the RootRef address (what a CXLRef points to) and the block
// address. The returned object has reference count 1, held by the RootRef.
func (c *Client) Malloc(dataBytes, embedRefs int) (root, block layout.Addr, err error) {
	timed := c.timing || c.allocSeq&(allocSampleEvery-1) == 0
	c.allocSeq++
	var t0 time.Time
	if timed {
		t0 = time.Now()
	}
	root, block, err = c.malloc(dataBytes, embedRefs)
	if err != nil {
		c.loc[obs.CtrAllocFail]++
	} else {
		c.loc[obs.CtrAlloc]++
	}
	if timed {
		ns := time.Since(t0).Nanoseconds()
		c.observe(obs.HistAllocNS, ns)
		if c.timing {
			c.loc[obs.CtrAllocNanos] += uint64(ns)
		}
	}
	return root, block, err
}

func (c *Client) malloc(dataBytes, embedRefs int) (layout.Addr, layout.Addr, error) {
	if c.h.Fenced() {
		return 0, 0, ErrFenced
	}
	if dataBytes < 1 {
		dataBytes = 1
	}
	if embedRefs < 0 || embedRefs > layout.MaxEmbedRefs ||
		embedRefs*layout.WordBytes > dataBytes {
		return 0, 0, ErrBadEmbedIndex
	}
	// Step 1 (reordered, see allocRootRef): advance a RootRef page past one
	// free slot without claiming it. Until the claim lands the slot is in the
	// "lost slot" state a segment-local scan already counts free, so failing
	// out (or crashing) anywhere below leaks nothing.
	rop, root, err := c.takeRootRefSlot()
	if err != nil {
		return 0, 0, err
	}
	ci := c.geo.ClassIndexFor(dataBytes)
	if ci < 0 {
		// Huge objects keep the classic claim-first order: the multi-segment
		// claim loop can fail midway, and a committed in_use slot is what the
		// rollback/abort path expects to clear.
		c.h.Store(root+layout.RootRefPptrOff, 0)
		c.h.Store(root, layout.PackRootRef(true, 1))
		c.inflightRoot = 0
		c.noteRoot(rop, root, 1, 0)
		block, err := c.allocHuge(root, dataBytes, embedRefs)
		if err != nil {
			c.abortRootRef(root)
			return 0, 0, err
		}
		// Huge blocks are not block-shadowed: any client frees them straight
		// back to the segment vector, so there is no collection point at
		// which a stale entry would be dropped.
		c.noteRoot(rop, root, 1, block)
		return root, block, nil
	}
	slot, err := c.findBlock(ci)
	if err != nil {
		c.abortRootRef(root)
		return 0, 0, err
	}

	// Step 2: link. The slot (still unclaimed) now points at a block that is
	// still, from the page's perspective, free.
	c.h.Store(root+layout.RootRefPptrOff, slot.addr)
	c.timedFence()

	// Claim the slot only after the link, so an in_use slot always carries a
	// valid pptr — and before the block is advanced past / initialized, so a
	// block with a published refcount always has its referencing slot
	// committed (the reverse order could leak a RefCnt=1 block permanently).
	// Folding the old pptr←0 store into the link saves one device store; the
	// crash states recovery can now see (free slot with stale pptr, in_use
	// slot over a still-free block) are ones the §5.1 sweep already resolves.
	c.h.Store(root, layout.PackRootRef(true, 1))
	c.inflightRoot = 0
	c.noteRoot(rop, root, 1, slot.addr)
	c.timedFence()
	c.timedFlush(root)

	// Step 3: advance the free pointer. Must strictly follow the link (the
	// paper's fence): advancing first could leak the block, linking first is
	// recovered by the pptr==free-pointer check.
	c.advanceSlot(slot)

	// Step 4: initialize the block. Embedded reference words must be zero
	// before the object becomes visible (recovery DFS walks them).
	for i := 0; i < embedRefs; i++ {
		c.h.Store(slot.addr+layout.DataOff+layout.Addr(i), 0)
	}
	cls := c.geo.Classes[ci]
	metaW := layout.PackMeta(layout.Meta{
		Flags:      layout.MetaAllocated,
		EmbedCnt:   uint16(embedRefs),
		BlockWords: cls.BlockWords,
	})
	c.h.Store(slot.addr+layout.MetaOff, metaW)
	headerW := layout.PackHeader(layout.Header{
		LCID:   uint16(c.cid),
		LEra:   uint32(c.era),
		RefCnt: 1,
	})
	c.h.Store(slot.addr+layout.HeaderOff, headerW)
	c.noteBlock(slot.op, slot.addr, headerW, metaW)
	// Publishing a header at the current era is a commit-like event: bump so
	// every published (cid, era) pair stays unique (recovery Conditions 1/2
	// depend on it). This is the §5.1 "special algorithm for the
	// initialization of reference count".
	c.bumpEra()
	return root, slot.addr, nil
}

// findBlock reserves a block of class ci without advancing past it.
func (c *Client) findBlock(ci int) (blockSlot, error) {
	for {
		list := c.classPages[ci]
		for len(list) > 0 {
			op := list[len(list)-1]
			if s, ok := c.tryPage(op, ci); ok {
				return s, nil
			}
			op.onClassList = false
			list = list[:len(list)-1]
			c.classPages[ci] = list
		}
		if c.collectDeferredFrees(ci) {
			continue
		}
		op, err := c.claimPage(layout.PageKindNormal, ci)
		if err != nil {
			return blockSlot{}, err
		}
		op.onClassList = true
		c.classPages[ci] = append(c.classPages[ci], op)
	}
}

// tryPage reserves a block in op's page: first from the pending (unpublished)
// frees — zero device accesses, and the free/realloc pair never publishes —
// then from the page free list, then from the never-allocated bump region.
// The only device access is reading a published free block's next pointer —
// the page meta comes from the shadow.
func (c *Client) tryPage(op *ownedPage, ci int) (blockSlot, bool) {
	if n := len(op.pend); n > 0 {
		return blockSlot{op: op, addr: op.pend[n-1], fromPend: true}, true
	}
	if head := op.free; head != 0 {
		return blockSlot{
			op:       op,
			addr:     head,
			fromFree: true,
			next:     c.h.Load(head + freeNextOff),
		}, true
	}
	bw := c.geo.Classes[ci].BlockWords
	end := op.base + layout.Addr(c.geo.PageWords)
	if op.scan+bw <= end {
		return blockSlot{op: op, addr: op.scan, fromFree: false, next: op.scan + bw}, true
	}
	return blockSlot{}, false
}

// advanceSlot performs the §5.1 step 3: move the page free pointer past the
// reserved block. A pend-tier block needs no device store at all — it was
// never re-published, so popping it is pure shadow bookkeeping. The Used
// counter bump is deferred to the next publication burst in every case.
func (c *Client) advanceSlot(s blockSlot) {
	op := s.op
	switch {
	case s.fromPend:
		op.pend = op.pend[:len(op.pend)-1]
		c.pendCount--
	case s.fromFree:
		op.free = s.next
		c.h.Store(op.meta+pmFree, s.next)
	default:
		op.scan = s.next
		c.h.Store(op.meta+pmScan, s.next)
	}
	c.noteUsedDelta(op, 1)
}

// dfBatch groups one page's drained deferred frees during a collect pass.
type dfBatch struct {
	op     *ownedPage
	blocks []layout.Addr
}

// collectDeferredFrees drains the client_free lists of this client's
// segments (blocks freed by other clients, paper Figure 3), distributing
// blocks back to their pages' free lists. The distribution is batched per
// page: blocks are re-chained into one page-local list and each page gets a
// single free-head store and a single used-count store, instead of a
// load/store pair per block. Reports whether any block of class ci came back
// (so the caller retries before claiming fresh pages).
func (c *Client) collectDeferredFrees(ci int) bool {
	found := false
	var batches []dfBatch
	for _, os := range c.owned {
		cf := c.geo.SegClientFreeAddr(os.seg)
		var head layout.Addr
		for {
			head = c.h.Load(cf)
			if head == 0 {
				break
			}
			if c.h.CAS(cf, head, 0) {
				break
			}
			if c.h.Fenced() {
				return found
			}
		}
		if head == 0 {
			continue
		}
		batches = batches[:0]
		for head != 0 {
			next := c.h.Load(head + freeNextOff)
			op, bs := c.blockOf(head)
			bs.drop() // another client freed it; retire the stale shadow
			if op != nil {
				i := 0
				for ; i < len(batches); i++ {
					if batches[i].op == op {
						break
					}
				}
				if i == len(batches) {
					batches = append(batches, dfBatch{op: op})
				}
				batches[i].blocks = append(batches[i].blocks, head)
			}
			head = next
		}
		for i := range batches {
			b := &batches[i]
			op := b.op
			// Rewrite the next pointers into one page-local chain ending at
			// the page's current free head, then publish the new head. A
			// crash mid-chain leaves free-marked blocks on no list — the
			// same lost-block state the segment-local scan already handles.
			for j, blk := range b.blocks {
				nxt := op.free
				if j+1 < len(b.blocks) {
					nxt = b.blocks[j+1]
				}
				c.h.Store(blk+freeNextOff, nxt)
			}
			op.free = b.blocks[0]
			c.h.Store(op.meta+pmFree, op.free)
			// The list must be published here (the freeers are other clients:
			// only the head store makes their frees reachable again), but the
			// Used bookkeeping joins the deferred-publication burst.
			c.noteUsedDelta(op, -int32(len(b.blocks)))
			info := layout.UnpackPageMeta(op.info)
			if info.Kind == layout.PageKindNormal {
				c.readdClassPage(int(info.SizeClass), op)
				if int(info.SizeClass) == ci {
					found = true
				}
			}
		}
	}
	return found
}

// readdClassPage puts op back on its class page cache if absent — O(1) via
// the membership flag (the old linear scan grew with the page count).
func (c *Client) readdClassPage(ci int, op *ownedPage) {
	if op.onClassList {
		return
	}
	op.onClassList = true
	c.classPages[ci] = append(c.classPages[ci], op)
}

// claimPage takes the next unclaimed page in an owned segment (claiming a
// new segment if needed) and dedicates it to kind/class. Being the slow
// path, it also runs the paper's periodic duty (§5.3): scan any owned
// segment left in POTENTIAL_LEAKING state by an interrupted reclamation.
// It is also a publication epoch — needing a fresh page means the caches
// ran dry, a natural moment to land the deferred frees and counters.
func (c *Client) claimPage(kind uint8, ci int) (*ownedPage, error) {
	c.flushPending(EpochRefill)
	c.scanFlaggedOwned()
	for _, os := range c.owned {
		if op, ok := c.claimPageIn(os, kind, ci); ok {
			return op, nil
		}
	}
	os, err := c.claimSegment()
	if err != nil {
		return nil, err
	}
	if op, ok := c.claimPageIn(os, kind, ci); ok {
		return op, nil
	}
	return nil, ErrOutOfMemory
}

func (c *Client) claimPageIn(os *ownedSeg, kind uint8, ci int) (*ownedPage, bool) {
	n := os.nextPage
	if n >= c.geo.PagesPerSegment {
		return nil, false
	}
	op := &ownedPage{
		meta: c.geo.PageMetaAddr(os.seg, n),
		base: c.geo.PageBase(os.seg, n),
		unit: layout.RootRefWords,
		scan: c.geo.PageBase(os.seg, n),
		info: layout.PackPageMeta(layout.PageMeta{
			Kind: kind, Used: 0, SizeClass: uint32(ci),
		}),
	}
	if kind == layout.PageKindNormal {
		op.unit = c.geo.Classes[ci].BlockWords
	}
	op.recip = recipOf(op.unit)
	// Initialize the page meta before publishing it via the next-page
	// counter; the segment is exclusively ours so this is owner-local.
	c.h.Store(op.meta+pmInfo, op.info)
	c.h.Store(op.meta+pmFree, 0)
	c.h.Store(op.meta+pmScan, op.scan)
	os.nextPage = n + 1
	c.h.Store(c.geo.SegNextPageAddr(os.seg), uint64(n+1))
	os.pages[n] = op
	return op, true
}

// claimSegment CASes a free segment to exclusive ownership (the only
// cross-client synchronization in the allocation path). The scan starts at
// this client's striped cursor — not index 0 — so concurrent claimers spread
// across the vector, and consults the shared free-segment hint first.
func (c *Client) claimSegment() (*ownedSeg, error) {
	hintA := c.geo.SegFreeHintAddr()
	if h := c.h.Load(hintA); h != 0 {
		// Consume the hint (best-effort CAS so two claimers don't chase the
		// same index), then try the hinted segment directly.
		c.h.CAS(hintA, h, 0)
		if os, ok := c.tryClaimSegment(int(h) - 1); ok {
			return os, nil
		}
	}
	n := c.geo.NumSegments
	for k := 0; k < n; k++ {
		i := c.segCursor + k
		if i >= n {
			i -= n
		}
		if os, ok := c.tryClaimSegment(i); ok {
			c.segCursor = i + 1
			if c.segCursor == n {
				c.segCursor = 0
			}
			return os, nil
		}
	}
	if c.h.Fenced() {
		return nil, ErrFenced
	}
	return nil, ErrOutOfMemory
}

// tryClaimSegment attempts the ownership CAS on segment i, registering the
// segment's shadow on success.
func (c *Client) tryClaimSegment(i int) (*ownedSeg, bool) {
	if i < 0 || i >= c.geo.NumSegments {
		return nil, false
	}
	a := c.geo.SegStateAddr(i)
	w := c.h.Load(a)
	st := layout.UnpackSegState(w)
	if st.State != layout.SegFree {
		return nil, false
	}
	nw := layout.PackSegState(layout.SegState{
		CID: uint16(c.cid), Version: st.Version + 1, State: layout.SegActive,
	})
	if !c.h.CAS(a, w, nw) {
		return nil, false
	}
	// Reset the owner-local page counter; page metas are initialized
	// lazily at claimPageIn.
	c.h.Store(c.geo.SegNextPageAddr(i), 0)
	c.loc[obs.CtrSegClaim]++
	os := &ownedSeg{seg: i, pages: make([]*ownedPage, c.geo.PagesPerSegment)}
	c.owned = append(c.owned, os)
	c.ownedBySeg[i] = os
	return os, true
}

// --- RootRef slots ---

// takeRootRefSlot advances a RootRef page past one free slot WITHOUT
// claiming it: word0 is left untouched. Until a later in_use store commits
// the slot, a crash leaves it in the lost-slot state (below the bump
// pointer, on no list, not in_use) that the segment-local scan counts as
// free once this client is dead — so callers may interleave arbitrary
// work between take and claim.
//
// The slot comes from the pending tier first (a slot this client freed but
// never re-published: zero device accesses), then the published free list
// (one load + one head store), then the bump region (one store). The page
// Used counter joins the next publication burst. The page comes back too.
func (c *Client) takeRootRefSlot() (*ownedPage, layout.Addr, error) {
	for {
		for len(c.rootPages) > 0 {
			op := c.rootPages[len(c.rootPages)-1]
			if n := len(op.pend); n > 0 {
				slot := op.pend[n-1]
				op.pend = op.pend[:n-1]
				c.pendCount--
				c.noteUsedDelta(op, 1)
				c.inflightRoot = slot
				return op, slot, nil
			}
			if head := op.free; head != 0 {
				op.free = c.h.Load(head + layout.RootRefPptrOff)
				c.h.Store(op.meta+pmFree, op.free)
				c.noteUsedDelta(op, 1)
				c.inflightRoot = head
				return op, head, nil
			}
			end := op.base + layout.Addr(c.geo.PageWords)
			if op.scan+layout.RootRefWords <= end {
				slot := op.scan
				op.scan += layout.RootRefWords
				c.h.Store(op.meta+pmScan, op.scan)
				c.noteUsedDelta(op, 1)
				c.inflightRoot = slot
				return op, slot, nil
			}
			op.onClassList = false
			c.rootPages = c.rootPages[:len(c.rootPages)-1]
		}
		op, err := c.claimPage(layout.PageKindRootRef, 0)
		if err != nil {
			return nil, 0, err
		}
		op.onClassList = true
		c.rootPages = append(c.rootPages, op)
	}
}

// allocRootRef claims one 2-word RootRef slot from a RootRef-only page, the
// classic §5.1 order: advance, zero pptr, set in_use. Used by the paths that
// need a committed (sweep-visible) slot before any further work — AttachRoot,
// queue receive, the huge-object branch. Malloc's small path instead takes
// the slot unclaimed and defers the in_use store past the link.
func (c *Client) allocRootRef() (layout.Addr, error) {
	op, slot, err := c.takeRootRefSlot()
	if err != nil {
		return 0, err
	}
	// pptr must be zeroed before in_use is set: recovery treats any
	// in_use slot's pptr as a live reference.
	c.h.Store(slot+layout.RootRefPptrOff, 0)
	c.h.Store(slot, layout.PackRootRef(true, 1))
	c.inflightRoot = 0
	c.noteRoot(op, slot, 1, 0)
	return slot, nil
}

// abortRootRef returns a just-claimed, never-linked RootRef slot (block
// allocation failed after the claim).
func (c *Client) abortRootRef(slot layout.Addr) {
	op, rs := c.rootOf(slot)
	c.freeRootRefSlot(op, rs, slot)
}

// freeRootRefSlot clears a RootRef and parks it on its page's pending list
// (owner-local; RootRefs always live in their creator's pages); op and rs are
// what rootOf resolved for it. Ownership is decided by that shadow index — no
// device load — and the one device store (word0 ← 0) leaves the slot in the
// lost-slot state the scan counts free should this client die before publishing.
func (c *Client) freeRootRefSlot(op *ownedPage, rs *rootShadow, slot layout.Addr) {
	if slot == c.inflightRoot {
		c.inflightRoot = 0
	}
	rs.drop()
	c.h.Store(slot, 0)
	if op == nil {
		// Not ours (recovery executor freeing a dead client's RootRef): the
		// slot is in an abandoned page, just leave it cleared — the segment
		// scan reclaims the page wholesale.
		return
	}
	c.deferFree(op, slot)
}

// --- huge objects ---

// allocHuge claims enough contiguous whole segments for an object larger
// than the biggest size class, with the paper's retry-and-rollback method.
func (c *Client) allocHuge(root layout.Addr, dataBytes, embedRefs int) (layout.Addr, error) {
	totalWords := uint64(layout.BlockHeaderWords) + uint64((dataBytes+layout.WordBytes-1)/layout.WordBytes)
	k := int((totalWords + c.geo.SegmentWords - 1) / c.geo.SegmentWords)
	if k > c.geo.NumSegments {
		return 0, ErrTooLarge
	}
	start := c.claimHugeRun(k)
	if start < 0 {
		if c.h.Fenced() {
			return 0, ErrFenced
		}
		return 0, ErrOutOfMemory
	}
	block := c.geo.SegmentBase(start)

	// Same ordering discipline as the small path: link, fence, init.
	// Claiming the segments plays the role of advancing the free pointer —
	// on a crash the run is owned by the dead client and reclaimed with it.
	c.h.Store(root+layout.RootRefPptrOff, block)
	c.timedFence()
	c.timedFlush(root)
	for i := 0; i < embedRefs; i++ {
		c.h.Store(block+layout.DataOff+layout.Addr(i), 0)
	}
	c.h.Store(block+layout.MetaOff, layout.PackMeta(layout.Meta{
		Flags:      layout.MetaAllocated | layout.MetaHuge,
		EmbedCnt:   uint16(embedRefs),
		BlockWords: totalWords,
	}))
	c.h.Store(block+layout.HeaderOff, layout.PackHeader(layout.Header{
		LCID: uint16(c.cid), LEra: uint32(c.era), RefCnt: 1,
	}))
	c.bumpEra()
	c.loc[obs.CtrAllocHuge]++
	return block, nil
}

// claimHugeRun claims k contiguous free segments, rolling back on conflict.
// Returns the first segment index or -1. Like claimSegment, the scan starts
// at a striped per-client cursor and wraps once.
func (c *Client) claimHugeRun(k int) int {
	limit := c.geo.NumSegments - k
	if limit < 0 {
		return -1
	}
	if c.hugeCursor > limit {
		c.hugeCursor = 0
	}
	if s := c.hugeRunScan(c.hugeCursor, limit, k); s >= 0 {
		c.hugeCursor = s + k
		return s
	}
	if s := c.hugeRunScan(0, c.hugeCursor-1, k); s >= 0 {
		c.hugeCursor = s + k
		return s
	}
	return -1
}

// hugeRunScan tries k-segment windows starting in [lo, hi]. A window that
// conflicts at offset j proves every start in [start, start+j] would include
// the same busy segment, so the scan resumes at start+j+1 — skipping past
// the conflict instead of re-CASing segments just seen busy (the old
// start+1 retry cost O(N·k) under fragmentation).
func (c *Client) hugeRunScan(lo, hi, k int) int {
	start := lo
	for start <= hi {
		claimed := 0
		conflict := 0
		ok := true
		for j := 0; j < k; j++ {
			a := c.geo.SegStateAddr(start + j)
			w := c.h.Load(a)
			st := layout.UnpackSegState(w)
			if st.State != layout.SegFree {
				ok, conflict = false, j
				break
			}
			state := uint8(layout.SegHugeBody)
			if j == 0 {
				state = layout.SegHugeHead
			}
			nw := layout.PackSegState(layout.SegState{
				CID: uint16(c.cid), Version: st.Version + 1, State: state,
			})
			if !c.h.CAS(a, w, nw) {
				ok, conflict = false, j
				break
			}
			claimed++
		}
		if ok {
			return start
		}
		// Rollback: release the prefix we claimed, then skip past the
		// conflicting index.
		for j := 0; j < claimed; j++ {
			c.releaseSegment(start + j)
		}
		start += conflict + 1
	}
	return -1
}

// releaseSegment returns an owned segment to the free pool, bumping the
// version to defeat ABA on future claims, and publishes the free-segment
// hint so the next claimer skips its scan. Live clients never release their
// active (shadowed) segments — this runs on huge-run rollbacks, huge frees,
// and dead owners' segments — so no shadow needs invalidating.
// Before the state flips to FREE, the segment-base header/meta words are
// scrubbed: a huge object's payload covers its body segments' bases, and a
// recycled segment whose base still spells out a plausible header would
// derail the next owner's mid-claim recovery (sweepHugeOwned trusts the head
// header it reads there).
func (c *Client) releaseSegment(i int) {
	base := c.geo.SegmentBase(i)
	c.h.Store(base+layout.HeaderOff, 0)
	c.h.Store(base+layout.MetaOff, 0)
	a := c.geo.SegStateAddr(i)
	st := layout.UnpackSegState(c.h.Load(a))
	c.h.Store(a, layout.PackSegState(layout.SegState{
		Version: st.Version + 1, State: layout.SegFree,
	}))
	c.h.Store(c.geo.SegFreeHintAddr(), uint64(i)+1)
}
