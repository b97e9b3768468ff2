package shm

import (
	"fmt"
	"math/bits"

	"repro/internal/layout"
)

// Reference shadow caches: the free-path counterpart of shadow.go.
//
// A free (ReleaseRoot of the last count) used to pay four device loads —
// the RootRef word, its pptr, the block header, and the block meta — before
// its first store. All four words are either owner-exclusive or were last
// written by this client on the overwhelmingly common path, so they are
// cached here:
//
//   - rootShadow mirrors a RootRef slot's thread-local count and pptr
//     target. Both words are single-writer (§5.2: CloneRoot/ReleaseRoot use
//     no atomics), and the segment scan never rewrites a live owner's
//     in_use slots, so the mirror is exact while the client lives. Entries
//     are filled when the slot is claimed and emptied when it is freed.
//
//   - blockShadow carries a block's meta word (immutable from allocation
//     to free, the one in-place rewrite, CreateQueue's queue flag, updates it) and the
//     last header word this client itself published. The header is shared
//     state (any client may CAS it), so the cached value is only ever a
//     CAS *guess*: the transaction loops in era.go seed their first
//     attempt from it and fall back to a device load when the guess loses
//     the CAS, or when a hand-off to another client dropped it (0). A stale
//     guess costs one extra CAS attempt; it can never commit, because the
//     commit is a full-word compare.
//
// Entries are filled at Malloc, updated at every header publication by
// this client, and emptied when the block is freed — by this client
// (reclaimRaw) or, for blocks other clients freed into our segments'
// client_free lists, when the deferred frees are collected. Between a
// remote free and that collection an entry is stale but unreachable: no
// live reference to the block remains, so no transaction consults it.
// Like every shadow, these are read-elision only — recovery and validation
// never see them, and a crash loses nothing but cached copies of device
// words.

// Representation: each ownedPage carries a dense value table — roots for a
// RootRef page, blocks for a normal page — indexed by (addr − base) / unit,
// allocated by the first note on the page and kept while the page is owned,
// i.e. while the client lives: 16 B of host memory per slot of a touched
// page. Anything that is not a live entry of an owned page misses, and a
// miss means a device load. Only this file knows the tables.
//
// The index costs no division: the page stores recip = ⌈2⁶⁴/unit⌉ (set when
// it is claimed); for an offset n < 2³², far above PageWords, the high word of
// n·recip is n / unit, and the low word is below recip exactly when unit
// divides n (Lemire, Kaser and Kurz, "Faster Remainder by Direct Computation").

// recipOf returns ⌈2⁶⁴/unit⌉ for a slot size unit ≥ 2.
func recipOf(unit layout.Addr) uint64 { return ^uint64(0)/uint64(unit) + 1 }

// slotOf returns the index of op's slot holding addr and whether addr starts it.
func (op *ownedPage) slotOf(addr layout.Addr) (int, bool) {
	hi, lo := bits.Mul64(op.recip, uint64(addr-op.base))
	return int(hi), lo < op.recip
}

type rootShadow struct {
	cnt    uint32 // thread-local count; 0 = empty entry (a claimed slot counts ≥ 1)
	target layout.Addr
}

type blockShadow struct {
	header uint64 // last header word this client published (CAS guess only)
	meta   uint64 // packed meta word, immutable while allocated; 0 = empty entry
}

// refSlot locates addr in its page's table: the page and the entry index, or
// a nil page unless addr is the first word of a slot of an owned page.
func (c *Client) refSlot(addr layout.Addr) (*ownedPage, int) {
	if op := c.ownedPageOf(c.geo.SegmentIndexOf(addr), addr); op != nil {
		if i, ok := op.slotOf(addr); ok {
			return op, i
		}
	}
	return nil, 0
}

// rootOf resolves a RootRef slot once for everything a transaction asks
// about it: its owned page (nil for a slot of another client's page) and its
// live shadow (nil when there is none). A normal page has no roots table, so
// a block misses here, and a slot in blockOf.
func (c *Client) rootOf(root layout.Addr) (*ownedPage, *rootShadow) {
	op, i := c.refSlot(root)
	if op != nil && i < len(op.roots) && op.roots[i].cnt != 0 {
		return op, &op.roots[i]
	}
	return op, nil
}

// rootRef returns the live shadow of a RootRef slot, or nil.
func (c *Client) rootRef(root layout.Addr) *rootShadow {
	_, rs := c.rootOf(root)
	return rs
}

// blockOf resolves block once for everything a transaction asks about it:
// its owned page (nil for a block of another client's page) and its live
// shadow (nil when there is none).
func (c *Client) blockOf(block layout.Addr) (*ownedPage, *blockShadow) {
	op, i := c.refSlot(block)
	if op != nil && i < len(op.blocks) && op.blocks[i].meta != 0 {
		return op, &op.blocks[i]
	}
	return op, nil
}

// blockRef returns the live shadow of a block, or nil.
func (c *Client) blockRef(block layout.Addr) *blockShadow {
	_, bs := c.blockOf(block)
	return bs
}

// noteRoot records (or resets) the shadow of a just-claimed RootRef slot of
// page op (the page takeRootRefSlot took it from).
func (c *Client) noteRoot(op *ownedPage, root layout.Addr, cnt uint32, target layout.Addr) {
	if op.roots == nil {
		op.roots = make([]rootShadow, c.geo.RootRefsPerPage())
	}
	i, _ := op.slotOf(root)
	op.roots[i] = rootShadow{cnt: cnt, target: target}
}

// noteRootTarget records a new value of a reference word if — and only if —
// that word is the pptr of a shadowed RootRef. ref may just as well be an
// embedded reference, a queue slot or a named-root directory word: none of
// those is the pptr of a slot in a RootRef page this client owns, and the
// lookup simply misses.
func (c *Client) noteRootTarget(ref, target layout.Addr) {
	if ref < layout.RootRefPptrOff {
		return
	}
	if rs := c.rootRef(ref - layout.RootRefPptrOff); rs != nil {
		rs.target = target
	}
}

func (rs *rootShadow) drop() {
	if rs != nil {
		*rs = rootShadow{}
	}
}

// noteBlock records the shadow of a just-initialized block of page op.
func (c *Client) noteBlock(op *ownedPage, block layout.Addr, header, meta uint64) {
	if op.blocks == nil {
		op.blocks = make([]blockShadow, c.geo.PageWords/op.unit)
	}
	i, _ := op.slotOf(block)
	op.blocks[i] = blockShadow{header: header, meta: meta}
}

// noteHeader updates the cached header after this client published a new
// header word. Like drop, it accepts the nil of a block without a live shadow.
func (bs *blockShadow) noteHeader(w uint64) {
	if bs != nil {
		bs.header = w
	}
}

func (bs *blockShadow) drop() {
	if bs != nil {
		*bs = blockShadow{}
	}
}

// guessHeader returns a first CAS attempt value for block's header: the
// word cached in bs when block has a live shadow holding one (guessed=true),
// a device load otherwise. A hand-off drops the word (noteHeader(0), Send):
// the receiver's release will have rewritten the header by the time the
// sender comes back, and a lost CAS costs a re-load and a re-logged redo
// entry where a miss costs the load alone.
func (c *Client) guessHeader(bs *blockShadow, block layout.Addr) (w uint64, guessed bool) {
	if bs != nil && bs.header != 0 {
		return bs.header, true
	}
	return c.h.Load(block + layout.HeaderOff), false
}

// metaOf reads block's meta through its shadow bs when that is live.
func (c *Client) metaOf(bs *blockShadow, block layout.Addr) layout.Meta {
	if bs != nil {
		return layout.UnpackMeta(bs.meta)
	}
	return layout.UnpackMeta(c.h.Load(block + layout.MetaOff))
}

// checkRefShadow verifies every live entry of one page's table against the
// device (CheckShadow's leg for this file). Root shadows must match exactly.
// Block shadows: a no-longer-allocated block is a remote free awaiting
// collection and is skipped; otherwise the meta must match, and the header
// too unless another client (a different LCID) has published over it.
func (c *Client) checkRefShadow(op *ownedPage) error {
	for i := range op.roots {
		rs, root := &op.roots[i], op.base+layout.Addr(i)*op.unit
		if rs.cnt == 0 {
			continue
		}
		inUse, cnt := layout.UnpackRootRef(c.h.Load(root))
		if !inUse || cnt != rs.cnt {
			return fmt.Errorf("shm: RootRef %#x shadow cnt %d, device inUse=%v cnt=%d", root, rs.cnt, inUse, cnt)
		}
		if got := c.h.Load(root + layout.RootRefPptrOff); got != rs.target {
			return fmt.Errorf("shm: RootRef %#x shadow target %#x, device %#x", root, rs.target, got)
		}
	}
	for i := range op.blocks {
		bs, block := &op.blocks[i], op.base+layout.Addr(i)*op.unit
		if bs.meta == 0 {
			continue
		}
		mw := c.h.Load(block + layout.MetaOff)
		if !layout.UnpackMeta(mw).Allocated() {
			continue // freed by another client; entry dropped at collection
		}
		if mw != bs.meta {
			return fmt.Errorf("shm: block %#x shadow meta %#x, device %#x", block, bs.meta, mw)
		}
		hw := c.h.Load(block + layout.HeaderOff)
		if hw != bs.header && bs.header != 0 && layout.UnpackHeader(hw).LCID == uint16(c.cid) {
			return fmt.Errorf("shm: block %#x shadow header %#x, device %#x (own LCID)", block, bs.header, hw)
		}
	}
	return nil
}
