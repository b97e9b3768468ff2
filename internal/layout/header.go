// Package layout defines the on-device layout of the CXL-SHM shared memory
// pool: word packings for object headers, RootRefs and segment metadata, the
// size-class table, and the geometry that maps word addresses to segments,
// pages and blocks (paper Figure 3 and Figure 4(b)).
package layout

import "repro/internal/cxl"

// Addr is re-exported so higher layers can use layout.Addr throughout.
type Addr = cxl.Addr

// WordBytes is the size of a device word.
const WordBytes = cxl.WordBytes

// Object header word (paper Figure 4(b)): a single 64-bit word holding
//
//	[63:48] lcid    — ID of the last client that committed a refcount CAS
//	[47:16] lera    — that client's era at the commit
//	[15:0]  ref_cnt — the object's reference count
//
// The paper packs these fields into one cache line so a single CAS covers
// all three; packing them in one word gives the same commit-point semantics
// with CompareAndSwapUint64, and an object supports at most 65535
// concurrent references. An era itself is 64-bit and never wraps: the era
// matrix and a client's own era hold whole eras, and a header's lera holds
// the low 32 bits of one, which WidenEra turns back into the whole era.
const (
	MaxRefCount = 1<<16 - 1
	MaxEra      = 1<<32 - 1 // the largest lera; eras run past it
	MaxLCID     = 1<<16 - 1
)

// WidenEra returns the largest era at most cur whose low 32 bits are low:
// the whole era that a 32-bit era field names, given cur, an era of the same
// client read after the field. The field was written at an era at most cur,
// so the answer is exact unless the field is 2³² or more eras older than
// cur. ok is false when no era at most cur has those low bits.
func WidenEra(low uint32, cur uint64) (era uint64, ok bool) {
	d := uint64(uint32(cur) - low)
	if d > cur {
		return 0, false
	}
	return cur - d, true
}

// Header is the unpacked form of an object header word.
type Header struct {
	LCID   uint16
	LEra   uint32
	RefCnt uint16
}

// PackHeader packs h into its word representation.
func PackHeader(h Header) uint64 {
	return uint64(h.LCID)<<48 | uint64(h.LEra)<<16 | uint64(h.RefCnt)
}

// UnpackHeader unpacks a header word.
func UnpackHeader(w uint64) Header {
	return Header{
		LCID:   uint16(w >> 48),
		LEra:   uint32(w >> 16),
		RefCnt: uint16(w),
	}
}

// Block meta word. Every block carries a second metadata word after the
// header word:
//
//	[63:56] flags      — allocation state and kind
//	[55:40] embedCnt   — number of embedded references at the head of the
//	                     data area (paper §5.4); recovery uses it for the
//	                     DFS release of linked objects
//	[39:0]  blockWords — total block size in words including the two
//	                     metadata words (for huge objects this spans
//	                     multiple segments)
const (
	// MetaAllocated marks a block as allocated. A block with the flag clear
	// is free (on a free list, or mid-free).
	MetaAllocated = 1 << 0
	// MetaHuge marks a block occupying one or more whole segments.
	MetaHuge = 1 << 1
	// MetaQueue marks a block holding a transfer queue (§5.2); recovery and
	// the registry sweep recognise queues by this flag.
	MetaQueue = 1 << 2
	// MetaQuarantined marks a block the repairing fsck judged irreparably
	// damaged: it stays flagged allocated so no free list ever hands it out
	// again, but validators exclude it from reference accounting, scans skip
	// it, and its segment is never returned to the free pool while the flag
	// is set. The flag is sticky; only reformatting the pool clears it.
	MetaQuarantined = 1 << 3
)

// MaxEmbedRefs bounds the embedded-reference count storable in the meta word.
const MaxEmbedRefs = 1<<16 - 1

// Meta is the unpacked form of a block meta word.
type Meta struct {
	Flags      uint8
	EmbedCnt   uint16
	BlockWords uint64
}

// PackMeta packs m into its word representation.
func PackMeta(m Meta) uint64 {
	return uint64(m.Flags)<<56 | uint64(m.EmbedCnt)<<40 | (m.BlockWords & (1<<40 - 1))
}

// UnpackMeta unpacks a meta word.
func UnpackMeta(w uint64) Meta {
	return Meta{
		Flags:      uint8(w >> 56),
		EmbedCnt:   uint16(w >> 40),
		BlockWords: w & (1<<40 - 1),
	}
}

// Allocated reports whether the meta word describes an allocated block.
func (m Meta) Allocated() bool { return m.Flags&MetaAllocated != 0 }

// Quarantined reports whether the block was quarantined by the repairing
// fsck.
func (m Meta) Quarantined() bool { return m.Flags&MetaQuarantined != 0 }

// Block layout: [header word][meta word][data words...]. The first EmbedCnt
// data words are embedded references (machine-independent Addrs).
const (
	BlockHeaderWords = 2
	// HeaderOff / MetaOff / DataOff are offsets from the block address.
	HeaderOff = 0
	MetaOff   = 1
	DataOff   = 2
)

// RootRef layout (paper Figure 2, §5.1): 2 words allocated from dedicated
// RootRef-only pages.
//
//	word 0: [63] in_use | [31:0] thread-local reference count
//	word 1: pptr — machine-independent pointer to the referenced CXLObj
const (
	RootRefWords    = 2
	RootRefInUseBit = uint64(1) << 63
	RootRefCntMask  = uint64(1)<<32 - 1
	RootRefPptrOff  = 1
)

// PackRootRef packs the RootRef control word.
func PackRootRef(inUse bool, cnt uint32) uint64 {
	w := uint64(cnt)
	if inUse {
		w |= RootRefInUseBit
	}
	return w
}

// UnpackRootRef unpacks the RootRef control word.
func UnpackRootRef(w uint64) (inUse bool, cnt uint32) {
	return w&RootRefInUseBit != 0, uint32(w & RootRefCntMask)
}

// Segment state word (one entry of the Global Segment Allocation Vec,
// paper Figure 3):
//
//	[63:48] occupied client ID (0 = none)
//	[47:16] version — incremented on every ownership transition, defeating
//	                  ABA on the segment-claim CAS
//	[15:8]  flags   — PotentialLeaking (sticky, §5.3)
//	[7:0]   state
const (
	// SegFree: unowned, contents dead.
	SegFree = 0
	// SegActive: exclusively owned by the client in the cid field.
	SegActive = 1
	// SegAbandoned: owner died; blocks may still be referenced by others.
	// Reclaimed by the asynchronous segment-local scan once quiet.
	SegAbandoned = 2
	// SegHugeHead: first segment of a huge (multi-segment) object.
	SegHugeHead = 3
	// SegHugeBody: continuation segment of a huge object.
	SegHugeBody = 4
)

// SegFlagPotentialLeaking is the sticky POTENTIAL_LEAKING flag (§5.3): set
// when recovery replays a release that reached refcount zero and therefore
// must not redo the (non-idempotent) reclamation.
const SegFlagPotentialLeaking = 1 << 0

// SegState is the unpacked form of a segment state word.
type SegState struct {
	CID     uint16
	Version uint32
	Flags   uint8
	State   uint8
}

// PackSegState packs s into its word representation.
func PackSegState(s SegState) uint64 {
	return uint64(s.CID)<<48 | uint64(s.Version)<<16 | uint64(s.Flags)<<8 | uint64(s.State)
}

// UnpackSegState unpacks a segment state word.
func UnpackSegState(w uint64) SegState {
	return SegState{
		CID:     uint16(w >> 48),
		Version: uint32(w >> 16),
		Flags:   uint8(w >> 8),
		State:   uint8(w),
	}
}

// Page meta words (stored in the segment header, one meta per page):
//
//	word 0: [63:56] kind | [55:32] used count | [31:0] size class index
//	word 1: free — address of first free block (intrusive list head)
//	word 2: next free-slot scan position (owner-local bump pointer)
const (
	PageMetaWords = 3

	PageKindUnused  = 0
	PageKindNormal  = 1
	PageKindRootRef = 2
	// PageKindQuarantined marks a page whose metadata the repairing fsck
	// could not reconstruct (e.g. an unrecognizable size class): the page's
	// contents are written off, allocators and scans must not touch it, and
	// references into it are reported as quarantined rather than wild.
	PageKindQuarantined = 3
)

// PageMeta is the unpacked form of page meta word 0.
type PageMeta struct {
	Kind      uint8
	Used      uint32 // allocated block count (owner-maintained)
	SizeClass uint32
}

// PackPageMeta packs p into page meta word 0.
func PackPageMeta(p PageMeta) uint64 {
	return uint64(p.Kind)<<56 | uint64(p.Used&0xffffff)<<32 | uint64(p.SizeClass)
}

// UnpackPageMeta unpacks page meta word 0.
func UnpackPageMeta(w uint64) PageMeta {
	return PageMeta{
		Kind:      uint8(w >> 56),
		Used:      uint32(w>>32) & 0xffffff,
		SizeClass: uint32(w),
	}
}

// Client status values (stored in each ClientLocalState).
const (
	ClientSlotFree  = 0
	ClientAlive     = 1
	ClientDead      = 2 // declared failed, recovery pending or running
	ClientRecovered = 3 // recovery completed; slot reusable
)
