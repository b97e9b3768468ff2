package layout

import (
	"fmt"
	"math/bits"
)

// Geometry fixes the layout of the shared pool (paper Figure 3):
//
//	word 0                      nil address (reserved)
//	word 1                      magic
//	word 2..6                   geometry summary (for cross-checking)
//	word 7                      reserved
//	word 8                      free-segment hint (SegFreeHintWord)
//	word 9..15                  reserved
//	SlotMapBase..               free-slot bitmap (1 bit per client slot,
//	                            bit set = slot claimable; accelerator only,
//	                            the status word stays authoritative)
//	SlotGenBase..               per-slot lease generation words
//	                            (odd = leased ALIVE/DEAD, even = FREE or
//	                            RECOVERED; bumped once per transition)
//	SegVecBase..                Global Segment Allocation Vec
//	                            (2 words per segment: state, client_free)
//	ClientVecBase..             Global Client Local Vec
//	                            (ClientStateWords per client)
//	QueueRegBase..              queue registry (1 word per slot)
//	SegmentsBase..              NumSegments segments of SegmentWords each
//	TelemetryBase..             crash-surviving telemetry region
//	                            (telemetry.go: metric blocks, recovery
//	                            timelines, shared event ring)
//
// Each segment:
//
//	word 0                      next unclaimed page index (owner bump ptr)
//	word 1                      reserved
//	word 2..                    PageMetaWords per page
//	(padded to SegHeaderWords)
//	pages                       PagesPerSegment pages of PageWords each
//
// Each client's ClientLocalState:
//
//	word 0                      status (ClientSlotFree/Alive/Dead/Recovered)
//	word 1                      heartbeat counter
//	word 2                      machine/process identity tag
//	word 3                      recovery claim: 0, or the recovering
//	                            executor's lease word (PackLease)
//	word 4..4+RedoWords         redo log area (one era-transaction entry)
//	word 12..12+MaxClients      era row: Era[cid][1..MaxClients]
type Geometry struct {
	MaxClients  int
	NumSegments int
	MaxQueues   int

	SegmentWords    uint64
	PageWords       uint64
	PagesPerSegment int
	SegHeaderWords  uint64

	RedoWords        int
	ClientStateWords uint64

	// SlotMapBase is the free-slot bitmap: SlotMapWords words, one bit per
	// client slot (bit for cid at word (cid-1)/64, bit (cid-1)%64). A set
	// bit means "probably claimable" — Connect uses it to find a candidate
	// in O(1) device reads instead of an O(M) status scan. The status word
	// is authoritative; stale bits are self-healed by claimers and the
	// monitor's reconcile duty.
	SlotMapBase  Addr
	SlotMapWords uint64
	// SlotGenBase holds one lease-generation word per client slot. The
	// generation is bumped to odd when the slot is leased (Connect) and to
	// even when the lease is released (recovery completing, or format).
	// Parity invariant: ALIVE/DEAD ⇒ odd, FREE/RECOVERED ⇒ even.
	SlotGenBase   Addr
	SegVecBase    Addr
	ClientVecBase Addr
	QueueRegBase  Addr
	RootDirBase   Addr
	SegmentsBase  Addr
	// TelemetryBase is the crash-surviving telemetry region (telemetry.go),
	// placed after the segments so all other addresses are unaffected.
	TelemetryBase Addr
	// TelSlotWords/TelBlockWords size one metric slot / double-buffered
	// metric block, derived from the obs counter and histogram dimensions.
	TelSlotWords  uint64
	TelBlockWords uint64
	TotalWords    uint64

	Classes []SizeClass
	classOf []uint8 // (dataBytes+15)/16 → smallest class that fits (ClassIndexFor)
	// log2 of SegmentWords and PageWords: an address maps to its segment and
	// page by shifts, which is why NewGeometry requires powers of two.
	segShift, pageShift uint8
}

// MaxNamedRoots is the size of the named-root directory: well-known
// reference slots that keep data alive across client lifetimes (the paper's
// §6.4 "persistent root objects ... special API").
const MaxNamedRoots = 32

// Fixed per-client state offsets (within a ClientLocalState).
const (
	ClientOffStatus    = 0
	ClientOffHeartbeat = 1
	ClientOffIdentity  = 2
	ClientOffClaim     = 3
	ClientOffRedo      = 4
	clientFixedWords   = 12 // status..claim + redo area (RedoWords=8)
)

// DefaultRedoWords is the size of the per-client redo log area. One era
// transaction needs at most 8 words (see internal/shm's redo layout).
const DefaultRedoWords = 8

// PoolMagic identifies an initialized CXL-SHM pool.
const PoolMagic = 0xC1525348 // "CXL-SHM" truncated tag

// GeometryConfig selects pool dimensions. Zero fields take defaults sized
// for tests and laptop-scale benchmarks (the paper's 64 MB segments scale
// down linearly).
type GeometryConfig struct {
	MaxClients   int    // default 32
	NumSegments  int    // default 64
	SegmentWords uint64 // default 1<<16 words (512 KiB); a power of two
	PageWords    uint64 // default 1<<12 words (32 KiB); a power of two
	MaxQueues    int    // default 128
}

// NewGeometry validates cfg and computes the derived layout.
func NewGeometry(cfg GeometryConfig) (*Geometry, error) {
	if cfg.MaxClients == 0 {
		cfg.MaxClients = 32
	}
	if cfg.NumSegments == 0 {
		cfg.NumSegments = 64
	}
	if cfg.SegmentWords == 0 {
		cfg.SegmentWords = 1 << 16
	}
	if cfg.PageWords == 0 {
		cfg.PageWords = 1 << 12
	}
	if cfg.MaxQueues == 0 {
		cfg.MaxQueues = 128
	}
	if cfg.MaxClients < 1 || cfg.MaxClients > MaxLCID {
		return nil, fmt.Errorf("layout: MaxClients %d out of range [1,%d]", cfg.MaxClients, MaxLCID)
	}
	if cfg.PageWords < 64 {
		return nil, fmt.Errorf("layout: PageWords %d too small (min 64)", cfg.PageWords)
	}
	if cfg.SegmentWords&(cfg.SegmentWords-1) != 0 || cfg.PageWords&(cfg.PageWords-1) != 0 {
		return nil, fmt.Errorf("layout: SegmentWords %d and PageWords %d must each be a power of two",
			cfg.SegmentWords, cfg.PageWords)
	}
	if cfg.SegmentWords < cfg.PageWords*2 {
		return nil, fmt.Errorf("layout: SegmentWords %d must hold at least two pages of %d words",
			cfg.SegmentWords, cfg.PageWords)
	}

	g := &Geometry{
		MaxClients:   cfg.MaxClients,
		NumSegments:  cfg.NumSegments,
		MaxQueues:    cfg.MaxQueues,
		SegmentWords: cfg.SegmentWords,
		PageWords:    cfg.PageWords,
		RedoWords:    DefaultRedoWords,
		segShift:     uint8(bits.TrailingZeros64(cfg.SegmentWords)),
		pageShift:    uint8(bits.TrailingZeros64(cfg.PageWords)),
	}
	g.ClientStateWords = clientFixedWords + uint64(g.MaxClients) + 1

	// Pages per segment: solve fixed(2) + PageMetaWords*p + pad <= seg - p*page.
	p := int((g.SegmentWords - 2) / (g.PageWords + PageMetaWords))
	for p > 0 {
		hdr := uint64(2 + PageMetaWords*p)
		hdr = (hdr + 7) &^ 7 // align to cache line
		if hdr+uint64(p)*g.PageWords <= g.SegmentWords {
			g.PagesPerSegment = p
			g.SegHeaderWords = hdr
			break
		}
		p--
	}
	if g.PagesPerSegment < 1 {
		return nil, fmt.Errorf("layout: segment of %d words cannot hold a page of %d words",
			g.SegmentWords, g.PageWords)
	}

	base := Addr(16) // word 0 nil, 1..7 magic+geometry, 8 seg hint, 9..15 reserved
	g.SlotMapBase = base
	g.SlotMapWords = (uint64(g.MaxClients) + 63) / 64
	base += Addr(g.SlotMapWords)
	g.SlotGenBase = base
	base += Addr(uint64(g.MaxClients))
	g.SegVecBase = base
	base += Addr(2 * g.NumSegments)
	g.ClientVecBase = base
	base += Addr(uint64(g.MaxClients) * g.ClientStateWords)
	g.QueueRegBase = base
	base += Addr(g.MaxQueues)
	g.RootDirBase = base
	base += MaxNamedRoots
	base = (base + 7) &^ 7
	g.SegmentsBase = base
	g.TelemetryBase = base + Addr(uint64(g.NumSegments)*g.SegmentWords)
	g.TelSlotWords = telSlotWords()
	g.TelBlockWords = telBlockHdrWords + 2*g.TelSlotWords
	g.TotalWords = uint64(g.TelemetryBase) + g.telemetryWords()

	g.Classes = BuildSizeClasses(g.PageWords)
	g.classOf = buildClassTable(g.Classes)
	return g, nil
}

// SegFreeHintWord is the pool-header word holding the shared free-segment
// hint: index+1 of a segment recently returned to the free pool, 0 when there
// is no hint. Purely an accelerator for claim-time scans — any value (stale,
// lost, zero) is correct, so writers may race and fenced writers may drop it.
const SegFreeHintWord = Addr(8)

// SegFreeHintAddr returns the address of the free-segment hint word.
func (g *Geometry) SegFreeHintAddr() Addr { return SegFreeHintWord }

// --- Slot-lease area ---

// SlotMapAddr returns the address of free-slot bitmap word w
// (w in [0, SlotMapWords)).
func (g *Geometry) SlotMapAddr(w int) Addr { return g.SlotMapBase + Addr(w) }

// SlotMapBit locates cid's bit in the free-slot bitmap: the bitmap word
// address and the single-bit mask within it. cid is 1-based.
func (g *Geometry) SlotMapBit(cid int) (Addr, uint64) {
	return g.SlotMapBase + Addr((cid-1)/64), 1 << uint((cid-1)%64)
}

// SlotGenAddr returns the address of cid's lease-generation word.
// cid is 1-based.
func (g *Geometry) SlotGenAddr(cid int) Addr { return g.SlotGenBase + Addr(cid-1) }

// --- Global Segment Allocation Vec ---

// SegStateAddr returns the address of segment i's state word.
func (g *Geometry) SegStateAddr(i int) Addr { return g.SegVecBase + Addr(2*i) }

// SegClientFreeAddr returns the address of segment i's client_free list head
// (cross-client deferred frees, paper Figure 3).
func (g *Geometry) SegClientFreeAddr(i int) Addr { return g.SegVecBase + Addr(2*i) + 1 }

// --- Client Local Vec ---

// ClientStateBase returns the base of client cid's ClientLocalState.
// cid is 1-based.
func (g *Geometry) ClientStateBase(cid int) Addr {
	return g.ClientVecBase + Addr(uint64(cid-1)*g.ClientStateWords)
}

// ClientStatusAddr returns the address of cid's status word.
func (g *Geometry) ClientStatusAddr(cid int) Addr {
	return g.ClientStateBase(cid) + ClientOffStatus
}

// ClientHeartbeatAddr returns the address of cid's heartbeat counter.
func (g *Geometry) ClientHeartbeatAddr(cid int) Addr {
	return g.ClientStateBase(cid) + ClientOffHeartbeat
}

// ClientClaimAddr returns the address of cid's recovery claim: the one word
// a recoverer CASes before it runs cid's recovery pass (internal/shm's
// slotlease.go).
func (g *Geometry) ClientClaimAddr(cid int) Addr {
	return g.ClientStateBase(cid) + ClientOffClaim
}

// PackLease packs a lease word — a kv partition's writer, a client's
// recovery claim: the holder's cid in the low 16 bits and its slot-lease
// generation above them, so a steal can tell the incarnation that took the
// lease from a later lessee of the same slot.
func PackLease(cid int, gen uint64) uint64 { return gen<<16 | uint64(cid) }

// UnpackLease splits a lease word.
func UnpackLease(w uint64) (cid int, gen uint64) { return int(w & 0xffff), w >> 16 }

// ClientRedoBase returns the base of cid's redo log area.
func (g *Geometry) ClientRedoBase(cid int) Addr {
	return g.ClientStateBase(cid) + ClientOffRedo
}

// EraAddr returns the address of Era[i][j]: the largest era of client j seen
// by client i (Era[i][i] is i's own current era). Row i lives in client i's
// ClientLocalState and is written only by client i (paper Figure 4(a)).
func (g *Geometry) EraAddr(i, j int) Addr {
	return g.ClientStateBase(i) + clientFixedWords + Addr(j)
}

// --- Queue registry ---

// QueueRegAddr returns the address of registry slot i (holds the block
// address of a live transfer queue, or 0).
func (g *Geometry) QueueRegAddr(i int) Addr { return g.QueueRegBase + Addr(i) }

// RootDirAddr returns the address of named-root slot i. Each slot is a
// counted reference word (single-writer: whoever publishes/unpublishes).
func (g *Geometry) RootDirAddr(i int) Addr { return g.RootDirBase + Addr(i) }

// --- Segments, pages, blocks ---

// SegmentBase returns the base address of segment i.
func (g *Geometry) SegmentBase(i int) Addr {
	return g.SegmentsBase + Addr(i)<<(g.segShift&63)
}

// SegmentIndexOf maps an address inside the segments area to its segment
// index, or -1 for addresses outside it.
func (g *Geometry) SegmentIndexOf(a Addr) int {
	if a < g.SegmentsBase || a >= g.TelemetryBase {
		return -1
	}
	return int((a - g.SegmentsBase) >> (g.segShift & 63))
}

// SegNextPageAddr returns the address of segment i's next-unclaimed-page
// counter (owner-only).
func (g *Geometry) SegNextPageAddr(i int) Addr { return g.SegmentBase(i) }

// PageMetaAddr returns the address of page p's meta area in segment s.
func (g *Geometry) PageMetaAddr(s, p int) Addr {
	return g.SegmentBase(s) + 2 + Addr(PageMetaWords*p)
}

// PageBase returns the base address of page p in segment s.
func (g *Geometry) PageBase(s, p int) Addr {
	return g.SegmentBase(s) + Addr(g.SegHeaderWords) + Addr(p)<<(g.pageShift&63)
}

// PageIndexOf maps an address inside segment s to a page index, or -1 if it
// falls in the segment header.
func (g *Geometry) PageIndexOf(s int, a Addr) int {
	off := a - g.SegmentBase(s)
	if off < Addr(g.SegHeaderWords) {
		return -1
	}
	p := int((off - Addr(g.SegHeaderWords)) >> (g.pageShift & 63))
	if p >= g.PagesPerSegment {
		return -1
	}
	return p
}

// BlocksPerPage returns how many blocks of class c fit in one page.
func (g *Geometry) BlocksPerPage(c SizeClass) int {
	return int(g.PageWords / c.BlockWords)
}

// RootRefsPerPage returns how many RootRef slots fit in one RootRef page.
func (g *Geometry) RootRefsPerPage() int { return int(g.PageWords / RootRefWords) }
