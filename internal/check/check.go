// Package check validates a quiescent CXL-SHM pool against the three
// failure classes the paper's fault-injection study looks for (§6.2.2):
// leaked memory, double frees, and wild pointers — and, since the
// corruption campaign, repairs what it finds (repair.go).
//
// The validator recomputes every object's expected reference count from
// first principles — RootRef slots, embedded references (which include
// queue slots) — and compares it with the count stored in each header. It
// also audits allocator structures: free-list membership, page accounting,
// segment states, the superblock itself. A free block on no list is lost
// unless its freeer is alive (deferred publication's pending tier) or its
// segment's owner is gone (shm.Pool.SegGoneWord: reclaimed by refcount
// alone, never allocated from again); every other invariant binds everywhere.
//
// The validator must survive arbitrary metadata damage: every load is
// bounds-checked (corrupt pointers and counts otherwise walk off the pool
// and panic the device), and blocks/pages the repairing fsck has
// quarantined are excluded from reference accounting instead of drowning
// the report in expected noise.
//
// The pool must be quiescent (no client mid-operation, recovery completed);
// validation of a running pool reports spurious issues by design.
package check

import (
	"fmt"

	"repro/internal/layout"
	"repro/internal/shm"
)

// IssueKind classifies a validation failure.
type IssueKind string

// Issue kinds.
const (
	Leak          IssueKind = "leak"           // allocated object with more counted refs than actual references
	WildPointer   IssueKind = "wild-pointer"   // reference to a non-allocated block
	DoubleFree    IssueKind = "double-free"    // block present on multiple free lists
	UnderCount    IssueKind = "under-count"    // fewer counted refs than actual references
	StuckReclaim  IssueKind = "stuck-reclaim"  // refcount-zero object never reclaimed
	LostFreeBlock IssueKind = "lost-free"      // free-marked block on no list
	BadStructure  IssueKind = "bad-structure"  // corrupt allocator metadata
	QueueCorrupt  IssueKind = "queue-corrupt"  // queue indices/registry inconsistent
	EraMatrix     IssueKind = "era-matrix"     // observed era exceeds the owner's own era
	StaleRedo     IssueKind = "stale-redo"     // valid redo entry on a recovered/free client slot
	StaleLease    IssueKind = "stale-lease"    // slot-lease generation parity disagrees with the status word
	BadSuperblock IssueKind = "bad-superblock" // superblock word disagrees with the attached geometry
)

// Issue is one validation failure.
type Issue struct {
	Kind   IssueKind
	Addr   layout.Addr
	Detail string
}

func (i Issue) String() string { return fmt.Sprintf("%s @%#x: %s", i.Kind, i.Addr, i.Detail) }

// Result summarizes a validation pass.
type Result struct {
	Issues []Issue

	AllocatedObjects int
	FreeBlocks       int
	RootRefsInUse    int
	SegmentsActive   int
	SegmentsFree     int
	SegmentsOther    int
	Queues           int

	// QuarantinedBlocks/QuarantinedPages count areas the repairing fsck has
	// written off; they are excluded from AllocatedObjects and from the
	// reference crosscheck. RefsIntoQuarantine counts live references that
	// lead into quarantined territory (reported, not issues: the data behind
	// them is lost, the references themselves are not wild).
	QuarantinedBlocks  int
	QuarantinedPages   int
	RefsIntoQuarantine int
}

// Clean reports whether validation found no issues.
func (r *Result) Clean() bool { return len(r.Issues) == 0 }

func (r *Result) add(kind IssueKind, addr layout.Addr, format string, args ...any) {
	r.Issues = append(r.Issues, Issue{Kind: kind, Addr: addr, Detail: fmt.Sprintf(format, args...)})
}

// Validate audits the whole pool.
func Validate(p *shm.Pool) *Result {
	res, _ := validate(p)
	return res
}

// validate runs the audit and also returns the validator itself, whose
// walk state (expected counts, referrer sites, quarantine map) the repair
// pass reuses.
func validate(p *shm.Pool) (*Result, *validator) {
	v := &validator{
		p:        p,
		geo:      p.Geometry(),
		words:    p.Geometry().TotalWords,
		res:      &Result{},
		expected: make(map[layout.Addr]int),
		alloc:    make(map[layout.Addr]layout.Header),
		free:     make(map[layout.Addr]int),
		refs:     make(map[layout.Addr][]layout.Addr),
		quarB:    make(map[layout.Addr]bool),
	}
	v.hints.freeLists = make(map[int]bool)
	v.hints.eraRaise = make(map[int]uint64)
	v.checkSuperblock()
	v.checkTelemetry()
	v.walkNamedRoots()
	v.walkSegments()
	v.crossCheck()
	v.checkQueues()
	v.checkEraMatrix()
	v.checkClientSlots()
	v.checkSlotLeases()
	return v.res, v
}

type validator struct {
	p     *shm.Pool
	geo   *layout.Geometry
	words uint64
	res   *Result

	// expected counts references found pointing at each block.
	expected map[layout.Addr]int
	// alloc maps allocated block -> header.
	alloc map[layout.Addr]layout.Header
	// free maps free block -> number of free-list memberships.
	free map[layout.Addr]int
	// refs maps referenced block -> addresses of the words referencing it
	// (named-root slots, RootRef pptr words, embed words) — the sites the
	// repair pass severs when the target is unsalvageable.
	refs map[layout.Addr][]layout.Addr
	// queues lists allocated blocks flagged MetaQueue, for the queue fsck.
	queues []queueRec
	// quarB marks quarantined blocks; quarP holds quarantined page ranges.
	quarB map[layout.Addr]bool
	quarP []addrRange

	// hints are the typed counterparts of structural issues — what repair.go
	// acts on, so it never has to parse issue strings back apart.
	hints hints

	oob int // out-of-pool loads observed (reported once)
}

// hints records structural damage in machine-usable form, populated by the
// same walks that report the issues.
type hints struct {
	superblock bool           // superblock words disagree with the geometry
	telemetry  bool           // telemetry region header damaged
	segUnknown []int          // segments in an unknown state
	numPages   []int          // segments whose next-page counter over-claims
	freeLists  map[int]bool   // segments whose free lists need a rebuild
	pages      []pageHint     // pages with unrepairable-in-place metadata
	bumpPages  []pageHint     // pages whose bump pointer left the page
	blockMeta  []metaHint     // blocks whose meta word disagrees with its page
	hugeSpan   []hugeHint     // huge heads whose BlockWords disagrees with the run
	lostFree   []lostHint     // free blocks on no list
	queues     []queueHint    // queue-specific damage
	eraRaise   map[int]uint64 // client -> highest era observed of it (on violation)
	staleRedo  []int          // settled clients with valid redo entries
	badStatus  []int          // clients with unknown status words
	badClaim   []int          // clients whose recovery claim names no client slot
	staleLease []int          // clients whose lease generation parity disagrees with status
}

type pageHint struct{ seg, pg int }

type metaHint struct {
	block layout.Addr
	meta  layout.Meta // the corrected meta word to write
}

type hugeHint struct {
	head int
	run  int // segments in the run the segment vector asserts
}

type lostHint struct {
	block   layout.Addr
	seg, pg int
}

type queueHint struct {
	block    layout.Addr
	capacity int
	// unfit: capacity impossible for the block (quarantine candidate);
	// badWindow: head/tail need clamping; badReg: registry backref broken.
	unfit, badWindow, badReg bool
}

type addrRange struct{ lo, hi layout.Addr }

type queueRec struct {
	block layout.Addr
	meta  layout.Meta
	// dataWords is the block's usable data area (class or huge-run size
	// minus the two metadata words); the queue needs capacity+3 of them.
	dataWords uint64
}

// load is the bounds-checked device read every walk goes through: corrupt
// metadata yields arbitrary addresses, and an unchecked load past the pool
// end panics the device. Out-of-pool reads return 0 and are reported once.
func (v *validator) load(a layout.Addr) uint64 {
	if uint64(a) >= v.words {
		if v.oob == 0 {
			v.res.add(BadStructure, a, "metadata led outside the pool (%d words)", v.words)
		}
		v.oob++
		return 0
	}
	return v.p.Device().Load(a)
}

// clientAlive reports whether cid names a currently-live client. Deferred
// metadata publication (the shm shadow's pending tier) makes free-marked
// blocks "on no list" the expected steady state while their freeer lives:
// the freeer either publishes them at its next epoch boundary, or dies — at
// which point its status leaves ClientAlive, the gate stops excusing, and
// a live owner's segment-local scan is responsible for re-linking them.
func (v *validator) clientAlive(cid int) bool {
	if cid < 1 || cid > v.geo.MaxClients {
		return false
	}
	return v.load(v.geo.ClientStatusAddr(cid)) == layout.ClientAlive
}

// inQuarantine reports whether a points at (or into) quarantined territory.
func (v *validator) inQuarantine(a layout.Addr) bool {
	if v.quarB[a] {
		return true
	}
	for _, r := range v.quarP {
		if a >= r.lo && a < r.hi {
			return true
		}
	}
	return false
}

// checkSuperblock audits the formatted superblock words against the
// geometry this pool was attached with. A live pool keeps working off its
// cached Geometry when these words are damaged — but the next attach would
// fail or, worse, mis-derive the layout, so damage here is a first-class
// issue (and trivially repairable: the attached geometry is the truth).
func (v *validator) checkSuperblock() {
	want := map[layout.Addr]uint64{
		layout.SuperOffMagic:      layout.PoolMagic,
		layout.SuperOffSegWords:   v.geo.SegmentWords,
		layout.SuperOffPageWords:  v.geo.PageWords,
		layout.SuperOffNumSegs:    uint64(v.geo.NumSegments),
		layout.SuperOffMaxClients: uint64(v.geo.MaxClients),
		layout.SuperOffMaxQueues:  uint64(v.geo.MaxQueues),
		layout.SuperOffVersion:    layout.LayoutVersion,
	}
	for a, w := range want {
		if got := v.load(a); got != w {
			v.res.add(BadSuperblock, a, "superblock word %d holds %#x, geometry says %#x", a, got, w)
			v.hints.superblock = true
		}
	}
}

// checkTelemetry audits the telemetry region header. Metric slots, timelines
// and ring records tolerate arbitrary garbage record-by-record, but a
// damaged header makes every reader refuse the whole region.
func (v *validator) checkTelemetry() {
	if err := v.p.Telemetry().Validate(); err != nil {
		v.res.add(BadStructure, v.geo.TelemetryBase, "telemetry region header: %v", err)
		v.hints.telemetry = true
	}
}

func (v *validator) walkNamedRoots() {
	for i := 0; i < layout.MaxNamedRoots; i++ {
		a := v.geo.RootDirAddr(i)
		if t := v.load(a); t != 0 {
			v.expected[t]++
			v.refs[t] = append(v.refs[t], a)
		}
	}
}

func (v *validator) walkSegments() {
	for seg := 0; seg < v.geo.NumSegments; seg++ {
		st := layout.UnpackSegState(v.load(v.geo.SegStateAddr(seg)))
		switch st.State {
		case layout.SegFree:
			v.res.SegmentsFree++
		case layout.SegActive:
			v.res.SegmentsActive++
			v.walkPagedSegment(seg)
		case layout.SegAbandoned:
			v.res.SegmentsOther++
			v.walkPagedSegment(seg)
		case layout.SegHugeHead:
			v.res.SegmentsOther++
			v.walkHuge(seg, st)
		case layout.SegHugeBody:
			v.res.SegmentsOther++
		default:
			v.res.add(BadStructure, v.geo.SegStateAddr(seg),
				"segment %d in unknown state %d", seg, st.State)
			v.hints.segUnknown = append(v.hints.segUnknown, seg)
		}
	}
}

// hugeRunSegments counts the head plus the consecutive body segments that
// follow it — the span the segment vector itself asserts for a huge object,
// against which the head's BlockWords is validated (and from which repair
// reconstructs it).
func (v *validator) hugeRunSegments(head int) int {
	n := 1
	for s := head + 1; s < v.geo.NumSegments; s++ {
		st := layout.UnpackSegState(v.load(v.geo.SegStateAddr(s)))
		if st.State != layout.SegHugeBody {
			break
		}
		n++
	}
	return n
}

func (v *validator) walkHuge(seg int, st layout.SegState) {
	block := v.geo.SegmentBase(seg)
	hdr := layout.UnpackHeader(v.load(block + layout.HeaderOff))
	m := layout.UnpackMeta(v.load(block + layout.MetaOff))
	if m.Quarantined() {
		v.res.QuarantinedBlocks++
		v.quarB[block] = true
		run := v.hugeRunSegments(seg)
		v.quarP = append(v.quarP, addrRange{block, v.geo.SegmentBase(seg) + layout.Addr(uint64(run)*v.geo.SegmentWords)})
		return
	}
	if !m.Allocated() {
		v.res.add(BadStructure, block, "huge head segment %d without allocated meta", seg)
		run := v.hugeRunSegments(seg)
		v.hints.blockMeta = append(v.hints.blockMeta, metaHint{
			block: block,
			meta:  layout.Meta{Flags: layout.MetaAllocated, BlockWords: uint64(run) * v.geo.SegmentWords},
		})
		return
	}
	run := v.hugeRunSegments(seg)
	span := uint64(run) * v.geo.SegmentWords
	if m.BlockWords > span || m.BlockWords <= span-v.geo.SegmentWords {
		v.res.add(BadStructure, block,
			"huge head segment %d claims %d words, its %d-segment run holds %d",
			seg, m.BlockWords, run, span)
		v.hints.hugeSpan = append(v.hints.hugeSpan, hugeHint{head: seg, run: run})
	}
	v.alloc[block] = hdr
	v.res.AllocatedObjects++
	dataWords := span - layout.BlockHeaderWords
	if m.Flags&layout.MetaQueue != 0 {
		v.queues = append(v.queues, queueRec{block, m, dataWords})
	}
	v.recordEmbeds(block, m, dataWords)
}

func (v *validator) walkPagedSegment(seg int) {
	numPages := int(v.load(v.geo.SegNextPageAddr(seg)))
	if numPages > v.geo.PagesPerSegment {
		v.res.add(BadStructure, v.geo.SegNextPageAddr(seg),
			"segment %d claims %d pages (max %d)", seg, numPages, v.geo.PagesPerSegment)
		v.hints.numPages = append(v.hints.numPages, seg)
		numPages = v.geo.PagesPerSegment
	}

	// Free-list membership, per page and segment-wide client_free. Every
	// node must lie inside its page's bumped region and on a block boundary;
	// a wild node means the list itself is corrupt, so the walk stops there
	// rather than chase an arbitrary pointer chain through the pool.
	for pg := 0; pg < numPages; pg++ {
		metaA := v.geo.PageMetaAddr(seg, pg)
		info := layout.UnpackPageMeta(v.load(metaA + pmInfo))
		if info.Kind == layout.PageKindQuarantined {
			continue
		}
		base := v.geo.PageBase(seg, pg)
		scanPos := layout.Addr(v.load(metaA + pmScan))
		stride := layout.Addr(layout.RootRefWords)
		if info.Kind == layout.PageKindNormal {
			if int(info.SizeClass) >= len(v.geo.Classes) {
				continue // reported by the block walk below
			}
			stride = layout.Addr(v.geo.Classes[info.SizeClass].BlockWords)
		}
		nextOff := layout.Addr(layout.DataOff)
		if info.Kind == layout.PageKindRootRef {
			nextOff = layout.RootRefPptrOff
		}
		seen := 0
		for b := v.load(metaA + pmFree); b != 0; b = v.load(b + nextOff) {
			if b < base || b >= scanPos || (b-base)%stride != 0 {
				v.res.add(BadStructure, layout.Addr(b),
					"free-list node of %d/%d outside page or misaligned", seg, pg)
				v.hints.freeLists[seg] = true
				break
			}
			v.free[b]++
			seen++
			if seen > int(v.geo.PageWords) {
				v.res.add(BadStructure, metaA, "free list of %d/%d does not terminate", seg, pg)
				v.hints.freeLists[seg] = true
				break
			}
		}
	}
	segBase := v.geo.SegmentBase(seg)
	segEnd := segBase + layout.Addr(v.geo.SegmentWords)
	seen := 0
	for b := v.load(v.geo.SegClientFreeAddr(seg)); b != 0; b = v.load(b + layout.DataOff) {
		if b < segBase || b >= segEnd {
			v.res.add(BadStructure, layout.Addr(b),
				"client_free node outside segment %d", seg)
			v.hints.freeLists[seg] = true
			break
		}
		v.free[b]++
		seen++
		if seen > int(v.geo.SegmentWords) {
			v.res.add(BadStructure, v.geo.SegClientFreeAddr(seg),
				"client_free list of segment %d does not terminate", seg)
			v.hints.freeLists[seg] = true
			break
		}
	}

	ownerGone := v.p.SegGoneWord(seg) != 0
	for pg := 0; pg < numPages; pg++ {
		metaA := v.geo.PageMetaAddr(seg, pg)
		info := layout.UnpackPageMeta(v.load(metaA + pmInfo))
		base := v.geo.PageBase(seg, pg)
		end := base + layout.Addr(v.geo.PageWords)
		scanPos := v.load(metaA + pmScan)
		if info.Kind == layout.PageKindQuarantined {
			v.res.QuarantinedPages++
			v.quarP = append(v.quarP, addrRange{base, end})
			continue
		}
		if scanPos < uint64(base) || scanPos > uint64(end) {
			v.res.add(BadStructure, metaA, "page %d/%d bump pointer %#x outside page", seg, pg, scanPos)
			v.hints.bumpPages = append(v.hints.bumpPages, pageHint{seg, pg})
			continue
		}
		switch info.Kind {
		case layout.PageKindUnused:
		case layout.PageKindRootRef:
			for slot := base; slot+layout.RootRefWords <= layout.Addr(scanPos); slot += layout.RootRefWords {
				// A cleared slot on no list is at rest: a live owner's
				// unpublished free, or in a segment whose owner is gone.
				inUse, _ := layout.UnpackRootRef(v.load(slot))
				if !inUse {
					continue
				}
				v.res.RootRefsInUse++
				if v.free[slot] > 0 {
					v.res.add(DoubleFree, slot, "in-use RootRef slot also on a free list")
					v.hints.freeLists[seg] = true
				}
				if pptr := v.load(slot + layout.RootRefPptrOff); pptr != 0 {
					v.expected[pptr]++
					v.refs[pptr] = append(v.refs[pptr], slot+layout.RootRefPptrOff)
				}
			}
		case layout.PageKindNormal:
			if int(info.SizeClass) >= len(v.geo.Classes) {
				v.res.add(BadStructure, metaA, "page %d/%d has bad size class %d", seg, pg, info.SizeClass)
				v.hints.pages = append(v.hints.pages, pageHint{seg, pg})
				continue
			}
			bw := layout.Addr(v.geo.Classes[info.SizeClass].BlockWords)
			for b := base; b+bw <= layout.Addr(scanPos); b += bw {
				m := layout.UnpackMeta(v.load(b + layout.MetaOff))
				if m.Quarantined() {
					v.res.QuarantinedBlocks++
					v.quarB[b] = true
					if v.free[b] > 0 {
						v.res.add(BadStructure, b, "quarantined block reachable from a free list")
						v.hints.freeLists[seg] = true
					}
					continue
				}
				if m.Allocated() {
					hdr := layout.UnpackHeader(v.load(b + layout.HeaderOff))
					v.alloc[b] = hdr
					v.res.AllocatedObjects++
					if v.free[b] > 0 {
						v.res.add(DoubleFree, b, "allocated block also on a free list")
						v.hints.freeLists[seg] = true
					}
					if m.BlockWords != uint64(bw) {
						v.res.add(BadStructure, b+layout.MetaOff,
							"block claims %d words on a class-%d page (%d/%d, class holds %d)",
							m.BlockWords, info.SizeClass, seg, pg, bw)
						fixed := m
						fixed.BlockWords = uint64(bw)
						v.hints.blockMeta = append(v.hints.blockMeta, metaHint{b, fixed})
					}
					if m.Flags&layout.MetaQueue != 0 {
						v.queues = append(v.queues, queueRec{b, m, uint64(bw) - layout.BlockHeaderWords})
					}
					v.recordEmbeds(b, m, uint64(bw)-layout.BlockHeaderWords)
				} else {
					v.res.FreeBlocks++
					switch v.free[b] {
					case 0:
						// The meta embed field records the freeer; a live
						// freeer holds the block on its pending tier. Where
						// the owner is gone, frees push nothing: at rest.
						if v.clientAlive(int(m.EmbedCnt)) || ownerGone {
							break
						}
						v.res.add(LostFreeBlock, b, "free block on no list (%d/%d)", seg, pg)
						v.hints.lostFree = append(v.hints.lostFree, lostHint{b, seg, pg})
					case 1:
						// fine
					default:
						v.res.add(DoubleFree, b, "block on %d free lists", v.free[b])
						v.hints.freeLists[seg] = true
					}
				}
			}
		default:
			v.res.add(BadStructure, metaA, "page %d/%d has unknown kind %d", seg, pg, info.Kind)
			v.hints.pages = append(v.hints.pages, pageHint{seg, pg})
		}
	}
}

// recordEmbeds counts the block's embedded references. dataWords bounds the
// walk: a corrupt EmbedCnt must not turn neighbouring blocks' data — or
// words past the pool end — into phantom references.
func (v *validator) recordEmbeds(b layout.Addr, m layout.Meta, dataWords uint64) {
	n := uint64(m.EmbedCnt)
	if n > dataWords {
		v.res.add(BadStructure, b+layout.MetaOff,
			"block claims %d embedded references in %d data words", n, dataWords)
		n = dataWords
		fixed := m
		fixed.EmbedCnt = uint16(n)
		v.hints.blockMeta = append(v.hints.blockMeta, metaHint{b, fixed})
	}
	for i := uint64(0); i < n; i++ {
		a := b + layout.DataOff + layout.Addr(i)
		if t := v.load(a); t != 0 {
			v.expected[t]++
			v.refs[t] = append(v.refs[t], a)
		}
	}
}

// crossCheck compares counted versus actual references.
func (v *validator) crossCheck() {
	for b, hdr := range v.alloc {
		exp := v.expected[b]
		switch {
		case int(hdr.RefCnt) == exp && exp == 0:
			v.res.add(StuckReclaim, b, "allocated with zero references and zero count (never reclaimed)")
		case int(hdr.RefCnt) > exp:
			v.res.add(Leak, b, "ref_cnt=%d but only %d references found", hdr.RefCnt, exp)
		case int(hdr.RefCnt) < exp:
			v.res.add(UnderCount, b, "ref_cnt=%d but %d references found", hdr.RefCnt, exp)
		}
	}
	// Every reference must point at an allocated block. References into
	// quarantined territory are a lost-data statistic, not wild pointers —
	// repair leaves them for the owners to discover.
	for t, n := range v.expected {
		if _, ok := v.alloc[t]; ok {
			continue
		}
		if v.inQuarantine(t) {
			v.res.RefsIntoQuarantine += n
			continue
		}
		v.res.add(WildPointer, t, "%d reference(s) to a non-allocated block", n)
	}
}

// checkQueues audits every allocated block flagged as a transfer queue: the
// declared capacity must fit the block, the index words must describe a
// window no larger than the capacity, and the registry entry the queue
// claims must point back at it (§5.2 — the registry is how recovery and
// late receivers discover queues, so a broken backref orphans the queue
// from the sweep).
func (v *validator) checkQueues() {
	for _, q := range v.queues {
		v.res.Queues++
		capacity := int(q.meta.EmbedCnt)
		if capacity < 1 {
			v.res.add(QueueCorrupt, q.block, "queue with zero capacity")
			v.hints.queues = append(v.hints.queues, queueHint{block: q.block, capacity: capacity, unfit: true})
			continue
		}
		if uint64(capacity)+3 > q.dataWords {
			v.res.add(QueueCorrupt, q.block,
				"queue capacity %d plus indices does not fit %d data words", capacity, q.dataWords)
			v.hints.queues = append(v.hints.queues, queueHint{block: q.block, capacity: capacity, unfit: true})
			continue
		}
		h := queueHint{block: q.block, capacity: capacity}
		infoA := q.block + layout.DataOff + layout.Addr(capacity)
		head := v.load(infoA + 1)
		tail := v.load(infoA + 2)
		if head > tail {
			v.res.add(QueueCorrupt, q.block, "head %d ahead of tail %d", head, tail)
			h.badWindow = true
		} else if tail-head > uint64(capacity) {
			v.res.add(QueueCorrupt, q.block,
				"%d in flight exceeds capacity %d", tail-head, capacity)
			h.badWindow = true
		}
		reg := int(uint32(v.load(infoA) >> 32))
		if reg < 0 || reg >= v.geo.MaxQueues {
			v.res.add(QueueCorrupt, q.block, "registry index %d out of range", reg)
			h.badReg = true
		} else if got := v.load(v.geo.QueueRegAddr(reg)); got != uint64(q.block) {
			v.res.add(QueueCorrupt, q.block,
				"registry slot %d holds %#x, not this queue", reg, got)
			h.badReg = true
		}
		if h.badWindow || h.badReg {
			v.hints.queues = append(v.hints.queues, h)
		}
	}
}

// checkEraMatrix verifies the §4.3 observation invariant: no client can have
// seen an era of client i beyond the era client i itself has published
// (Era[j][i] <= Era[i][i]) — a violation would let recovery's Condition 2
// "prove" commits that never happened. Every matrix word holds a whole 64-bit
// era, which never wraps, so the words compare as they are.
func (v *validator) checkEraMatrix() {
	for i := 1; i <= v.geo.MaxClients; i++ {
		own := v.load(v.geo.EraAddr(i, i))
		for j := 1; j <= v.geo.MaxClients; j++ {
			if j == i {
				continue
			}
			if seen := v.load(v.geo.EraAddr(j, i)); seen > own {
				v.res.add(EraMatrix, v.geo.EraAddr(j, i),
					"client %d saw era %d of client %d, who only published %d",
					j, seen, i, own)
				if seen > v.hints.eraRaise[i] {
					v.hints.eraRaise[i] = seen
				}
			}
		}
	}
}

// checkClientSlots verifies client-slot hygiene: the status word holds a
// known state, a held recovery claim names a client slot as its holder, and
// no recovered or free slot still carries a valid redo entry — recovery must
// invalidate the redo before announcing RECOVERED, or the slot's next
// incarnation inherits a transaction it never ran.
func (v *validator) checkClientSlots() {
	for cid := 1; cid <= v.geo.MaxClients; cid++ {
		if w := v.load(v.geo.ClientClaimAddr(cid)); w != 0 {
			if holder, _ := layout.UnpackLease(w); holder < 1 || holder > v.geo.MaxClients {
				v.res.add(BadStructure, v.geo.ClientClaimAddr(cid),
					"client %d recovery claim %#x names holder %d, not a client slot", cid, w, holder)
				v.hints.badClaim = append(v.hints.badClaim, cid)
			}
		}
		a := v.geo.ClientStatusAddr(cid)
		status := v.load(a)
		switch status {
		case layout.ClientSlotFree, layout.ClientAlive, layout.ClientDead, layout.ClientRecovered:
		default:
			v.res.add(BadStructure, a, "client %d status word is %d", cid, status)
			v.hints.badStatus = append(v.hints.badStatus, cid)
			continue
		}
		if _, ok := v.p.ReadRedo(cid); ok {
			if status == layout.ClientRecovered || status == layout.ClientSlotFree {
				v.res.add(StaleRedo, v.geo.ClientRedoBase(cid),
					"client %d is settled (status %d) but holds a valid redo entry", cid, status)
				v.hints.staleRedo = append(v.hints.staleRedo, cid)
			}
		}
	}
}

// checkSlotLeases verifies the slot-lease invariant (internal/shm's
// slotlease.go): the per-slot generation word's parity matches the status
// word — ALIVE/DEAD carry an odd (leased) generation, FREE/RECOVERED an even
// (released) one. The free-slot bitmap is not checked: it is an accelerator
// that Connect heals, and the status word alone decides a lease. Only valid
// against a quiescent pool: a Connect or a recovery in flight legitimately
// holds the intermediate states.
func (v *validator) checkSlotLeases() {
	for cid := 1; cid <= v.geo.MaxClients; cid++ {
		status := v.load(v.geo.ClientStatusAddr(cid))
		var wantOdd bool
		switch status {
		case layout.ClientAlive, layout.ClientDead:
			wantOdd = true
		case layout.ClientSlotFree, layout.ClientRecovered:
			wantOdd = false
		default:
			continue // unknown status already reported by checkClientSlots
		}
		if gen := v.load(v.geo.SlotGenAddr(cid)); (gen&1 == 1) != wantOdd {
			v.res.add(StaleLease, v.geo.SlotGenAddr(cid),
				"client %d lease generation %d (parity %d) disagrees with status %d",
				cid, gen, gen&1, status)
			v.hints.staleLease = append(v.hints.staleLease, cid)
		}
	}
}

// Page meta word offsets (mirrors internal/shm's layout of the 3-word page
// meta area).
const (
	pmInfo = 0
	pmFree = 1
	pmScan = 2
)
