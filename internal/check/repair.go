// repair.go grows the validator into a repairing fsck (the corruption
// campaign's second half): reconstruct what the geometry and surviving
// metadata prove, reap what recovery machinery can reclaim, and quarantine
// what nothing can prove — never abort, never leave an issue silently
// unaccounted.
//
// Repair is organised as rounds of validate-then-fix. Each round first
// applies the validator's typed structural hints (superblock rewrite,
// free-list rebuilds, metadata reconstruction...); structural fixes shift
// the ground under the reference crosscheck, so the pool is revalidated
// before any accounting repair runs. When a round finds issues but can
// apply neither a structural nor an accounting fix, the remaining damage
// is escalated: the containing block or page is quarantined, which removes
// it — and the references into it — from the invariant space at the cost
// of declaring its payload lost. The loop therefore converges: every round
// either shrinks the issue set, rewrites toward the geometry's fixed
// point, or quarantines something sticky.
package check

import (
	"fmt"

	"repro/internal/layout"
	"repro/internal/obs"
	"repro/internal/shm"
)

// maxRepairRounds bounds the validate/fix loop. Compound damage can need a
// few rounds (a resurrected block surfaces a double-free that needs a list
// rebuild that surfaces ...), but every round makes monotone progress, so
// a pool that is not clean by round 8 has damage the escalation path is
// failing to quarantine — better reported than spun on.
const maxRepairRounds = 8

// RepairConfig parameterises a repair pass.
type RepairConfig struct {
	// Exec is the client used for segment scans (reaping leaked blocks
	// rides the same scan machinery recovery uses). When nil, Repair
	// connects a client itself and closes it on return; if no client slot
	// is free, scan-based reaping degrades to quarantine.
	Exec *shm.Client
	// Recover, when set, is invoked for clients the fsck had to declare
	// dead (unknown status word), so full client recovery — redo replay,
	// RootRef sweep — runs instead of leaving the slot parked at DEAD.
	Recover func(cid int) error
	// Log, when set, receives human-readable progress lines.
	Log func(format string, args ...any)
}

// RepairAction is one mutation the fsck applied.
type RepairAction struct {
	Kind   string // e.g. "superblock-rewrite", "freelist-rebuild", "quarantine-block"
	Addr   layout.Addr
	Detail string
}

func (a RepairAction) String() string {
	return fmt.Sprintf("%s @%#x: %s", a.Kind, a.Addr, a.Detail)
}

// BlastRadius quantifies what one repair pass touched and what it could
// not save — the per-fault cost the resilience campaign aggregates.
type BlastRadius struct {
	// WordsRewritten counts device words the fsck stored.
	WordsRewritten int
	// ObjectsRepaired counts allocated objects whose metadata was
	// reconstructed in place (headers rewritten, resurrections, queue
	// windows clamped).
	ObjectsRepaired int
	// ObjectsQuarantined / PagesQuarantined count areas written off.
	ObjectsQuarantined int
	PagesQuarantined   int
	// ObjectsLost counts unreachable-damage casualties: objects whose
	// references had to be severed because nothing provable remained.
	ObjectsLost int
	// RefsSevered counts reference words zeroed while cutting objects loose.
	RefsSevered int
	// ClientsAffected lists client IDs whose slots the fsck touched
	// (cleared redo, forced status, raised eras).
	ClientsAffected []int
}

// RepairReport is the structured outcome of one Repair call.
type RepairReport struct {
	// Pre is the validation result that drove the repair; Post is the
	// state after the final round.
	Pre, Post *Result
	// Rounds counts validate/fix iterations executed.
	Rounds int
	// Actions lists every mutation, in application order.
	Actions []RepairAction
	// Blast aggregates the damage accounting.
	Blast BlastRadius
	// Repaired reports whether the pool validated clean (modulo
	// quarantined areas, which Post counts separately) after repair.
	Repaired bool
}

// Repair runs the repairing fsck over a quiescent pool: validate, apply
// structural then accounting fixes, escalate what resists to quarantine,
// until the pool is clean or the round budget is spent. It never panics on
// metadata damage and never returns nil.
func Repair(p *shm.Pool, cfg RepairConfig) *RepairReport {
	r := &repairer{p: p, geo: p.Geometry(), cfg: cfg, rep: &RepairReport{}}
	if cfg.Exec != nil {
		r.exec = cfg.Exec
	} else if c, err := p.Connect(); err == nil {
		r.exec = c
		defer c.Close()
	} else {
		r.logf("fsck: no exec client (%v): scan-based reaping degraded", err)
	}

	r.reapLeaking()

	clients := map[int]bool{}
	for round := 0; round < maxRepairRounds; round++ {
		res, v := validate(p)
		r.rep.Rounds++
		if round == 0 {
			r.rep.Pre = res
		}
		if res.Clean() {
			break
		}
		r.logf("fsck round %d: %d issue(s)", round, len(res.Issues))
		for _, c := range v.hints.staleRedo {
			clients[c] = true
		}
		for _, c := range v.hints.badStatus {
			clients[c] = true
		}
		for _, c := range v.hints.badClaim {
			clients[c] = true
		}
		for _, c := range v.hints.staleLease {
			clients[c] = true
		}
		for c := range v.hints.eraRaise {
			clients[c] = true
		}
		if n := r.applyHints(v); n > 0 {
			continue
		}
		if n := r.applyAccounting(v); n > 0 {
			continue
		}
		if n := r.escalate(v); n == 0 {
			break
		}
	}
	// With the metadata consistent again, finish what normal recovery
	// could not while it was damaged: clients still marked DEAD (their
	// recovery panicked or the monitor gave up mid-corruption) pin their
	// segments forever otherwise.
	if cfg.Recover != nil {
		err := p.RecoverDeadSlots(func(cid int) error {
			clients[cid] = true
			err := cfg.Recover(cid)
			if err == nil {
				r.act("client-recover", r.geo.ClientStatusAddr(cid),
					"client %d recovery completed post-repair", cid)
			}
			return err
		})
		if err != nil {
			r.logf("fsck: post-repair recovery: %v", err)
		}
	}
	// Segments reconstructed to ABANDONED+POTENTIAL_LEAKING during the
	// rounds still hold their blocks; reap them now so a repaired pool
	// hands its capacity back instead of pinning it until the next scan.
	r.reapLeaking()
	post, _ := validate(p)
	r.rep.Post = post
	r.rep.Repaired = post.Clean()
	for c := range clients {
		r.rep.Blast.ClientsAffected = append(r.rep.Blast.ClientsAffected, c)
	}

	issues := 0
	if r.rep.Pre != nil {
		issues = len(r.rep.Pre.Issues)
	}
	tel := p.Telemetry()
	tel.PoolAdd(obs.CtrFsckPass, uint64(r.rep.Rounds+1))
	tel.PoolAdd(obs.CtrFsckIssues, uint64(issues))
	tel.PoolAdd(obs.CtrRepairAction, uint64(len(r.rep.Actions)))
	tel.PoolAdd(obs.CtrQuarantine, uint64(r.rep.Blast.ObjectsQuarantined+r.rep.Blast.PagesQuarantined))
	if issues > 0 || len(r.rep.Actions) > 0 {
		p.Trace(obs.Event{
			Type: obs.EvRepairApplied,
			A:    uint64(issues),
			B:    uint64(len(r.rep.Actions)),
		})
	}
	return r.rep
}

type repairer struct {
	p    *shm.Pool
	geo  *layout.Geometry
	cfg  RepairConfig
	exec *shm.Client
	rep  *RepairReport
}

func (r *repairer) logf(format string, args ...any) {
	if r.cfg.Log != nil {
		r.cfg.Log(format, args...)
	}
}

// store is the accounted device write every repair goes through.
func (r *repairer) store(a layout.Addr, v uint64) {
	r.p.Device().Store(a, v)
	r.rep.Blast.WordsRewritten++
}

func (r *repairer) act(kind string, a layout.Addr, format string, args ...any) {
	r.rep.Actions = append(r.rep.Actions, RepairAction{kind, a, fmt.Sprintf(format, args...)})
}

// reapLeaking scans every POTENTIAL_LEAKING or abandoned segment through
// the regular recovery machinery before structural repair starts: blocks
// the owner's death leaked are reclaimed by the scan's own logic (which
// understands embeds, DFS release, huge runs) rather than brute-forced by
// the fsck.
func (r *repairer) reapLeaking() {
	if r.exec == nil {
		return
	}
	for seg := 0; seg < r.geo.NumSegments; seg++ {
		st := r.p.SegState(seg)
		leaking := st.Flags&layout.SegFlagPotentialLeaking != 0
		abandoned := st.State == layout.SegAbandoned
		if !leaking && !abandoned {
			continue
		}
		// Only a segment whose recorded owner is provably dead gets the
		// root-sweeping scan; CID 0 (lost to reconstruction) or a live
		// owner gets the conservative scan that honors live references.
		ownerDead := st.CID != 0 && r.p.ClientDeadOrRecovered(int(st.CID))
		rep := r.scanSegment(seg, ownerDead)
		if rep.Reclaimed+rep.Relinked+rep.SweptRoots > 0 {
			r.act("reap-segment", r.geo.SegStateAddr(seg),
				"segment %d: reclaimed %d, relinked %d, swept %d roots",
				seg, rep.Reclaimed, rep.Relinked, rep.SweptRoots)
		}
	}
}

// scanSegment runs a segment-local scan, absorbing panics: the scan is
// production code walking possibly still-damaged metadata, and a failed
// scan must degrade to "no progress", not kill the fsck.
func (r *repairer) scanSegment(seg int, ownerDead bool) (rep shm.ScanReport) {
	if r.exec == nil {
		return
	}
	defer func() {
		if p := recover(); p != nil {
			r.logf("fsck: scan of segment %d panicked: %v", seg, p)
			rep = shm.ScanReport{}
		}
	}()
	return r.exec.ScanSegment(seg, ownerDead)
}

// applyHints applies every typed structural hint from the last validation
// walk and reports how many actions it took. Order matters: metadata is
// fixed before the free lists that thread through it are rebuilt, so the
// rebuild reads repaired state off the device.
func (r *repairer) applyHints(v *validator) int {
	before := len(r.rep.Actions)
	h := &v.hints

	if h.superblock {
		layout.WriteSuperblock(r.p.Device(), r.geo)
		r.rep.Blast.WordsRewritten += 7 // the formatted superblock words
		r.act("superblock-rewrite", 0, "rewrote superblock from attached geometry")
	}
	if h.telemetry {
		r.p.Telemetry().Reformat()
		r.act("telemetry-reformat", r.geo.TelemetryBase, "reformatted telemetry region header")
	}
	for _, seg := range h.segUnknown {
		r.reconstructSegState(seg)
	}
	for _, seg := range h.numPages {
		r.store(r.geo.SegNextPageAddr(seg), uint64(r.geo.PagesPerSegment))
		r.act("numpages-clamp", r.geo.SegNextPageAddr(seg),
			"segment %d page counter clamped to %d", seg, r.geo.PagesPerSegment)
	}
	for _, hint := range h.blockMeta {
		r.store(hint.block+layout.MetaOff, layout.PackMeta(hint.meta))
		r.act("meta-rewrite", hint.block+layout.MetaOff,
			"meta reconstructed: flags=%#x embeds=%d words=%d",
			hint.meta.Flags, hint.meta.EmbedCnt, hint.meta.BlockWords)
		r.rep.Blast.ObjectsRepaired++
	}
	for _, hint := range h.hugeSpan {
		r.repairHugeSpan(hint)
	}
	for _, pg := range h.bumpPages {
		r.clampBumpPointer(pg.seg, pg.pg)
	}
	for _, pg := range h.pages {
		r.quarantinePage(pg.seg, pg.pg)
	}
	for _, q := range h.queues {
		r.repairQueue(q)
	}
	// Free-list rebuilds come last: they re-read page metadata, bump
	// pointers and block metas fresh, so they see this round's fixes.
	for seg := range h.freeLists {
		r.rebuildSegmentFreeLists(seg)
	}
	for _, hint := range h.lostFree {
		// Leave wild-pointer targets for the accounting pass: a referenced
		// "free" block is a resurrection candidate, and relinking it first
		// would hand live data to the allocator.
		if _, allocated := v.alloc[hint.block]; !allocated && v.expected[hint.block] > 0 {
			continue
		}
		if h.freeLists[hint.seg] {
			continue // the rebuild above already relinked the whole segment
		}
		r.relinkLostBlock(hint)
	}
	// An era is a whole 64-bit word that only grows: raising a client's own
	// era to the highest witness of it restores Era[j][i] <= Era[i][i], and
	// the client's next incarnation continues from there.
	for cid, era := range h.eraRaise {
		r.store(r.geo.EraAddr(cid, cid), era)
		r.act("era-raise", r.geo.EraAddr(cid, cid),
			"client %d own era raised to %d (highest observation wins)", cid, era)
	}
	for _, cid := range h.staleRedo {
		r.p.ClearRedo(cid)
		r.act("redo-clear", r.geo.ClientRedoBase(cid), "client %d stale redo entry invalidated", cid)
	}
	for _, cid := range h.badClaim {
		r.store(r.geo.ClientClaimAddr(cid), 0)
		r.act("claim-clear", r.geo.ClientClaimAddr(cid),
			"client %d recovery claim named no client slot: cleared", cid)
	}
	for _, cid := range h.badStatus {
		r.store(r.geo.ClientStatusAddr(cid), layout.ClientDead)
		r.p.Device().FenceClient(cid)
		r.act("client-fence", r.geo.ClientStatusAddr(cid),
			"client %d status unrecognisable: fenced and declared dead", cid)
		if r.cfg.Recover != nil {
			if err := r.cfg.Recover(cid); err != nil {
				r.logf("fsck: recovery of client %d failed: %v", cid, err)
			}
		}
	}
	// Lease repairs run after the status repairs above so they read final
	// status words. The status word is authoritative, so the fix direction
	// is always generation toward status — and the generation only ever
	// moves forward (+1 flips parity without rewinding the lease history).
	for _, cid := range h.staleLease {
		gen := r.p.Device().Load(r.geo.SlotGenAddr(cid))
		r.store(r.geo.SlotGenAddr(cid), gen+1)
		r.act("lease-gen-fix", r.geo.SlotGenAddr(cid),
			"client %d lease generation bumped %d -> %d to match status", cid, gen, gen+1)
	}
	return len(r.rep.Actions) - before
}

// reconstructSegState rebuilds an unrecognisable segment state word from
// what the segment's own contents prove: a huge-flagged allocated meta at
// the base says huge head, a plausible page counter says the segment held
// pages (conservatively abandoned + POTENTIAL_LEAKING, so the scan decides
// its fate), anything else reads as free. The version is bumped past the
// damaged word's so stale segment-claim CASes keep losing.
func (r *repairer) reconstructSegState(seg int) {
	a := r.geo.SegStateAddr(seg)
	old := layout.UnpackSegState(r.p.Device().Load(a))
	base := r.geo.SegmentBase(seg)
	m := layout.UnpackMeta(r.p.Device().Load(base + layout.MetaOff))
	pages := r.p.Device().Load(r.geo.SegNextPageAddr(seg))
	st := layout.SegState{Version: old.Version + 1, State: layout.SegFree}
	switch {
	case m.Allocated() && m.Flags&layout.MetaHuge != 0:
		st.State = layout.SegHugeHead
	case pages >= 1 && pages <= uint64(r.geo.PagesPerSegment):
		st.State = layout.SegAbandoned
		st.Flags = layout.SegFlagPotentialLeaking
	}
	// Keep the damaged word's owner when it still names a real client
	// slot: the reap pass uses it to decide whether root references may be
	// swept, and losing it would make a live owner's objects sweepable.
	if st.State != layout.SegFree && old.CID >= 1 && int(old.CID) <= r.geo.MaxClients {
		st.CID = old.CID
	}
	r.store(a, layout.PackSegState(st))
	r.act("segstate-reconstruct", a, "segment %d state %d -> %d", seg, old.State, st.State)
}

// repairHugeSpan rewrites a huge head's BlockWords from the span its
// segment run actually covers — the segment vector is the stronger
// witness (a bit flip in BlockWords damages one word; forging a run takes
// consistent damage across several).
func (r *repairer) repairHugeSpan(h hugeHint) {
	block := r.geo.SegmentBase(h.head)
	m := layout.UnpackMeta(r.p.Device().Load(block + layout.MetaOff))
	m.BlockWords = uint64(h.run) * r.geo.SegmentWords
	r.store(block+layout.MetaOff, layout.PackMeta(m))
	r.act("hugespan-rewrite", block+layout.MetaOff,
		"huge head %d span rewritten to %d words (%d-segment run)", h.head, m.BlockWords, h.run)
	r.rep.Blast.ObjectsRepaired++
}

// clampBumpPointer forces a page's scan position back inside the page.
// It clamps to the page end (aligned down to the block stride): the
// never-bumped tail reads as zeroed free blocks which the free-list
// rebuild adopts, whereas clamping to the base would erase every
// allocated block on the page from accounting.
func (r *repairer) clampBumpPointer(seg, pg int) {
	metaA := r.geo.PageMetaAddr(seg, pg)
	info := layout.UnpackPageMeta(r.p.Device().Load(metaA + pmInfo))
	base := r.geo.PageBase(seg, pg)
	pos := base
	switch info.Kind {
	case layout.PageKindNormal:
		if int(info.SizeClass) < len(r.geo.Classes) {
			stride := r.geo.Classes[info.SizeClass].BlockWords
			pos = base + layout.Addr(r.geo.PageWords/stride*stride)
		}
	case layout.PageKindRootRef:
		pos = base + layout.Addr(r.geo.PageWords/layout.RootRefWords*layout.RootRefWords)
	}
	r.store(metaA+pmScan, uint64(pos))
	r.act("bump-clamp", metaA+pmScan, "page %d/%d bump pointer clamped to %#x", seg, pg, pos)
}

// quarantinePage writes a page off: unreconstructable kind or size class
// means block boundaries inside it are unknowable, so nothing in it can be
// walked, freed, or handed out again.
func (r *repairer) quarantinePage(seg, pg int) {
	metaA := r.geo.PageMetaAddr(seg, pg)
	r.store(metaA+pmInfo, layout.PackPageMeta(layout.PageMeta{Kind: layout.PageKindQuarantined}))
	r.store(metaA+pmFree, 0)
	r.store(metaA+pmScan, uint64(r.geo.PageBase(seg, pg)))
	r.act("quarantine-page", metaA, "page %d/%d quarantined", seg, pg)
	r.rep.Blast.PagesQuarantined++
}

// quarantineBlock writes one block off: flagged allocated (so no free list
// ever hands it out) plus quarantined (so validators and scans exclude it).
// The queue flag is dropped — a quarantined queue must vanish from the
// registry sweep — and any registry slot still pointing at the block is
// cleared.
func (r *repairer) quarantineBlock(b layout.Addr) {
	m := layout.UnpackMeta(r.p.Device().Load(b + layout.MetaOff))
	wasQueue := m.Flags&layout.MetaQueue != 0
	m.Flags = (m.Flags | layout.MetaAllocated | layout.MetaQuarantined) &^ layout.MetaQueue
	r.store(b+layout.MetaOff, layout.PackMeta(m))
	if wasQueue {
		for i := 0; i < r.geo.MaxQueues; i++ {
			if r.p.Device().Load(r.geo.QueueRegAddr(i)) == uint64(b) {
				r.store(r.geo.QueueRegAddr(i), 0)
			}
		}
	}
	r.act("quarantine-block", b, "block quarantined (queue=%v)", wasQueue)
	r.rep.Blast.ObjectsQuarantined++
}

// repairQueue fixes a damaged transfer queue: impossible capacities
// quarantine the block (the slot array's bounds are unknowable), index
// windows are clamped to emptiness at the newest proven position, and
// broken registry backrefs are relinked to wherever the registry actually
// holds the queue (or a free slot, or — failing both — quarantine).
func (r *repairer) repairQueue(q queueHint) {
	if q.unfit {
		r.quarantineBlock(q.block)
		return
	}
	infoA := q.block + layout.DataOff + layout.Addr(q.capacity)
	if q.badWindow {
		head := r.p.Device().Load(infoA + 1)
		tail := r.p.Device().Load(infoA + 2)
		if head > tail {
			r.store(infoA+1, tail)
			r.act("queue-clamp", q.block, "head %d clamped back to tail %d", head, tail)
		} else {
			r.store(infoA+1, tail-uint64(q.capacity))
			r.act("queue-clamp", q.block,
				"window %d clamped to capacity %d", tail-head, q.capacity)
		}
		r.rep.Blast.ObjectsRepaired++
	}
	if q.badReg {
		info := r.p.Device().Load(infoA)
		slot := -1
		for i := 0; i < r.geo.MaxQueues; i++ {
			if r.p.Device().Load(r.geo.QueueRegAddr(i)) == uint64(q.block) {
				slot = i
				break
			}
		}
		if slot < 0 {
			for i := 0; i < r.geo.MaxQueues; i++ {
				if r.p.Device().Load(r.geo.QueueRegAddr(i)) == 0 {
					slot = i
					r.store(r.geo.QueueRegAddr(i), uint64(q.block))
					break
				}
			}
		}
		if slot < 0 {
			r.quarantineBlock(q.block)
			return
		}
		r.store(infoA, info&0xffffffff|uint64(slot)<<32)
		r.act("queue-relink", q.block, "registry backref repaired to slot %d", slot)
		r.rep.Blast.ObjectsRepaired++
	}
}

// rebuildSegmentFreeLists reconstructs every free list threading a paged
// segment from block metadata alone: the per-page lists are rebuilt by
// walking blocks in reverse (so the list reads in address order) and the
// segment's client_free overflow list — unreconstructable, its nodes are
// indistinguishable from page-list nodes — is cleared into the page lists.
func (r *repairer) rebuildSegmentFreeLists(seg int) {
	r.store(r.geo.SegClientFreeAddr(seg), 0)
	numPages := int(r.p.Device().Load(r.geo.SegNextPageAddr(seg)))
	if numPages > r.geo.PagesPerSegment {
		numPages = r.geo.PagesPerSegment
	}
	for pg := 0; pg < numPages; pg++ {
		metaA := r.geo.PageMetaAddr(seg, pg)
		info := layout.UnpackPageMeta(r.p.Device().Load(metaA + pmInfo))
		base := r.geo.PageBase(seg, pg)
		scanPos := layout.Addr(r.p.Device().Load(metaA + pmScan))
		end := base + layout.Addr(r.geo.PageWords)
		if scanPos < base || scanPos > end {
			continue // bump-clamp hint handles it; rebuild retries next round
		}
		var head uint64
		switch info.Kind {
		case layout.PageKindNormal:
			if int(info.SizeClass) >= len(r.geo.Classes) {
				continue
			}
			bw := layout.Addr(r.geo.Classes[info.SizeClass].BlockWords)
			n := (scanPos - base) / bw
			for i := int(n) - 1; i >= 0; i-- {
				b := base + layout.Addr(i)*bw
				m := layout.UnpackMeta(r.p.Device().Load(b + layout.MetaOff))
				if m.Allocated() || m.Quarantined() {
					continue
				}
				r.store(b+layout.DataOff, head)
				head = uint64(b)
			}
		case layout.PageKindRootRef:
			n := (scanPos - base) / layout.RootRefWords
			for i := int(n) - 1; i >= 0; i-- {
				slot := base + layout.Addr(i)*layout.RootRefWords
				if inUse, _ := layout.UnpackRootRef(r.p.Device().Load(slot)); inUse {
					continue
				}
				r.store(slot+layout.RootRefPptrOff, head)
				head = uint64(slot)
			}
		default:
			continue
		}
		r.store(metaA+pmFree, head)
	}
	r.act("freelist-rebuild", r.geo.SegClientFreeAddr(seg),
		"segment %d free lists rebuilt from block metadata", seg)
}

// relinkLostBlock pushes one orphaned free block back onto its page's free
// list.
func (r *repairer) relinkLostBlock(h lostHint) {
	metaA := r.geo.PageMetaAddr(h.seg, h.pg)
	r.store(h.block+layout.DataOff, r.p.Device().Load(metaA+pmFree))
	r.store(metaA+pmFree, uint64(h.block))
	r.act("relink-lost", h.block, "free block relinked onto page %d/%d list", h.seg, h.pg)
}

// applyAccounting fixes reference-count damage once the structure is
// sound: wild pointers are resolved by resurrection (when the orphaned
// block's own header still agrees with the references pointing at it) or
// severed; mismatched counts are rewritten to the recomputed truth; and
// count-zero objects are reaped through the scan machinery.
func (r *repairer) applyAccounting(v *validator) int {
	before := len(r.rep.Actions)
	rescan := map[int]bool{}

	for _, is := range v.res.Issues {
		switch is.Kind {
		case WildPointer:
			r.repairWild(v, is.Addr)
		case Leak, UnderCount:
			b := is.Addr
			hdr, ok := v.alloc[b]
			if !ok {
				continue
			}
			exp := v.expected[b]
			if exp > layout.MaxRefCount {
				exp = layout.MaxRefCount
			}
			if exp == 0 {
				// Nothing references it any more: zero the whole header so
				// the scan's dead-owner rule reclaims it properly (embeds,
				// DFS release, huge runs).
				r.store(b+layout.HeaderOff, 0)
				r.act("reclaim-mark", b, "ref_cnt %d -> 0, queued for scan reclaim", hdr.RefCnt)
				rescan[r.geo.SegmentIndexOf(b)] = true
			} else {
				hdr.RefCnt = uint16(exp)
				r.store(b+layout.HeaderOff, layout.PackHeader(hdr))
				r.act("refcnt-rewrite", b, "ref_cnt rewritten to %d recounted references", exp)
				r.rep.Blast.ObjectsRepaired++
			}
		case StuckReclaim:
			b := is.Addr
			r.store(b+layout.HeaderOff, 0)
			r.act("reclaim-mark", b, "count-zero object queued for scan reclaim")
			rescan[r.geo.SegmentIndexOf(b)] = true
		}
	}
	for seg := range rescan {
		if r.exec == nil {
			continue // headers are zeroed; escalation quarantines them if scans never run
		}
		r.scanSegment(seg, false)
	}
	return len(r.rep.Actions) - before
}

// repairWild resolves references to a non-allocated block. If the target
// still looks like the object its referrers believe in — block-aligned on
// a typed page, free meta, and a header refcount that equals the number of
// references found — the allocation flag is the only thing missing, and
// the block is resurrected. Anything weaker and the references are
// severed: a wild pointer left standing is the one failure class that
// corrupts *other* objects' data on reuse.
func (r *repairer) repairWild(v *validator, t layout.Addr) {
	if b, ok := r.resurrectable(v, t); ok {
		m := layout.UnpackMeta(r.p.Device().Load(t + layout.MetaOff))
		m.Flags |= layout.MetaAllocated
		m.EmbedCnt = 0
		m.BlockWords = b
		r.store(t+layout.MetaOff, layout.PackMeta(m))
		r.act("resurrect", t, "freed block still matches its %d references: reallocated", v.expected[t])
		r.rep.Blast.ObjectsRepaired++
		return
	}
	for _, site := range v.refs[t] {
		r.store(site, 0)
		r.rep.Blast.RefsSevered++
	}
	r.act("sever-refs", t, "%d dangling reference(s) zeroed", len(v.refs[t]))
	r.rep.Blast.ObjectsLost++
}

// resurrectable reports whether wild-pointer target t can be brought back,
// returning the class block size to restore into its meta.
func (r *repairer) resurrectable(v *validator, t layout.Addr) (uint64, bool) {
	seg := r.geo.SegmentIndexOf(t)
	if seg < 0 || seg >= r.geo.NumSegments {
		return 0, false
	}
	st := r.p.SegState(seg)
	if st.State != layout.SegActive && st.State != layout.SegAbandoned {
		return 0, false
	}
	pg := r.geo.PageIndexOf(seg, t)
	if pg < 0 {
		return 0, false
	}
	info := layout.UnpackPageMeta(r.p.Device().Load(r.geo.PageMetaAddr(seg, pg) + pmInfo))
	if info.Kind != layout.PageKindNormal || int(info.SizeClass) >= len(r.geo.Classes) {
		return 0, false
	}
	bw := r.geo.Classes[info.SizeClass].BlockWords
	base := r.geo.PageBase(seg, pg)
	if (uint64(t)-uint64(base))%bw != 0 {
		return 0, false
	}
	m := layout.UnpackMeta(r.p.Device().Load(t + layout.MetaOff))
	if m.Allocated() || m.Quarantined() {
		return 0, false
	}
	hdr := layout.UnpackHeader(r.p.Device().Load(t + layout.HeaderOff))
	n := len(v.refs[t])
	return bw, n > 0 && int(hdr.RefCnt) == n
}

// escalate quarantines whatever survived both repair passes: each
// remaining issue is mapped to its containing block or page and written
// off. Issues outside segment space (superblock, client slots, eras) have
// deterministic rewrites and should never reach here; when one does,
// escalation reports no progress and the loop gives up loudly rather than
// quarantine infrastructure that cannot be quarantined.
func (r *repairer) escalate(v *validator) int {
	before := len(r.rep.Actions)
	seen := map[layout.Addr]bool{}
	for _, is := range v.res.Issues {
		seg := r.geo.SegmentIndexOf(is.Addr)
		if seg < 0 || seg >= r.geo.NumSegments {
			continue
		}
		st := r.p.SegState(seg)
		switch st.State {
		case layout.SegHugeHead:
			b := r.geo.SegmentBase(seg)
			if !seen[b] {
				seen[b] = true
				r.quarantineBlock(b)
			}
		case layout.SegHugeBody:
			head := seg
			for head > 0 && r.p.SegState(head).State == layout.SegHugeBody {
				head--
			}
			b := r.geo.SegmentBase(head)
			if !seen[b] {
				seen[b] = true
				r.quarantineBlock(b)
			}
		case layout.SegActive, layout.SegAbandoned:
			pg := r.geo.PageIndexOf(seg, is.Addr)
			if pg < 0 {
				continue
			}
			info := layout.UnpackPageMeta(r.p.Device().Load(r.geo.PageMetaAddr(seg, pg) + pmInfo))
			if info.Kind == layout.PageKindNormal && int(info.SizeClass) < len(r.geo.Classes) {
				bw := r.geo.Classes[info.SizeClass].BlockWords
				base := r.geo.PageBase(seg, pg)
				b := base + layout.Addr((uint64(is.Addr)-uint64(base))/bw*bw)
				if !seen[b] {
					seen[b] = true
					r.quarantineBlock(b)
				}
			} else {
				key := r.geo.PageMetaAddr(seg, pg)
				if !seen[key] {
					seen[key] = true
					r.quarantinePage(seg, pg)
				}
			}
		}
	}
	return len(r.rep.Actions) - before
}
