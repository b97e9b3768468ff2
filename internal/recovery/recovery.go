// Package recovery implements CXL-SHM's asynchronous, stateless, fail-safe
// recovery service and the failure-detecting monitor (paper §3.2, §4.3,
// §5.3).
//
// Recovery of a failed client never blocks other clients: it consists of
// ordinary era transactions plus idempotent replays, executed by a recovery
// client that is itself just another client of the pool — if the recovery
// service dies, a new one can be started anywhere and simply runs again.
package recovery

import (
	"fmt"
	"time"

	"repro/internal/layout"
	"repro/internal/obs"
	"repro/internal/shm"
)

// Service executes recoveries on behalf of a pool. It owns one or more
// client identities ("executors") for the era transactions recovery must
// run (releasing the references a dead client possessed). With a single
// executor (NewService) it behaves like the original single-goroutine
// service; with more (NewServiceWorkers), recoveries of independent dead
// clients run concurrently — each pass borrows an executor from the pool
// for its duration. A pass runs under its victim's recovery claim, a word in
// the pool (shm.Client.ClaimRecovery), so two passes over one client never
// overlap, whichever services or processes run them; segment work needs no
// lock beyond that (internal/shm/scan.go's concurrency contract).
type Service struct {
	pool *shm.Pool
	// execs is the bounded executor pool: cap(execs) == worker count.
	execs    chan *shm.Client
	execList []*shm.Client
}

// NewService connects a single-executor recovery service to the pool.
func NewService(pool *shm.Pool) (*Service, error) {
	return NewServiceWorkers(pool, 1)
}

// NewServiceWorkers connects a recovery service with `workers` executors:
// up to that many independent dead clients recover concurrently. Each
// executor occupies an ordinary client slot.
func NewServiceWorkers(pool *shm.Pool, workers int) (*Service, error) {
	if workers < 1 {
		workers = 1
	}
	s := &Service{pool: pool, execs: make(chan *shm.Client, workers)}
	for i := 0; i < workers; i++ {
		exec, err := pool.Connect()
		if err != nil {
			return nil, fmt.Errorf("recovery: cannot connect executor %d of %d: %w", i+1, workers, err)
		}
		s.execList = append(s.execList, exec)
		s.execs <- exec
	}
	return s, nil
}

// Executor exposes the service's first executor client (tests, stats).
func (s *Service) Executor() *shm.Client { return s.execList[0] }

// Workers returns the executor-pool size (the recovery concurrency bound).
func (s *Service) Workers() int { return cap(s.execs) }

// ExecutorIDs lists the client IDs held by the service's executors; the
// monitor skips them during heartbeat scanning (idle pooled executors do
// not beat, and must not be fenced for it).
func (s *Service) ExecutorIDs() []int {
	ids := make([]int, len(s.execList))
	for i, e := range s.execList {
		ids[i] = e.ID()
	}
	return ids
}

// borrowExec checks an executor out of the pool; returnExec gives it back.
func (s *Service) borrowExec() *shm.Client  { return <-s.execs }
func (s *Service) returnExec(e *shm.Client) { s.execs <- e }

// Report summarizes one client recovery.
type Report struct {
	Client     int
	RedoNeeded bool // the redo entry's ModifyRef was replayed
	SweptRoots int  // RootRef references released
	SegsFreed  int  // segments returned to the free pool
	SegsOrphan int  // segments left ABANDONED (still referenced by others)
	HugeFreed  int  // huge objects reclaimed
	// Reclaimed counts the blocks the post-sweep scan reclaimed: leaked ones,
	// and those whose last reference the sweep dropped (476 per victim of
	// the benchmark's crash-recover workload).
	Reclaimed int
	// Duration is the detection-to-recovered SLO for this death: first
	// missed heartbeat (or the fence, when there was no detection phase) to
	// RECOVERED published. Zero when the timeline carried no detection stamp.
	Duration time.Duration
}

// RecoverClient recovers failed client cid:
//
//  1. take the client's recovery claim, fence the client (RAS) and publish
//     its death,
//  2. decide and replay the interrupted transaction's ModifyRef using the
//     era matrix (Conditions 1 and 2),
//  3. sweep the dead client's RootRef pages — the content in and only in
//     those pages identifies every reference it possessed (§5.1): a last
//     reference to a block in the client's own ACTIVE segment is dropped
//     (header ← 0, slot ← 0) for step 4's scan to free, every other one is
//     released by era transaction,
//  4. scan and either free or abandon its segments,
//  5. release the slot lease: clear the redo entry, move the generation
//     even, mark the slot recovered, and let the claim go.
//
// Everything here is idempotent or guarded, so a recovery that itself
// crashes can simply be re-run. Concurrent calls for independent clients
// proceed in parallel (bounded by the executor pool). A call for a client
// whose claim another executor holds — a pass running in this service or
// another, or one whose executor died and is not yet recovered itself —
// returns shm.ErrRecoveryInProgress and writes nothing.
func (s *Service) RecoverClient(cid int) (Report, error) {
	if cid < 1 || cid > s.pool.Geometry().MaxClients {
		return Report{Client: cid}, fmt.Errorf("recovery: client id %d out of range", cid)
	}
	exec := s.borrowExec()
	defer s.returnExec(exec)
	return s.recoverWith(exec, cid)
}

// recoverWith runs one recovery pass on the given executor, which the caller
// owns for the duration.
func (s *Service) recoverWith(exec *shm.Client, cid int) (Report, error) {
	r := Report{Client: cid}
	p := s.pool
	// Only DEAD slots are recoverable. Fencing is the caller's decision
	// (MarkClientDead / the monitor's detection path) — auto-fencing an
	// ALIVE slot here would let a stale recover request kill an innocent
	// client, because with slot recycling the cid may have been re-leased
	// to a new incarnation since the request was formed.
	if err := exec.ClaimRecovery(cid); err != nil {
		return r, err
	}
	p.Device().FenceClient(cid)
	t0 := time.Now()
	p.Trace(obs.Event{Type: obs.EvRecoveryStarted, Client: cid})
	p.Telemetry().StampRecoveryStart(cid, t0.UnixNano())

	hugeFreed := exec.Count(obs.CtrFreeHuge)

	// Step 2: redo decision and replay. The victim is fenced, so its era
	// word holds from here on.
	era := p.Device().Load(p.Geometry().EraAddr(cid, cid))
	r.RedoNeeded = s.replayRedo(exec, cid, era)

	// Step 3+4: walk the Global Segment Allocation Vec for segments owned by
	// the dead client. RootRef pages are swept first (across all owned
	// segments) so that segment scans see the final reference counts; one
	// walk covers them all, seeded with the ACTIVE segments' state words.
	owned, words := s.ownedSegments(cid)
	var active []int
	var activeW []uint64
	for i, seg := range owned {
		if layout.UnpackSegState(words[i]).State == layout.SegActive {
			active, activeW = append(active, seg), append(activeW, words[i])
		}
	}
	rs := p.NewRootSweep(cid, era, active, activeW)
	for _, seg := range active {
		r.SweptRoots += s.sweepRootRefPages(exec, rs, seg)
	}

	// Huge objects: free heads whose count is zero (interrupted allocation
	// or interrupted free); keep live ones (others still reference them).
	s.sweepHugeOwned(exec, owned)

	// Normal segments: one scan; quiet ones are freed, the rest abandoned.
	for _, seg := range owned {
		st := p.SegState(seg)
		switch st.State {
		case layout.SegActive:
			rep := exec.ScanSegment(seg, true)
			r.Reclaimed += rep.Reclaimed
			r.SweptRoots += rep.SweptRoots
			if rep.Freed {
				r.SegsFreed++
			} else {
				s.abandonSegment(seg)
				r.SegsOrphan++
			}
		case layout.SegHugeBody:
			// Orphan body whose head was never written or already freed
			// (mid-claim crash): sweepHugeOwned left it untouched only if no
			// matching live head covers it.
			if !s.coveredByLiveHead(cid, seg) {
				s.freeSegment(seg)
				r.SegsFreed++
			}
		}
	}

	// Step 5: release the slot lease. Ordering is load-bearing twice over.
	// The redo entry is invalidated before the slot is announced recovered:
	// in the other order, a recovery pass that itself crashes between the
	// two stores leaves a RECOVERED slot carrying a valid redo entry, which
	// a later incarnation reusing the slot would inherit. The era row is
	// left as it is: each witness in it records a header that some
	// incarnation of the slot read, which is true commit evidence whoever
	// holds the slot next (DESIGN.md §4d). FinishSlotLease then moves the
	// lease generation even *before* storing RECOVERED — a crash between
	// the two leaves DEAD+even, which the monitor simply recovers again,
	// whereas the opposite order could publish a claimable slot whose
	// generation still says "leased". The claim goes last: a recoverer that
	// takes it then reads RECOVERED (or a later incarnation's status), never
	// the DEAD of this death. Every intermediate state is re-runnable, and a
	// crash before the release leaves a claim that stays stealable once
	// this executor is recovered.
	p.ClearRedo(cid)
	p.FinishSlotLease(cid)
	exec.ReleaseRecovery(cid)

	// Publish the executor's scan/sweep counts before announcing the pass,
	// so a snapshot taken after the recovery sees exact totals.
	exec.FlushMetrics()
	// Huge objects freed over the whole pass, most of them by the root sweep.
	r.HugeFreed = int(exec.Count(obs.CtrFreeHuge) - hugeFreed)
	// Close the crash-surviving timeline and extract the SLO: the duration
	// is measured from the detection stamp the fence recorded, so it spans
	// processes (the detector and the recoverer need not share one).
	tel := p.Telemetry()
	tel.PoolAdd(obs.CtrRecoveryPass, 1)
	tel.PoolObserve(obs.HistRecoveryNS, time.Since(t0).Nanoseconds())
	if dur := tel.StampRecovered(cid, r.Reclaimed, r.SweptRoots, time.Now().UnixNano()); dur > 0 {
		r.Duration = time.Duration(dur)
		tel.PoolObserve(obs.HistDetectRecoverNS, dur)
	}
	p.Trace(obs.Event{
		Type: obs.EvRecoveryFinished, Client: cid,
		A: uint64(r.Reclaimed), B: uint64(r.SweptRoots),
	})
	return r, nil
}

// replayRedo implements the §4.3 recovery decision, given eraII, the fenced
// client's era word. Returns whether a ModifyRef replay (or
// change-completion) was needed.
//
// Redo entries are not cleared when their transaction closes (redo.go), so
// the decision is era-gated first: every commit CAS is followed by an era
// bump, which means an attach/release entry is in flight iff Era[cid][cid]
// still equals the logged era, and a change entry (two bumps, then a
// synchronous flag store) can need work only within two bumps of it. Acting
// on an entry the client's era has moved past would replay a long-closed
// transaction into possibly recycled words — the gate is what makes the
// deferred invalidation safe. The entry logs the era's low half; its whole
// era is the latest one at most Era[cid][cid] with that low half, and lag is
// how many bumps it lies behind.
func (s *Service) replayRedo(exec *shm.Client, cid int, eraII uint64) bool {
	p := s.pool
	geo := p.Geometry()
	dev := p.Device()
	entry, ok := p.ReadRedo(cid)
	if !ok {
		return false
	}
	txnEra, ok := layout.WidenEra(entry.Era, eraII)
	if !ok {
		return false // logged at no era this client has reached: not in flight
	}
	lag := eraII - txnEra

	switch entry.Op {
	case shm.OpAttach:
		if lag != 0 {
			return false // transaction closed; entry is stale
		}
		if ok, cond := s.committed(entry.Refed, cid, txnEra, entry.SavedCnt+1); ok {
			dev.Store(entry.Ref, entry.Refed) // replay ModifyRef (idempotent)
			s.traceReplay(cid, entry.Op, cond)
			return true
		}
	case shm.OpRelease:
		if lag != 0 {
			return false // closed: the inline reclaim (if any) completed too
		}
		// A release that hit zero may have been cut short anywhere in its
		// inline reclaim; flag the segment (sticky, checked by the scan) —
		// never redo the non-idempotent free (§5.3).
		if entry.SavedCnt == 1 {
			if seg := geo.SegmentIndexOf(entry.Refed); seg >= 0 {
				p.FlagSegmentLeaking(seg)
			}
		}
		if ok, cond := s.committed(entry.Refed, cid, txnEra, entry.SavedCnt-1); ok {
			dev.Store(entry.Ref, 0) // replay ModifyRef (idempotent)
			s.traceReplay(cid, entry.Op, cond)
			return true
		}
	case shm.OpChange:
		return s.replayChange(exec, cid, entry, txnEra, lag)
	case shm.OpMove:
		if lag != 0 {
			return false
		}
		// A move has no ModifyRefCnt phase, so there is no commit evidence to
		// weigh: both of its stores are idempotent ModifyRefs, re-executed
		// wholesale. A move with work left still has its source word naming
		// the object (the source is cleared last); a fully executed one needs
		// nothing replayed, so the source word gates the replay too.
		if dev.Load(entry.Refed2) != entry.Refed {
			return false
		}
		// A linking move (PushEmbed) stores the displaced target into the
		// object's embed 0 before the destination. While the destination
		// does not name the object yet, it still holds that target, so the
		// copy is redone whole; once it does, embed 0 is already set.
		if entry.SavedCnt&shm.MoveLink != 0 {
			if cur := dev.Load(entry.Ref); cur != entry.Refed {
				dev.Store(entry.Refed+layout.DataOff, cur)
			}
		}
		dev.Store(entry.Ref, entry.Refed)
		dev.Store(entry.Refed2, 0)
		s.traceReplay(cid, entry.Op, 0)
		return true
	}
	return false
}

// traceReplay records one decided replay: counter plus a trace event noting
// which of the paper's two commit-evidence conditions justified it.
func (s *Service) traceReplay(cid int, op shm.Op, cond uint8) {
	tel := s.pool.Telemetry()
	tel.PoolAdd(obs.CtrRedoReplay, 1)
	tel.StampRedoReplay(cid)
	s.pool.Trace(obs.Event{Type: obs.EvRedoReplayed, Client: cid, A: uint64(op), B: uint64(cond)})
}

// replayChange completes an interrupted two-phase change (§5.4) logged at
// txnEra: the era was bumped after each of the two CASes, so lag, the bumps
// Era[cid][cid] has made since, tells which phase crashed.
func (s *Service) replayChange(exec *shm.Client, cid int, e shm.RedoEntry, txnEra, lag uint64) bool {
	p := s.pool
	geo := p.Geometry()
	dev := p.Device()
	// Beyond era+2 the transaction closed and the POTENTIAL_LEAKING flag for
	// a zero-count A was already stored by the client (synchronously after
	// the second bump, before any later transaction could overwrite the
	// entry) — the entry is stale debris; touch nothing.
	if lag > 2 {
		return false
	}
	// Phase 1's decrement may have dropped A to zero in any phase.
	if e.SavedCnt == 1 {
		if seg := geo.SegmentIndexOf(e.Refed); seg >= 0 {
			p.FlagSegmentLeaking(seg)
		}
	}
	switch lag {
	case 0:
		// Crashed in phase 1. If the decrement of A committed, the client
		// was headed for "ref points at B": complete with a fresh attach
		// transaction (B was certainly not incremented yet — that CAS only
		// runs after the first era bump).
		if ok, cond := s.committed(e.Refed, cid, txnEra, e.SavedCnt-1); ok {
			if err := exec.AttachReference(e.Ref, e.Refed2); err == nil {
				s.traceReplay(cid, e.Op, cond)
				return true
			}
		}
		// Decrement never committed: the change never happened; ref still
		// points at A. Nothing to do.
	case 1:
		// Crashed in phase 2: A's decrement definitely committed. If B's
		// increment committed too, only the ModifyRef needs replaying;
		// otherwise run the attach for the client.
		if ok, cond := s.committed(e.Refed2, cid, txnEra+1, e.SavedCnt2+1); ok {
			dev.Store(e.Ref, e.Refed2)
			s.traceReplay(cid, e.Op, cond)
		} else if err := exec.AttachReference(e.Ref, e.Refed2); err != nil {
			return false
		} else {
			s.traceReplay(cid, e.Op, 0)
		}
		return true
	default:
		// Both bumps done: the change completed; only the A-reclaim flag
		// (set above) could still matter.
	}
	return false
}

// committed decides whether the dead client's CAS at era txnEra on object lo,
// which would have left the count wrote, took effect: Condition 1 (the header
// still carries it) checked strictly before Condition 2 (some other client
// has seen that era). Published (cid, era) pairs are unique to one commit, so
// there are no false positives; the paper proves the two conditions
// sufficient. A header keeps only the era's low half, which also names the
// eras k·2³² before txnEra; the count the CAS wrote tells those apart, as an
// older commit of cid's left whatever count the logged CAS read. The second
// return value names the deciding condition (1 or 2; 0 when not committed),
// recorded in the recovery trace.
func (s *Service) committed(lo layout.Addr, cid int, txnEra uint64, wrote uint16) (bool, uint8) {
	p := s.pool
	geo := p.Geometry()
	dev := p.Device()
	hdr := layout.UnpackHeader(dev.Load(lo + layout.HeaderOff))
	if int(hdr.LCID) == cid && hdr.LEra == uint32(txnEra) && hdr.RefCnt == wrote {
		return true, 1 // Condition 1
	}
	// The paper fences between the two checks. x86-TSO orders a load before
	// later loads, and a witness is stored before the (locked) header CAS
	// that overwrote (cid, txnEra), so the loads below see it.
	var maxSeen uint64
	for j := 1; j <= geo.MaxClients; j++ {
		if j == cid {
			continue
		}
		if e := dev.Load(geo.EraAddr(j, cid)); e > maxSeen {
			maxSeen = e
		}
	}
	if txnEra <= maxSeen {
		return true, 2 // Condition 2
	}
	return false, 0
}

// ownedSegments lists segments whose state word carries the dead client's
// ID, with those words.
func (s *Service) ownedSegments(cid int) (owned []int, words []uint64) {
	p := s.pool
	dev := p.Device()
	for i := 0; i < p.Geometry().NumSegments; i++ {
		w := dev.Load(p.Geometry().SegStateAddr(i))
		st := layout.UnpackSegState(w)
		if int(st.CID) != cid {
			continue
		}
		switch st.State {
		case layout.SegActive, layout.SegHugeHead, layout.SegHugeBody:
			owned, words = append(owned, i), append(words, w)
		}
	}
	return owned, words
}

// sweepRootRefPages releases every reference recorded in the dead client's
// RootRef pages within segment seg (paper §5.1: "use the content in and only
// in these pages"), on the pass's walk rs, which drops the last references
// into the client's own ACTIVE segments.
func (s *Service) sweepRootRefPages(exec *shm.Client, rs *shm.RootSweep, seg int) int {
	p := s.pool
	geo := p.Geometry()
	dev := p.Device()
	swept := 0
	numPages := int(dev.Load(geo.SegNextPageAddr(seg)))
	if numPages > geo.PagesPerSegment {
		numPages = geo.PagesPerSegment
	}
	for pg := 0; pg < numPages; pg++ {
		info := layout.UnpackPageMeta(dev.Load(geo.PageMetaAddr(seg, pg)))
		if info.Kind != layout.PageKindRootRef {
			continue
		}
		// Highest slot first: slots fill in allocation order, each allocation
		// under a larger era, so the executor stores its era witness (a new
		// maximum only) once per page, not per root — same Condition-2
		// evidence. The bump pointer is clamped both ways: n is unsigned.
		base := geo.PageBase(seg, pg)
		scanPos := min(max(dev.Load(geo.PageMetaAddr(seg, pg)+shm.PageMetaScanOff), base), base+layout.Addr(geo.PageWords))
		for n := (scanPos - base) / layout.RootRefWords; n > 0; n-- {
			if exec.SweepRootRefSlot(base+(n-1)*layout.RootRefWords, rs) {
				swept++
			}
		}
	}
	return swept
}

// sweepHugeOwned frees the dead client's huge objects whose count is zero
// (the scan leaves a live head alone).
func (s *Service) sweepHugeOwned(exec *shm.Client, owned []int) {
	for _, seg := range owned {
		if s.pool.SegState(seg).State == layout.SegHugeHead {
			exec.ScanSegment(seg, true)
		}
	}
}

// coveredByLiveHead reports whether body segment seg belongs to a surviving
// huge object of the dead client.
func (s *Service) coveredByLiveHead(cid, seg int) bool {
	p := s.pool
	geo := p.Geometry()
	dev := p.Device()
	for head := seg - 1; head >= 0; head-- {
		st := p.SegState(head)
		if int(st.CID) != cid {
			return false // ownership chain broken
		}
		switch st.State {
		case layout.SegHugeBody:
			continue // keep walking toward the head
		case layout.SegHugeHead:
			block := geo.SegmentBase(head)
			m := layout.UnpackMeta(dev.Load(block + layout.MetaOff))
			span := int((m.BlockWords + geo.SegmentWords - 1) / geo.SegmentWords)
			hdr := layout.UnpackHeader(dev.Load(block + layout.HeaderOff))
			return hdr.RefCnt > 0 && seg < head+span
		default:
			return false
		}
	}
	return false
}

// abandonSegment transitions an owned segment to ABANDONED, preserving the
// POTENTIAL_LEAKING flag: the monitor rescans an abandoned segment when flagged.
func (s *Service) abandonSegment(seg int) {
	p := s.pool
	a := p.Geometry().SegStateAddr(seg)
	dev := p.Device()
	for {
		w := dev.Load(a)
		st := layout.UnpackSegState(w)
		if st.State != layout.SegActive {
			return
		}
		st.State = layout.SegAbandoned
		if dev.CAS(a, w, layout.PackSegState(st)) {
			return
		}
	}
}

// freeSegment returns a segment to the pool, publishing the free-segment
// hint so the next claimer's scan starts here.
func (s *Service) freeSegment(seg int) {
	p := s.pool
	geo := p.Geometry()
	dev := p.Device()
	// Scrub the segment-base header/meta words before releasing: a huge
	// object's data lands on its body segments' bases, and whatever it wrote
	// there must not be mistaken for a block header by the next owner's
	// mid-claim recovery.
	base := geo.SegmentBase(seg)
	dev.Store(base+layout.HeaderOff, 0)
	dev.Store(base+layout.MetaOff, 0)
	a := geo.SegStateAddr(seg)
	st := layout.UnpackSegState(dev.Load(a))
	dev.Store(a, layout.PackSegState(layout.SegState{
		Version: st.Version + 1, State: layout.SegFree,
	}))
	dev.Store(geo.SegFreeHintAddr(), uint64(seg)+1)
}
