package shm

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"repro/internal/cxl"
	"repro/internal/layout"
	"repro/internal/obs"
)

// Telemetry is the pool's crash-surviving observability surface (layout
// telemetry region): per-client metric blocks published with a
// double-buffered seqlock, a CAS-added pool block, per-client recovery
// timelines, and a shared ring of recovery-lifecycle events. Everything
// lives in device words, so it shares the device's failure domain — a
// kill -9 of any process leaves the victim's last published vectors and
// the full record of its death readable by every surviving (or later, or
// read-only) mapping of the pool.
//
// Writer disciplines, by sub-area:
//
//   - Client metric blocks are single-writer by construction (the client
//     slot lease): only the slot's current incarnation publishes, through
//     its own RAS-fenceable handle, so a fenced client's stray publication
//     is dropped by the device itself. Being the only writer, it knows what
//     each slot holds (TelLast) and stores only the words that changed.
//   - The pool block has concurrent writers in multiple processes; its
//     words are CAS-added individually and each is monotonic.
//   - Timelines are stamped by whoever fences/recovers the client; the
//     monitor+recovery service share a goroutine, making each stamp
//     sequence effectively single-writer per death.
//   - Ring records are claimed with a CAS fetch-add and made visible by
//     writing their commit word last.
type Telemetry struct {
	dev *cxl.Device
	geo *layout.Geometry
}

// NewTelemetry wraps a telemetry view over a device + geometry. Pools
// construct their own (Pool.Telemetry); tools attaching read-only use
// this directly.
func NewTelemetry(dev *cxl.Device, geo *layout.Geometry) *Telemetry {
	return &Telemetry{dev: dev, geo: geo}
}

// telWriter is the write plane a publication goes through: a client's
// RAS-fenceable Handle, or the management plane (cxl.Device) for stamps
// by the monitor/recovery side.
type telWriter interface {
	Load(layout.Addr) uint64
	Store(layout.Addr, uint64)
}

// format writes the region header (pool formatting; all other words are
// the all-zero initial state the protocols expect).
func (t *Telemetry) format() {
	t.dev.Store(t.geo.TelHeaderAddr(layout.TelOffMagic), layout.TelMagic)
	t.dev.Store(t.geo.TelHeaderAddr(layout.TelOffNumCounters), uint64(obs.NumCounters))
	t.dev.Store(t.geo.TelHeaderAddr(layout.TelOffNumHistos), uint64(obs.NumHistos))
	t.dev.Store(t.geo.TelHeaderAddr(layout.TelOffHistBuckets), uint64(obs.HistBuckets))
	t.dev.Store(t.geo.TelHeaderAddr(layout.TelOffRingCap), layout.TelRingRecords)
	t.dev.Store(t.geo.TelHeaderAddr(layout.TelOffTimelineWords), layout.TelTimelineWords)
}

// Reformat rewrites the region header — the repairing fsck's remedy when a
// corruption trial damaged the magic or dimension words. Metric blocks,
// timelines and the ring are left as they are: their readers tolerate
// arbitrary garbage record by record, only the header is load-bearing.
func (t *Telemetry) Reformat() { t.format() }

// Validate checks the region header against this build's dimensions. The
// superblock's LayoutVersion gate already refuses incompatible pools;
// this is the defense-in-depth check for tools that bypass it.
func (t *Telemetry) Validate() error {
	if got := t.dev.Load(t.geo.TelHeaderAddr(layout.TelOffMagic)); got != layout.TelMagic {
		return fmt.Errorf("shm: pool has no telemetry region (magic %#x)", got)
	}
	if nc := t.dev.Load(t.geo.TelHeaderAddr(layout.TelOffNumCounters)); nc != uint64(obs.NumCounters) {
		return fmt.Errorf("shm: telemetry region has %d counters, this build has %d", nc, obs.NumCounters)
	}
	if nh := t.dev.Load(t.geo.TelHeaderAddr(layout.TelOffNumHistos)); nh != uint64(obs.NumHistos) {
		return fmt.Errorf("shm: telemetry region has %d histograms, this build has %d", nh, obs.NumHistos)
	}
	return nil
}

// --- client metric blocks (double-buffered seqlock) ---

// telVecWords is the length of one published vector: counters, then buckets.
const telVecWords = int(obs.NumCounters) + int(obs.NumHistos)*obs.HistBuckets

// TelLast is a publisher's host-side copy of what each of its block's two
// slots last held. It lives with the single-goroutine publisher (Client), not
// here: the zero value knows nothing, so a fresh Connect writes everything.
type TelLast struct {
	known [2]bool
	vec   [2][telVecWords]uint64
}

// PublishShard writes a client's counter vector and histogram bucket vectors
// into metric block idx through w. The inactive slot is filled
// first and the commit word flipped last, so a crash at any word leaves
// the previously committed slot untouched — readers never lose the last
// stable vector, and never see a torn one. Only the words that differ from
// what that slot held two publications ago are stored, plus time and commit;
// last follows every store, so a publication cut short leaves it exact.
func (t *Telemetry) PublishShard(w telWriter, idx int, counters *[obs.NumCounters]uint64, histos *[obs.NumHistos][obs.HistBuckets]uint64, now int64, last *TelLast) {
	if idx < 1 || idx > t.geo.MaxClients {
		return
	}
	commit := t.geo.TelBlockBase(idx) + layout.TelBlockOffCommit
	c := w.Load(commit)
	next := 1 - int(c&1)
	a := t.geo.TelSlotBase(idx, next)
	w.Store(a+layout.TelSlotOffTime, uint64(now))
	a += layout.TelSlotOffCounters
	var vec [telVecWords]uint64
	n := copy(vec[:], counters[:])
	for h := range histos {
		n += copy(vec[n:], histos[h][:])
	}
	for i, v := range vec {
		if !last.known[next] || last.vec[next][i] != v {
			w.Store(a+layout.Addr(i), v)
			last.vec[next][i] = v
		}
	}
	last.known[next] = true
	w.Store(commit, ((c>>1)+1)<<1|uint64(next))
}

// StampIdentity records the publishing process's identity (OS pid) in
// metric block idx's header.
func (t *Telemetry) StampIdentity(w telWriter, idx int, id uint64) {
	if idx < 1 || idx > t.geo.MaxClients {
		return
	}
	w.Store(t.geo.TelBlockBase(idx)+layout.TelBlockOffIdentity, id)
}

// ScrubBlock resets metric block idx to the never-published state (commit
// word 0 — ReadBlock reports ok=false) and clears its identity. Connect
// calls this when a slot is re-leased: the previous lessee's final vector
// stays readable while the slot is idle (dead-client forensics), but must
// never masquerade as the new incarnation's output. Goes through the new
// lessee's fenceable handle, like every block write.
func (t *Telemetry) ScrubBlock(w telWriter, idx int) {
	if idx < 1 || idx > t.geo.MaxClients {
		return
	}
	w.Store(t.geo.TelBlockBase(idx)+layout.TelBlockOffCommit, 0)
	w.Store(t.geo.TelBlockBase(idx)+layout.TelBlockOffIdentity, 0)
}

// --- pool block (multi-writer, CAS-added words) ---

// casAdd atomically adds v to the device word at a.
func (t *Telemetry) casAdd(a layout.Addr, v uint64) {
	for {
		cur := t.dev.Load(a)
		if t.dev.CAS(a, cur, cur+v) {
			return
		}
	}
}

// PoolAdd adds v to pool-block counter c: the one record of a pool-wide
// fact (fences, recovery passes, redo replays, leak flags raised by the
// recovery side, monitor ticks, fsck passes — never on a client hot path).
func (t *Telemetry) PoolAdd(c obs.Counter, v uint64) {
	t.casAdd(t.geo.TelSlotBase(0, 0)+layout.TelSlotOffCounters+layout.Addr(c), v)
}

// PoolObserve records one observation into pool-block histogram h.
func (t *Telemetry) PoolObserve(h obs.Histo, ns int64) {
	a := t.geo.TelSlotBase(0, 0) + layout.TelSlotOffCounters + layout.Addr(obs.NumCounters) +
		layout.Addr(int(h)*obs.HistBuckets+obs.BucketOf(ns))
	t.casAdd(a, 1)
}

// --- recovery timelines ---

// StampFence opens a new death on cid's timeline: bump the death seqlock
// to odd, reset the per-death fields, stamp detection and fence times,
// and close the seqlock. firstMissNS is 0 when the fence was not
// preceded by an observed heartbeat miss (explicit kills, clean closes).
func (t *Telemetry) StampFence(cid int, reason obs.FenceReason, firstMissNS, now int64) {
	if cid < 1 || cid > t.geo.MaxClients {
		return
	}
	base := t.geo.TelTimelineBase(cid)
	s := t.dev.Load(base + layout.TlOffDeathSeq)
	s &^= 1 // a previous interrupted reset stays on the same death count
	t.dev.Store(base+layout.TlOffDeathSeq, s+1)
	t.dev.Store(base+layout.TlOffFirstMiss, uint64(firstMissNS))
	t.dev.Store(base+layout.TlOffFenced, uint64(now))
	t.dev.Store(base+layout.TlOffReason, uint64(reason))
	t.dev.Store(base+layout.TlOffAttempt, 0)
	t.dev.Store(base+layout.TlOffAttempts, 0)
	t.dev.Store(base+layout.TlOffReplays, 0)
	t.dev.Store(base+layout.TlOffRecovered, 0)
	t.dev.Store(base+layout.TlOffDuration, 0)
	t.dev.Store(base+layout.TlOffReclaimed, 0)
	t.dev.Store(base+layout.TlOffSwept, 0)
	t.dev.Store(base+layout.TlOffDeathSeq, s+2)
}

// StampRecoveryStart records one recovery attempt beginning for cid's
// current death.
func (t *Telemetry) StampRecoveryStart(cid int, now int64) {
	if cid < 1 || cid > t.geo.MaxClients {
		return
	}
	base := t.geo.TelTimelineBase(cid)
	t.dev.Store(base+layout.TlOffAttempt, uint64(now))
	t.casAdd(base+layout.TlOffAttempts, 1)
}

// StampRedoReplay counts one redo-log replay for cid's current death.
func (t *Telemetry) StampRedoReplay(cid int) {
	if cid < 1 || cid > t.geo.MaxClients {
		return
	}
	t.casAdd(t.geo.TelTimelineBase(cid)+layout.TlOffReplays, 1)
}

// StampRecovered closes cid's current death: recovery completed, with
// reclaimed/swept the pass's results. It computes and returns the
// detection-to-recovered duration (first miss when observed, else the
// fence) — the recovery-time SLO — or 0 when the timeline carries no
// detection stamp to measure from.
func (t *Telemetry) StampRecovered(cid, reclaimed, swept int, now int64) int64 {
	if cid < 1 || cid > t.geo.MaxClients {
		return 0
	}
	base := t.geo.TelTimelineBase(cid)
	detect := int64(t.dev.Load(base + layout.TlOffFirstMiss))
	if detect == 0 {
		detect = int64(t.dev.Load(base + layout.TlOffFenced))
	}
	var dur int64
	if detect > 0 && now > detect {
		dur = now - detect
	}
	t.dev.Store(base+layout.TlOffRecovered, uint64(now))
	t.dev.Store(base+layout.TlOffDuration, uint64(dur))
	t.dev.Store(base+layout.TlOffReclaimed, uint64(reclaimed))
	t.dev.Store(base+layout.TlOffSwept, uint64(swept))
	t.casAdd(base+layout.TlOffCompleted, 1)
	return dur
}

// --- shared event ring ---

// AppendEvent claims the next ring record (CAS fetch-add on the sequence
// header word) and publishes e into it, commit word last. A writer that
// dies mid-record leaves it invalid (commit 0 or stale), which readers
// skip; the claimed sequence number is simply lost.
func (t *Telemetry) AppendEvent(e obs.Event) {
	seqA := t.geo.TelRingSeqAddr()
	var seq uint64
	for {
		cur := t.dev.Load(seqA)
		if t.dev.CAS(seqA, cur, cur+1) {
			seq = cur
			break
		}
	}
	rec := t.geo.TelRingRecordBase(int(seq % layout.TelRingRecords))
	t.dev.Store(rec+layout.TelRecOffCommit, 0)
	ns := e.Time.UnixNano()
	if e.Time.IsZero() {
		ns = time.Now().UnixNano()
	}
	t.dev.Store(rec+layout.TelRecOffTime, uint64(ns))
	t.dev.Store(rec+layout.TelRecOffType, uint64(e.Type))
	t.dev.Store(rec+layout.TelRecOffClient, uint64(e.Client))
	t.dev.Store(rec+layout.TelRecOffSegment, uint64(e.Segment))
	t.dev.Store(rec+layout.TelRecOffA, e.A)
	t.dev.Store(rec+layout.TelRecOffB, e.B)
	t.dev.Store(rec+layout.TelRecOffCommit, seq+1)
}

// --- read side ---

// TelemetryBlock is one decoded metric block: the last vectors a client
// (or the pool, index 0) published, surviving the publisher's death.
type TelemetryBlock struct {
	Index     int    `json:"index"`
	Publishes uint64 `json:"publishes"`
	Identity  uint64 `json:"pid,omitempty"`
	TimeNS    int64  `json:"time_ns,omitempty"`
	// Consistent is false when the seqlock never settled within the retry
	// budget (a pathological publish storm); the vectors are then the last
	// attempt's possibly-torn read.
	Consistent bool                                   `json:"consistent"`
	Counters   [obs.NumCounters]uint64                `json:"-"`
	Histos     [obs.NumHistos][obs.HistBuckets]uint64 `json:"-"`
}

// MarshalJSON renders the vectors under their stable export names (the
// raw arrays are positional and meaningless without this build's enums).
func (b TelemetryBlock) MarshalJSON() ([]byte, error) {
	type alias TelemetryBlock // avoid recursing into this method
	snap := b.Snapshot()
	return json.Marshal(struct {
		alias
		Counters   map[string]uint64                `json:"counters"`
		Histograms map[string]obs.HistogramSnapshot `json:"histograms,omitempty"`
	}{alias(b), snap.Counters, snap.Histograms})
}

// Snapshot renders the block's vectors under their stable export names.
func (b *TelemetryBlock) Snapshot() obs.Snapshot { return obs.SnapshotOf(&b.Counters, &b.Histos) }

// add adds o's vectors into b's.
func (b *TelemetryBlock) add(o *TelemetryBlock) {
	for i, v := range o.Counters {
		b.Counters[i] += v
	}
	for h := range o.Histos {
		for i, v := range o.Histos[h] {
			b.Histos[h][i] += v
		}
	}
}

// ReadBlock snapshots metric block idx. ok is false when the block was
// never published (client metric blocks; the pool block, index 0, always
// reads ok). Torn-free for client blocks via the seqlock; the pool
// block's words are individually monotonic instead.
func (t *Telemetry) ReadBlock(idx int) (b TelemetryBlock, ok bool) {
	b.Index = idx
	if idx < 0 || idx > t.geo.MaxClients {
		return b, false
	}
	if idx == 0 {
		b.Consistent = true
		t.readSlot(&b, t.geo.TelSlotBase(0, 0))
		return b, true
	}
	commit := t.geo.TelBlockBase(idx) + layout.TelBlockOffCommit
	for try := 0; try < 8; try++ {
		c1 := t.dev.Load(commit)
		if c1 == 0 {
			return b, false
		}
		t.readSlot(&b, t.geo.TelSlotBase(idx, int(c1&1)))
		if t.dev.Load(commit) == c1 {
			b.Publishes = c1 >> 1
			b.Consistent = true
			break
		}
	}
	b.Identity = t.dev.Load(t.geo.TelBlockBase(idx) + layout.TelBlockOffIdentity)
	return b, true
}

func (t *Telemetry) readSlot(b *TelemetryBlock, a layout.Addr) {
	b.TimeNS = int64(t.dev.Load(a + layout.TelSlotOffTime))
	a += layout.TelSlotOffCounters
	for i := range b.Counters {
		b.Counters[i] = t.dev.Load(a)
		a++
	}
	for h := 0; h < int(obs.NumHistos); h++ {
		for i := 0; i < obs.HistBuckets; i++ {
			b.Histos[h][i] = t.dev.Load(a)
			a++
		}
	}
}

// TelemetryTimeline is one decoded recovery timeline: the full record of
// a client slot's most recent death, from detection to recovered.
type TelemetryTimeline struct {
	Client      int             `json:"client"`
	Deaths      uint64          `json:"deaths"`
	FirstMissNS int64           `json:"first_miss_ns,omitempty"`
	FencedNS    int64           `json:"fenced_ns,omitempty"`
	Reason      obs.FenceReason `json:"-"`
	ReasonName  string          `json:"reason,omitempty"`
	AttemptNS   int64           `json:"attempt_ns,omitempty"`
	Attempts    uint64          `json:"attempts,omitempty"`
	RedoReplays uint64          `json:"redo_replays,omitempty"`
	RecoveredNS int64           `json:"recovered_ns,omitempty"`
	DurationNS  int64           `json:"detect_to_recovered_ns,omitempty"`
	Completed   uint64          `json:"completed_recoveries,omitempty"`
	Reclaimed   uint64          `json:"reclaimed,omitempty"`
	SweptRoots  uint64          `json:"roots_swept,omitempty"`
}

// ReadTimeline snapshots cid's recovery timeline; ok is false when the
// slot has never been fenced.
func (t *Telemetry) ReadTimeline(cid int) (tl TelemetryTimeline, ok bool) {
	tl.Client = cid
	if cid < 1 || cid > t.geo.MaxClients {
		return tl, false
	}
	base := t.geo.TelTimelineBase(cid)
	for try := 0; try < 8; try++ {
		s1 := t.dev.Load(base + layout.TlOffDeathSeq)
		if s1 == 0 {
			return tl, false
		}
		if s1&1 == 1 {
			continue // reset in progress (or its writer died mid-reset)
		}
		tl.FirstMissNS = int64(t.dev.Load(base + layout.TlOffFirstMiss))
		tl.FencedNS = int64(t.dev.Load(base + layout.TlOffFenced))
		tl.Reason = obs.FenceReason(t.dev.Load(base + layout.TlOffReason))
		tl.AttemptNS = int64(t.dev.Load(base + layout.TlOffAttempt))
		tl.Attempts = t.dev.Load(base + layout.TlOffAttempts)
		tl.RedoReplays = t.dev.Load(base + layout.TlOffReplays)
		tl.RecoveredNS = int64(t.dev.Load(base + layout.TlOffRecovered))
		tl.DurationNS = int64(t.dev.Load(base + layout.TlOffDuration))
		tl.Completed = t.dev.Load(base + layout.TlOffCompleted)
		tl.Reclaimed = t.dev.Load(base + layout.TlOffReclaimed)
		tl.SweptRoots = t.dev.Load(base + layout.TlOffSwept)
		if t.dev.Load(base+layout.TlOffDeathSeq) == s1 {
			tl.Deaths = s1 >> 1
			tl.ReasonName = tl.Reason.String()
			return tl, true
		}
	}
	return tl, false
}

// Events decodes the shared event ring, oldest first. Invalid records
// (never written, or their writer died mid-record) are skipped.
func (t *Telemetry) Events() []obs.Event {
	var out []obs.Event
	for i := 0; i < layout.TelRingRecords; i++ {
		rec := t.geo.TelRingRecordBase(i)
		c1 := t.dev.Load(rec + layout.TelRecOffCommit)
		if c1 == 0 {
			continue
		}
		e := obs.Event{
			Seq:     c1 - 1,
			Time:    time.Unix(0, int64(t.dev.Load(rec+layout.TelRecOffTime))),
			Type:    obs.EventType(t.dev.Load(rec + layout.TelRecOffType)),
			Client:  int(t.dev.Load(rec + layout.TelRecOffClient)),
			Segment: int(t.dev.Load(rec + layout.TelRecOffSegment)),
			A:       t.dev.Load(rec + layout.TelRecOffA),
			B:       t.dev.Load(rec + layout.TelRecOffB),
		}
		if t.dev.Load(rec+layout.TelRecOffCommit) != c1 {
			continue // overwritten mid-read; its replacement shows up next pass
		}
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// TelemetrySnapshot is the whole region, decoded: what cxltop renders and
// its JSON/Prometheus exporters serialize.
type TelemetrySnapshot struct {
	TimeNS    int64               `json:"time_ns"`
	Pool      TelemetryBlock      `json:"pool"`
	Clients   []TelemetryBlock    `json:"clients,omitempty"`
	Timelines []TelemetryTimeline `json:"timelines,omitempty"`
	Events    []obs.Event         `json:"events,omitempty"`
}

// Snapshot decodes every published client block, every stamped timeline,
// the pool block, and the event ring.
func (t *Telemetry) Snapshot() TelemetrySnapshot {
	s := TelemetrySnapshot{TimeNS: time.Now().UnixNano()}
	t.readBlocks(&s)
	for cid := 1; cid <= t.geo.MaxClients; cid++ {
		if tl, ok := t.ReadTimeline(cid); ok {
			s.Timelines = append(s.Timelines, tl)
		}
	}
	s.Events = t.Events()
	return s
}

// readBlocks decodes the pool block and every committed client block into s.
func (t *Telemetry) readBlocks(s *TelemetrySnapshot) {
	s.Pool, _ = t.ReadBlock(0)
	for cid := 1; cid <= t.geo.MaxClients; cid++ {
		if b, ok := t.ReadBlock(cid); ok {
			s.Clients = append(s.Clients, b)
		}
	}
}

// Totals sums the pool block and every committed client block: the pool's
// counter and histogram totals, from the one store that holds them.
func (s *TelemetrySnapshot) Totals() obs.Snapshot {
	sum := s.Pool
	for i := range s.Clients {
		sum.add(&s.Clients[i])
	}
	return sum.Snapshot()
}

// Metrics is the pool's counter and histogram view (Pool.Obs): every read
// sums the telemetry region's metric blocks through the management plane.
type Metrics struct{ t *Telemetry }

// Snapshot sums the pool block and every committed client block. A live
// client's counts since its last heartbeat, flush or close are not in it.
func (m Metrics) Snapshot() obs.Snapshot {
	var s TelemetrySnapshot
	m.t.readBlocks(&s)
	return s.Totals()
}
