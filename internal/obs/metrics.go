// Package obs is the pool-wide observability layer: a zero-allocation,
// per-client-sharded metrics core (padded atomic counters plus log-scaled
// latency histograms, aggregated on read) and a bounded ring-buffer tracer
// for recovery lifecycle events.
//
// Design constraints, in order:
//
//   - The allocator / queue / refcount fast paths may only ever touch their
//     own client's shard, so shards never share cache lines. A single-writer
//     shard owner can go further and skip atomics entirely: accumulate in
//     plain local memory and publish running totals with SetCounters
//     periodically (what shm.Client does).
//   - Reading is done by aggregation: Snapshot sums every shard, so the hot
//     paths pay nothing for the existence of readers.
//   - Recovery lifecycle events (fences, POTENTIAL_LEAKING flags, scans,
//     redo replays) are rare; they go through a mutex-guarded ring buffer
//     that keeps the most recent events and never grows.
package obs

import (
	"math/bits"
	"sync/atomic"
)

// Counter identifies one pool-wide counter. Counters are accumulated in
// per-client shards and summed on read.
type Counter int

// Counters. The groups mirror the subsystems they observe: the allocation
// fast path (§5.1), the era-based reference count transactions (§4.3), the
// SPSC transfer queues (§5.2), and the reclamation/recovery machinery
// (§5.3, §3.2).
const (
	CtrAlloc          Counter = iota // successful Mallocs
	CtrAllocFail                     // Mallocs that returned an error
	CtrAllocHuge                     // successful huge (multi-segment) allocations
	CtrAllocNanos                    // total ns spent in Malloc (timing-enabled clients only)
	CtrFree                          // blocks reclaimed (refcount hit zero and freed)
	CtrFreeHuge                      // huge objects returned to the segment pool
	CtrPublishBatch                  // deferred-metadata publication bursts
	CtrPublishedFrees                // deferred frees published by bursts
	CtrFlush                         // cache-line flushes on the allocation path
	CtrFence                         // memory fences on the allocation path
	CtrSegClaim                      // segments claimed via the global allocation vector CAS

	CtrCASAttempt // header CAS attempts in era transactions
	CtrCASRetry   // header CAS attempts that lost the race and retried
	CtrEraBump    // era advances (one per committed transaction or init)

	CtrQueueSend    // successful queue sends
	CtrQueueReceive // successful queue receives
	CtrQueueFull    // sends rejected with ErrQueueFull
	CtrQueueEmpty   // receives rejected with ErrQueueEmpty
	// CtrQueueStaleSlot counts receives that stepped past a recovered
	// (already-released, zeroed) slot — crash debris, not real emptiness.
	CtrQueueStaleSlot

	CtrLeakFlag      // segments newly flagged POTENTIAL_LEAKING
	CtrScanPass      // segment-local scans executed
	CtrScanReclaimed // leaked blocks reclaimed by scans
	CtrScanRelinked  // lost free blocks re-inserted by scans
	CtrRootSwept     // dead-owner RootRef slots swept
	CtrClientFenced  // clients RAS-fenced (marked dead)
	CtrRecoveryPass  // client recoveries executed
	CtrRedoReplay    // interrupted transactions replayed via Conditions 1/2
	CtrMonitorTick   // monitor rounds

	CtrFsckPass     // repairing-fsck passes executed
	CtrFsckIssues   // issues found by fsck validation passes
	CtrRepairAction // individual repair actions applied (rewrites, rebuilds, reaps)
	CtrQuarantine   // blocks/pages written off as irreparable

	NumCounters // sentinel
)

// counterNames indexes Counter -> stable export name.
var counterNames = [NumCounters]string{
	CtrAlloc:          "alloc_ops",
	CtrAllocFail:      "alloc_fail",
	CtrAllocHuge:      "alloc_huge",
	CtrAllocNanos:     "alloc_nanos",
	CtrFree:           "free_ops",
	CtrFreeHuge:       "free_huge",
	CtrPublishBatch:   "publish_bursts",
	CtrPublishedFrees: "published_frees",
	CtrFlush:          "flush_ops",
	CtrFence:          "fence_ops",
	CtrSegClaim:       "segment_claims",
	CtrCASAttempt:     "refcnt_cas_attempts",
	CtrCASRetry:       "refcnt_cas_retries",
	CtrEraBump:        "era_bumps",
	CtrQueueSend:      "queue_send",
	CtrQueueReceive:   "queue_receive",
	CtrQueueFull:      "queue_full",
	CtrQueueEmpty:     "queue_empty",
	CtrQueueStaleSlot: "queue_stale_slot",
	CtrLeakFlag:       "segments_flagged_leaking",
	CtrScanPass:       "segment_scans",
	CtrScanReclaimed:  "scan_blocks_reclaimed",
	CtrScanRelinked:   "scan_blocks_relinked",
	CtrRootSwept:      "rootrefs_swept",
	CtrClientFenced:   "clients_fenced",
	CtrRecoveryPass:   "recovery_passes",
	CtrRedoReplay:     "redo_replays",
	CtrMonitorTick:    "monitor_ticks",
	CtrFsckPass:       "fsck_passes",
	CtrFsckIssues:     "fsck_issues_found",
	CtrRepairAction:   "repair_actions",
	CtrQuarantine:     "quarantines",
}

// Name returns the counter's stable export name.
func (c Counter) Name() string {
	if c < 0 || c >= NumCounters {
		return "unknown"
	}
	return counterNames[c]
}

// Histo identifies one latency histogram.
type Histo int

// Histograms. Alloc latency is sampled (1/64 of operations) so the fast
// path stays flat; scan and recovery latencies are recorded on every pass.
const (
	HistAllocNS    Histo = iota // Malloc wall time (sampled)
	HistScanNS                  // segment-local scan wall time
	HistRecoveryNS              // full client-recovery wall time
	// HistDetectRecoverNS is the recovery-time SLO: first missed heartbeat
	// (or fence, when no miss was observed) to RECOVERED published.
	HistDetectRecoverNS
	// HistPublishBatch is a size (not latency) histogram: deferred frees
	// published per publication burst, showing how well free-path stores
	// amortize.
	HistPublishBatch
	NumHistos // sentinel
)

var histoNames = [NumHistos]string{
	HistAllocNS:         "alloc_ns",
	HistScanNS:          "segment_scan_ns",
	HistRecoveryNS:      "recovery_ns",
	HistDetectRecoverNS: "detect_to_recovered_ns",
	HistPublishBatch:    "publish_batch_size",
}

// Name returns the histogram's stable export name.
func (h Histo) Name() string {
	if h < 0 || h >= NumHistos {
		return "unknown"
	}
	return histoNames[h]
}

// HistBuckets is the number of log2-scaled buckets per histogram. Bucket i
// counts observations v with bits.Len64(v) == i, i.e. v in [2^(i-1), 2^i);
// the last bucket absorbs everything larger (≥ ~1s in nanoseconds).
const HistBuckets = 31

// bucketOf maps a non-negative observation to its bucket index.
func bucketOf(v int64) int {
	if v < 0 {
		v = 0
	}
	b := bits.Len64(uint64(v))
	if b >= HistBuckets {
		b = HistBuckets - 1
	}
	return b
}

// BucketUpper returns the exclusive upper bound of bucket i (the value all
// observations in the bucket are below), used when reporting quantiles.
func BucketUpper(i int) uint64 {
	if i >= 63 {
		return ^uint64(0)
	}
	return uint64(1) << uint(i)
}

// Shard is one client's private slice of the metrics core. All writes to a
// shard come from a single client (or, for the pool shard, through atomics
// only), and the trailing pad keeps adjacent shards off each other's cache
// lines.
type Shard struct {
	counters [NumCounters]atomic.Uint64
	histos   [NumHistos][HistBuckets]atomic.Uint64
	_        [64]byte
}

// Inc adds one to counter c. Safe for concurrent use; nil-safe so detached
// code paths (tests constructing bare clients) cost one predictable branch.
func (s *Shard) Inc(c Counter) {
	if s == nil {
		return
	}
	s.counters[c].Add(1)
}

// Add adds v to counter c.
func (s *Shard) Add(c Counter, v uint64) {
	if s == nil || v == 0 {
		return
	}
	s.counters[c].Add(v)
}

// Get reads counter c.
func (s *Shard) Get(c Counter) uint64 {
	if s == nil {
		return 0
	}
	return s.counters[c].Load()
}

// SetCounters publishes a full counter vector into the shard with atomic
// stores. It is the fast-path escape hatch for single-writer shards: the
// owner accumulates counts in plain local memory and publishes the running
// totals periodically, so the hot path pays plain increments instead of one
// atomic RMW per event. Only the shard's single writer may call it (it
// overwrites, not adds). It stores only the counters that changed: with one
// writer, readers see exactly what storing them all would leave.
func (s *Shard) SetCounters(v *[NumCounters]uint64) {
	if s == nil {
		return
	}
	for i := range v {
		if s.counters[i].Load() != v[i] {
			s.counters[i].Store(v[i])
		}
	}
}

// Observe records one latency observation (in ns) into histogram h.
func (s *Shard) Observe(h Histo, ns int64) {
	if s == nil {
		return
	}
	s.histos[h][bucketOf(ns)].Add(1)
}

// Bucket reads one histogram bucket (telemetry publication reads the
// shard's vectors word by word).
func (s *Shard) Bucket(h Histo, i int) uint64 {
	if s == nil {
		return 0
	}
	return s.histos[h][i].Load()
}

// BucketOf exposes the bucket index for an observation, for writers that
// maintain histogram vectors outside a Shard (the shared pool block's
// CAS-added buckets).
func BucketOf(v int64) int { return bucketOf(v) }

// Registry is the sharded counter/histogram core for one pool: shard 0 is
// the pool/recovery-service shard, shards 1..n are per-client (indexed by
// client ID).
type Registry struct {
	shards []Shard
}

// NewRegistry creates a registry with nshards shards (minimum 1).
func NewRegistry(nshards int) *Registry {
	if nshards < 1 {
		nshards = 1
	}
	return &Registry{shards: make([]Shard, nshards)}
}

// Shard returns shard i, clamping out-of-range indices to the pool shard so
// callers never need bounds checks.
func (r *Registry) Shard(i int) *Shard {
	if r == nil {
		return nil
	}
	if i < 0 || i >= len(r.shards) {
		i = 0
	}
	return &r.shards[i]
}

// NumShards reports how many shards the registry holds.
func (r *Registry) NumShards() int {
	if r == nil {
		return 0
	}
	return len(r.shards)
}

// Counters sums every shard into one counter vector.
func (r *Registry) Counters() [NumCounters]uint64 {
	var out [NumCounters]uint64
	if r == nil {
		return out
	}
	for i := range r.shards {
		s := &r.shards[i]
		for c := Counter(0); c < NumCounters; c++ {
			out[c] += s.counters[c].Load()
		}
	}
	return out
}

// Histogram sums histogram h across every shard.
func (r *Registry) Histogram(h Histo) [HistBuckets]uint64 {
	var out [HistBuckets]uint64
	if r == nil {
		return out
	}
	for i := range r.shards {
		s := &r.shards[i]
		for b := 0; b < HistBuckets; b++ {
			out[b] += s.histos[h][b].Load()
		}
	}
	return out
}
