// Package obs is the pool-wide observability vocabulary: the counter and
// histogram enums with their stable export names, the log2 bucket maths, the
// exportable Snapshot, and the recovery lifecycle events the pool's
// crash-surviving event ring records (shm.Pool.Trace).
//
// obs stores nothing. Every counter and histogram lives in one place, the
// pool's telemetry region (shm.Telemetry): a client accumulates its counts
// and buckets in plain owner-only memory and publishes them into its own
// metric block on heartbeat, flush and close; pool-wide facts (fences,
// recovery passes, leak flags, monitor ticks, fsck passes) are CAS-added
// into the pool block once, where they happen. Readers (shm.Pool.Obs,
// cxlshm.Pool.Stats, cxltop) sum the blocks, so the totals outlive every
// process that wrote them and read the same from any process that maps the
// pool.
package obs

import "math/bits"

// Counter identifies one pool-wide counter. Each telemetry metric block
// carries one word per counter; the pool's total is their sum.
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

// BucketOf maps a non-negative observation to its bucket index.
func BucketOf(v int64) int {
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
