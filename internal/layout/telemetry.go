package layout

import "repro/internal/obs"

// The telemetry region is the crash-surviving observability area of the
// pool: per-client metric blocks, a pool-wide metric block, per-client
// recovery timelines, and a shared recovery-event ring. It lives in the
// pool words themselves (after the segments area, so every pre-telemetry
// address is unchanged), which means it shares the device's failure
// domain — a client's last published counters and the timeline of its
// death survive a kill -9 of any process, and any process mapping the
// pool (read-only included) can read them.
//
// Region layout, relative to Geometry.TelemetryBase:
//
//	word 0                      TelMagic
//	word 1                      obs.NumCounters at format time
//	word 2                      obs.NumHistos at format time
//	word 3                      obs.HistBuckets at format time
//	word 4                      event-ring capacity (records)
//	word 5                      event-ring next sequence (CAS fetch-add)
//	word 6                      timeline words per client
//	word 7                      reserved
//	word 8..                    MaxClients timeline blocks × TelTimelineWords
//	...                         MaxClients+1 metric blocks × TelBlockWords
//	                            (block 0 = pool block, 1..MaxClients = clients)
//	...                         ring: TelRingRecords records × TelRecordWords
//
// Each metric block (TelBlockWords):
//
//	word 0                      commit word: pubCount<<1 | activeSlot
//	                            (0 = never published)
//	word 1                      writer identity (OS pid)
//	word 2..7                   reserved
//	word 8                      slot 0
//	word 8+TelSlotWords         slot 1
//
// Each slot (TelSlotWords):
//
//	word 0                      publish time (unix nanoseconds)
//	word 1                      reserved
//	word 2..                    obs.NumCounters counter words
//	...                         obs.NumHistos × obs.HistBuckets bucket words
//
// Publication is double-buffered: the writer fills the inactive slot and
// flips the commit word last, so a crash mid-publication leaves the
// previously committed slot intact — the seqlock can never destroy the
// last stable vector. The pool block is the exception: it has multiple
// writers across processes, so its slot-0 words are CAS-added in place
// (each word individually monotonic; its commit word stays 0).
//
// Each timeline block (TelTimelineWords) records one client slot's most
// recent death and recovery, stamped by whoever fences/recovers:
//
//	word 0                      death seqlock: bumped to odd at fence
//	                            reset, even when the reset is complete;
//	                            value/2 counts deaths on this slot
//	word 1                      first missed heartbeat (unix ns, 0=unknown)
//	word 2                      fenced at (unix ns)
//	word 3                      fence reason (obs.FenceReason)
//	word 4                      latest recovery attempt started (unix ns)
//	word 5                      recovery attempts for this death
//	word 6                      redo replays for this death
//	word 7                      recovered at (unix ns, 0 until recovered)
//	word 8                      detect→recovered duration (ns)
//	word 9                      completed recoveries on this slot (all deaths)
//	word 10                     blocks reclaimed by the last recovery
//	word 11                     roots swept by the last recovery
//	word 12..15                 reserved
//
// Each ring record (TelRecordWords) is one recovery-lifecycle event (the
// only record of it: shm.Pool.Trace writes here directly), claimed by CAS fetch-add on the ring-sequence header word:
//
//	word 0                      commit: sequence+1, written last (0=empty)
//	word 1                      event time (unix ns)
//	word 2                      obs.EventType
//	word 3                      client
//	word 4                      segment
//	word 5                      detail A
//	word 6                      detail B
//	word 7                      reserved
const (
	// TelMagic tags a formatted telemetry region ("CXLTEL1" little-endian).
	TelMagic = 0x314C45544C5843

	TelHeaderWords   = 8
	TelTimelineWords = 16
	TelRecordWords   = 8
	// TelRingRecords is the shared recovery-event ring capacity. Fixed:
	// it is part of the layout, and 256 records of rare lifecycle events
	// cover many deaths of forensic history.
	TelRingRecords = 256
	// telBlockHdrWords is the metric-block header (commit + identity + pad).
	telBlockHdrWords = 8
)

// Telemetry header word offsets (relative to TelemetryBase).
const (
	TelOffMagic         = 0
	TelOffNumCounters   = 1
	TelOffNumHistos     = 2
	TelOffHistBuckets   = 3
	TelOffRingCap       = 4
	TelOffRingSeq       = 5
	TelOffTimelineWords = 6
)

// Metric-block word offsets (relative to TelBlockBase).
const (
	TelBlockOffCommit   = 0
	TelBlockOffIdentity = 1
)

// Metric-slot word offsets (relative to TelSlotBase).
const (
	TelSlotOffTime     = 0
	TelSlotOffCounters = 2
)

// Timeline word offsets (relative to TelTimelineBase).
const (
	TlOffDeathSeq  = 0
	TlOffFirstMiss = 1
	TlOffFenced    = 2
	TlOffReason    = 3
	TlOffAttempt   = 4
	TlOffAttempts  = 5
	TlOffReplays   = 6
	TlOffRecovered = 7
	TlOffDuration  = 8
	TlOffCompleted = 9
	TlOffReclaimed = 10
	TlOffSwept     = 11
)

// Ring-record word offsets (relative to TelRingRecordBase).
const (
	TelRecOffCommit  = 0
	TelRecOffTime    = 1
	TelRecOffType    = 2
	TelRecOffClient  = 3
	TelRecOffSegment = 4
	TelRecOffA       = 5
	TelRecOffB       = 6
)

// telSlotWords computes the per-slot word count for this build's obs
// dimensions, cache-line aligned.
func telSlotWords() uint64 {
	n := uint64(TelSlotOffCounters) + uint64(obs.NumCounters) + uint64(obs.NumHistos)*uint64(obs.HistBuckets)
	return (n + 7) &^ 7
}

// TelHeaderAddr returns the address of telemetry header word off.
func (g *Geometry) TelHeaderAddr(off int) Addr { return g.TelemetryBase + Addr(off) }

// TelRingSeqAddr returns the address of the ring's next-sequence word.
func (g *Geometry) TelRingSeqAddr() Addr { return g.TelemetryBase + TelOffRingSeq }

// TelTimelineBase returns the base of client cid's recovery timeline
// block (cid is 1-based).
func (g *Geometry) TelTimelineBase(cid int) Addr {
	return g.TelemetryBase + TelHeaderWords + Addr((cid-1)*TelTimelineWords)
}

// TelBlockBase returns the base of metric block idx: 0 is the pool
// block, 1..MaxClients are the per-client blocks.
func (g *Geometry) TelBlockBase(idx int) Addr {
	return g.TelemetryBase + TelHeaderWords +
		Addr(g.MaxClients*TelTimelineWords) + Addr(uint64(idx)*g.TelBlockWords)
}

// TelSlotBase returns the base of slot s (0 or 1) of metric block idx.
func (g *Geometry) TelSlotBase(idx, s int) Addr {
	return g.TelBlockBase(idx) + telBlockHdrWords + Addr(uint64(s)*g.TelSlotWords)
}

// TelRingRecordBase returns the base of ring record i.
func (g *Geometry) TelRingRecordBase(i int) Addr {
	return g.TelBlockBase(g.MaxClients+1) + Addr(i*TelRecordWords)
}

// telemetryWords returns the whole region's size for this geometry.
func (g *Geometry) telemetryWords() uint64 {
	return TelHeaderWords +
		uint64(g.MaxClients)*TelTimelineWords +
		uint64(g.MaxClients+1)*g.TelBlockWords +
		TelRingRecords*TelRecordWords
}
