package obs

import (
	"fmt"
	"time"
)

// EventType classifies one recovery lifecycle event.
type EventType uint8

// Recovery lifecycle events (paper §3.2, §5.3): the runtime record of the
// correctness story — who was fenced and why, which segments were marked
// POTENTIAL_LEAKING, and which interrupted transactions recovery replayed via
// Conditions 1/2. The pool's event ring stores the numbers, so a value, once
// given, is never reused. Segment-local scans are counted (CtrScanPass,
// CtrScanReclaimed, CtrScanRelinked, HistScanNS), not traced.
const (
	EvClientFenced     EventType = iota + 1 // client RAS-fenced; A = FenceReason
	EvRecoveryStarted                       // RecoverClient began for Client
	EvRecoveryFinished                      // RecoverClient done; A = blocks reclaimed, B = roots swept
	EvSegmentFlagged                        // Segment newly marked POTENTIAL_LEAKING
	_                                       // 5, 6: retired segment-scan events
	_
	EvRedoReplayed   // interrupted txn replayed; A = redo op, B = deciding condition (1/2)
	EvRecoveryFailed // RecoverClient errored; A = failed attempts of Client's current death so far
	EvRepairApplied  // fsck repaired the pool; A = issues found, B = actions applied
	EvRepairFailed   // a maintenance scan failed; A = failed attempts, Segment = the segment
)

var eventNames = map[EventType]string{
	EvClientFenced:     "client_fenced",
	EvRecoveryStarted:  "recovery_started",
	EvRecoveryFinished: "recovery_finished",
	EvSegmentFlagged:   "segment_flagged_leaking",
	EvRedoReplayed:     "redo_replayed",
	EvRecoveryFailed:   "recovery_failed",
	EvRepairApplied:    "repair_applied",
	EvRepairFailed:     "repair_failed",
}

// String returns the event type's stable export name.
func (t EventType) String() string {
	if n, ok := eventNames[t]; ok {
		return n
	}
	return fmt.Sprintf("event_%d", uint8(t))
}

// MarshalJSON exports the type by name.
func (t EventType) MarshalJSON() ([]byte, error) {
	return []byte(fmt.Sprintf("%q", t.String())), nil
}

// FenceReason says why a client was fenced (carried in EvClientFenced.A).
type FenceReason uint8

// Fence reasons.
const (
	FenceUnknown   FenceReason = iota
	FenceExplicit              // Pool.MarkClientDead / Pool.Recover / tests
	FenceClose                 // the client called Close itself
	FenceHeartbeat             // the monitor saw its heartbeat stall
)

// String names the reason.
func (r FenceReason) String() string {
	switch r {
	case FenceExplicit:
		return "explicit"
	case FenceClose:
		return "close"
	case FenceHeartbeat:
		return "heartbeat-timeout"
	}
	return "unknown"
}

// Event is one traced recovery lifecycle event. A and B carry per-type
// detail values (see the EventType constants).
type Event struct {
	Seq     uint64    `json:"seq"`
	Time    time.Time `json:"time"`
	Type    EventType `json:"type"`
	Client  int       `json:"client,omitempty"`
	Segment int       `json:"segment,omitempty"`
	A       uint64    `json:"a,omitempty"`
	B       uint64    `json:"b,omitempty"`
}

// String renders the event for humans.
func (e Event) String() string {
	switch e.Type {
	case EvClientFenced:
		return fmt.Sprintf("#%d %s client=%d reason=%s", e.Seq, e.Type, e.Client, FenceReason(e.A))
	case EvRecoveryFinished:
		return fmt.Sprintf("#%d %s client=%d reclaimed=%d roots_swept=%d", e.Seq, e.Type, e.Client, e.A, e.B)
	case EvRedoReplayed:
		return fmt.Sprintf("#%d %s client=%d op=%d condition=%d", e.Seq, e.Type, e.Client, e.A, e.B)
	case EvSegmentFlagged:
		return fmt.Sprintf("#%d %s seg=%d client=%d", e.Seq, e.Type, e.Segment, e.Client)
	}
	return fmt.Sprintf("#%d %s client=%d seg=%d", e.Seq, e.Type, e.Client, e.Segment)
}
