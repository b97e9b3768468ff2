package faultinject

import (
	"fmt"

	"repro/internal/cxl"
)

// AccessSweeper makes every device write a crash position: a
// campaign first runs an operation once in counting mode to learn how many
// device stores/CAS attempts the victim issues, then re-runs it once per
// write index with the sweeper armed, crashing the victim exactly before
// that access executes (the hook fires pre-access, so "crash at write n"
// means writes 1..n-1 landed and write n did not).
//
// The sweeper's Hook method is a cxl.AccessHook; install it as the pool
// device's cxl.Intercept.Access. Sweeps are single-goroutine by construction (one
// scripted operation at a time), so the state is plain fields.
type AccessSweeper struct {
	victim int // client ID whose writes are counted; -1 matches every ID
	mode   int
	writes int
	target int
}

const (
	swOff = iota
	swCount
	swArmed
)

// NewAccessSweeper returns an idle sweeper matching every client.
func NewAccessSweeper() *AccessSweeper {
	return &AccessSweeper{victim: -1}
}

// SetVictim restricts the sweeper to writes issued by client cid. Pass -1 to
// match every client, including the cid-0 management plane (used to sweep the
// recovery service's own writes).
func (s *AccessSweeper) SetVictim(cid int) { s.victim = cid }

// StartCounting begins a counting pass: matching writes are tallied, none
// crash.
func (s *AccessSweeper) StartCounting() {
	s.mode = swCount
	s.writes = 0
}

// StopCounting ends the counting pass and returns the tally.
func (s *AccessSweeper) StopCounting() int {
	s.mode = swOff
	return s.writes
}

// Arm prepares the sweeper to crash at the n-th (1-based) matching write.
func (s *AccessSweeper) Arm(n int) {
	s.mode = swArmed
	s.writes = 0
	s.target = n
}

// Disarm turns the sweeper off (epilogue, recovery, validation run clean).
func (s *AccessSweeper) Disarm() { s.mode = swOff }

// SweepPoint labels the crash before write index n.
func SweepPoint(n int) Point {
	return Point(fmt.Sprintf("sweep/write-%d", n))
}

// Hook is the cxl.AccessHook. Only mutating accesses count: stores and CAS
// attempts (a failed CAS still counts — the attempt is a deterministic,
// device-visible event, and crashing on it exercises the retry paths).
func (s *AccessSweeper) Hook(cid int, kind cxl.AccessKind, _ cxl.Addr) {
	if s.mode == swOff {
		return
	}
	if kind != cxl.OpStore && kind != cxl.OpCAS {
		return
	}
	if s.victim >= 0 && cid != s.victim {
		return
	}
	s.writes++
	if s.mode == swArmed && s.writes == s.target {
		panic(Crash{Point: SweepPoint(s.target)})
	}
}
