package shm

import (
	"time"

	"repro/internal/obs"
)

// Breakdown is the Figure 7 cost-split view: where allocation fast-path
// time goes between cache flush, memory fence, and the rest of the
// allocation work. It is a window onto the client's local counters (the
// ones its heartbeats publish), recording their state at attach time so
// several breakdowns stay independent. Like the client itself, a Breakdown may only be read by
// the client's goroutine or after a happens-before join with it.
//
// Shares are computed from the configured per-operation costs rather than
// timing each ~100ns flush individually, which would perturb the
// measurement more than the thing measured.
type Breakdown struct {
	c         *Client
	baseFlush uint64
	baseFence uint64
	baseOps   uint64
	baseNanos uint64
}

// attach binds the view to a client (Client.SetBreakdown).
func (b *Breakdown) attach(c *Client) {
	b.c = c
	b.baseFlush = c.loc[obs.CtrFlush]
	b.baseFence = c.loc[obs.CtrFence]
	b.baseOps = c.loc[obs.CtrAlloc] + c.loc[obs.CtrAllocFail]
	b.baseNanos = c.loc[obs.CtrAllocNanos]
}

// FlushOps returns the cache-line flushes performed since attach.
func (b *Breakdown) FlushOps() uint64 { return b.c.loc[obs.CtrFlush] - b.baseFlush }

// FenceOps returns the memory fences performed since attach.
func (b *Breakdown) FenceOps() uint64 { return b.c.loc[obs.CtrFence] - b.baseFence }

// Ops returns the Malloc calls made since attach.
func (b *Breakdown) Ops() uint64 {
	return b.c.loc[obs.CtrAlloc] + b.c.loc[obs.CtrAllocFail] - b.baseOps
}

// Total returns the wall time spent in Malloc since attach (requires the
// timing SetBreakdown enables).
func (b *Breakdown) Total() time.Duration {
	return time.Duration(b.c.loc[obs.CtrAllocNanos] - b.baseNanos)
}

// Shares returns the flush/fence/alloc split in percent, given the modelled
// per-operation costs in nanoseconds.
func (b *Breakdown) Shares(flushNS, fenceNS int) (flush, fence, alloc float64) {
	return BreakdownShares(b.FlushOps(), b.FenceOps(), b.Total(), flushNS, fenceNS)
}

// BreakdownShares computes the Figure 7 split from aggregated flush/fence
// counts and total allocation wall time (summed across threads).
func BreakdownShares(flushOps, fenceOps uint64, total time.Duration, flushNS, fenceNS int) (flush, fence, alloc float64) {
	if total <= 0 {
		return 0, 0, 0
	}
	t := float64(total.Nanoseconds())
	flush = 100 * float64(flushOps) * float64(flushNS) / t
	fence = 100 * float64(fenceOps) * float64(fenceNS) / t
	if flush > 100 {
		flush = 100
	}
	if flush+fence > 100 {
		fence = 100 - flush
	}
	alloc = 100 - flush - fence
	return
}

// timedFence performs an SFence, counting it.
func (c *Client) timedFence() {
	c.h.SFence()
	c.loc[obs.CtrFence]++
}

// timedFlush performs a Flush, counting it.
func (c *Client) timedFlush(a uint64) {
	c.h.Flush(a)
	c.loc[obs.CtrFlush]++
}
