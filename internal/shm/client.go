package shm

import (
	"os"
	"time"

	"repro/internal/layout"
	"repro/internal/obs"
)

// Client is one participant of the RDSM: a thread, process, or machine with
// its own failure domain. A Client is single-goroutine (the paper's model is
// one client per thread; CXLRef is explicitly not thread-safe, §3.1); the
// Pool underneath is fully concurrent.
type Client struct {
	// Reader holds the client's pool and its handle h, the one path every
	// device access takes, and carries the load-side data accessors
	// (data.go).
	Reader
	geo *layout.Geometry
	cid int

	// gen is the slot lease generation stamped on this incarnation at
	// Connect (odd while leased; see slotlease.go).
	gen uint64

	// era is the cached value of Era[cid][cid] (the device word is the
	// authoritative copy, written through on every bump): a whole 64-bit
	// era, of which headers and the redo commit word carry the low half.
	era uint64
	// logEra is the era of the last logged redo entry; bumpEra clears the
	// entry once the era has run 2³¹ past it (redo.go).
	logEra uint64
	// eraRow caches Era[cid][j] for j != cid, avoiding a device load per
	// observation; also written through. Populated lazily: eraKnown[j]
	// says whether entry j was seeded from the device yet, so Connect
	// costs O(1) device loads instead of M and a client only ever touches
	// the columns of peers it actually interacts with.
	eraRow   []uint64
	eraKnown []bool

	// classPages[c] lists this client's pages of size class c that may have
	// free blocks. rootPages lists its RootRef pages. Local caches only:
	// recovery reconstructs everything from segment metadata (shadow.go).
	classPages [][]*ownedPage
	rootPages  []*ownedPage
	// owned lists the shadows of owned segments in claim order; ownedBySeg
	// indexes them by segment for the free path's ownership test.
	owned      []*ownedSeg
	ownedBySeg []*ownedSeg
	// segCursor/hugeCursor stripe claim scans across clients so they do not
	// all CAS-contend on the lowest free segments (alloc.go).
	segCursor  int
	hugeCursor int
	// queues caches per-queue geometry and Vyukov-style head/tail indices
	// (queue.go); device words stay authoritative, rebuilt on reconnect.
	queues map[layout.Addr]*queueShadow

	// pendPages lists owned pages carrying deferred (unpublished) frees or
	// Used-counter deltas; pendCount totals the unpublished frees across
	// them (bounded by pendCap, shadow.go).
	pendPages []*ownedPage
	pendCount int
	// inflightRoot is the RootRef slot taken by the current malloc but not
	// yet claimed in_use (alloc.go). The window spans findBlock, which can
	// scan this client's own segments — the scan must count the slot live,
	// not re-link it as lost (scan.go).
	inflightRoot layout.Addr
	// scr is the reusable scratch of the segment scan and the reclaim
	// cascade (scan.go).
	scr scanScratch

	// epochTrigger/epochSeq record the most recent publication epoch
	// (shadow.go): what fired it and how many have run. Diagnostics only —
	// the crash sweep names the trigger in its repro lines.
	epochTrigger string
	epochSeq     uint64

	// loc and hist are this client's counters and histogram buckets, in
	// plain owner-only memory: hot paths pay a plain increment, no atomic
	// and no device access. FlushMetrics (on Heartbeat, on Close, at the
	// end of a recovery pass) publishes both into the client's metric block
	// in the pool's telemetry region, their one store; a crashed client's
	// counts since its last publication are lost with it. Every lessee
	// starts them from zero.
	loc  [obs.NumCounters]uint64
	hist [obs.NumHistos][obs.HistBuckets]uint64
	// telLast is what this incarnation last stored into each slot of its
	// telemetry block: FlushMetrics stores only what changed (telemetry.go).
	telLast TelLast
	// timing, when set (SetBreakdown), charges full Malloc wall time into
	// the metrics for the Figure 7 breakdown. Latency histograms are
	// sampled regardless (1/allocSampleEvery).
	timing bool
	// allocSeq counts Malloc calls for latency sampling.
	allocSeq uint64

	closed bool
}

// Connect leases a client slot and joins the pool. The claim is
// bitmap-guided (slotlease.go): O(1) device CASes regardless of MaxClients
// or how many slots are occupied, with a linear status scan only as the
// authoritative fallback. The lease is stamped with the slot's generation
// word (odd = leased), and the new incarnation continues the slot's era
// sequence so committed-era uniqueness is preserved across reuse. On
// exhaustion the returned error is a *SlotExhaustedError carrying the slot
// census; errors.Is(err, ErrTooManyClients) still matches it.
func (p *Pool) Connect() (*Client, error) {
	geo := p.geo
	cid := p.claimSlot()
	if cid == 0 {
		alive, dead := p.slotCensus()
		return nil, &SlotExhaustedError{Capacity: geo.MaxClients, Alive: alive, Dead: dead}
	}
	gen := p.stampLeaseGen(cid)
	c := &Client{
		Reader:     Reader{pool: p, h: p.dev.Open(cid)},
		geo:        geo,
		cid:        cid,
		gen:        gen,
		eraRow:     make([]uint64, geo.MaxClients+1),
		eraKnown:   make([]bool, geo.MaxClients+1),
		classPages: make([][]*ownedPage, len(geo.Classes)),
		ownedBySeg: make([]*ownedSeg, geo.NumSegments),
		queues:     make(map[layout.Addr]*queueShadow),
	}
	// Stripe claim-scan start positions by client ID so concurrent claimers
	// spread across the Global Segment Allocation Vec instead of CAS-fighting
	// over its lowest entries.
	c.segCursor = ((cid - 1) * geo.NumSegments) / geo.MaxClients
	c.hugeCursor = c.segCursor
	// Continue the era sequence of the previous incarnation; start at 1 on a
	// fresh slot (era 0 is never committed, so the all-zero matrix can't
	// satisfy recovery's Condition 2 spuriously).
	c.era = p.dev.Load(geo.EraAddr(cid, cid)) + 1
	c.logEra = c.era
	c.h.Store(geo.EraAddr(cid, cid), c.era)
	// The era row is NOT loaded here: observeEra seeds each column from the
	// device on first touch (the row survives slot reuse, and its witness
	// entries must never travel backwards, so the first write still reads
	// the device). This keeps attach cost independent of MaxClients.
	// Defensive: a redo entry of a previous incarnation must never survive
	// into this one (recovery clears it before publishing RECOVERED, but the
	// slot may also be claimed straight from FREE after an external reset).
	c.clearRedo()
	// Scrub the previous lessee's telemetry block before stamping our own
	// identity: its final vector stays readable only while the slot is idle
	// (dead-client forensics), never once a new incarnation owns the block.
	p.tel.ScrubBlock(c.h, cid)
	p.tel.StampIdentity(c.h, cid, uint64(os.Getpid()))
	c.Heartbeat()
	return c, nil
}

// Generation returns the slot lease generation stamped on this client at
// Connect. Generations are monotonic per slot — every successful lease of
// a slot observes a strictly greater generation than the previous lease —
// so a (cid, generation) pair names one incarnation unambiguously.
func (c *Client) Generation() uint64 { return c.gen }

// ID returns the client's ID (1-based).
func (c *Client) ID() int { return c.cid }

// Era returns the client's current era (Era[cid][cid]).
func (c *Client) Era() uint64 { return c.era }

// SetBreakdown binds a Figure 7 cost view to this client's metrics and
// enables full Malloc wall-time accounting.
func (c *Client) SetBreakdown(b *Breakdown) {
	b.attach(c)
	c.timing = true
}

// Count reads the client's own running total of counter ctr, published or
// not (the owner's goroutine only).
func (c *Client) Count(ctr obs.Counter) uint64 { return c.loc[ctr] }

// observe records one observation into the client's histogram h.
func (c *Client) observe(h obs.Histo, v int64) { c.hist[h][obs.BucketOf(v)]++ }

// FlushMetrics publishes the client's counters and histograms into its
// metric block in the pool's telemetry region, through its RAS-fenceable
// handle: once the client is fenced a straggling publication is dropped by
// the device, so it can never clobber the final pre-fence vector forensics
// read (and the slot's next lessee owns the block). Only the client's own
// goroutine (or a caller that happens-after it, e.g. after a worker join)
// may call it. Never called from the era-bump path — publication cost (the
// words that changed, a few hundred plain stores the first two times) stays
// off the allocation fast path and out of its access budgets.
func (c *Client) FlushMetrics() {
	if c.h.Fenced() {
		return
	}
	c.pool.tel.PublishShard(c.h, c.cid, &c.loc, &c.hist, time.Now().UnixNano(), &c.telLast)
}

// Heartbeat advances the client's liveness counter; the monitor declares
// clients dead when the counter stops advancing. Heartbeating also
// publishes the client's metrics into the pool's telemetry region, so the
// same "I'm alive" cadence keeps the counters every process sees fresh, and
// a client that stops beating leaves behind a vector at most one heartbeat
// old.
func (c *Client) Heartbeat() {
	// Heartbeats are also a publication epoch: deferred frees and page
	// counters land on the device at the same "I'm alive" cadence, so the
	// pool image other processes see is at most one heartbeat stale.
	c.flushPending(EpochHeartbeat)
	a := c.geo.ClientHeartbeatAddr(c.cid)
	c.h.Store(a, c.h.Load(a)+1)
	c.FlushMetrics()
}

// Fenced reports whether this client has been RAS-fenced.
func (c *Client) Fenced() bool { return c.h.Fenced() }

// Close marks the client dead so the recovery service reclaims everything
// it still possesses. A client that released all its references beforehand
// leaves nothing to reclaim; one that exits holding references relies on
// recovery, exactly like a crashed client (the paper draws no distinction:
// clients "are free to join, exit, and even fail", §1.2).
func (c *Client) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	// A fenced incarnation is already dead, and its slot may be leased again:
	// marking the slot dead now would kill the new lessee.
	if c.h.Fenced() {
		return nil
	}
	// Publish deferred frees before the fence: after MarkClientDeadDetected
	// the device drops this client's stores, and the pending blocks would
	// stay off every list (which a dead owner's segment scan tolerates).
	c.flushPending(EpochDetach)
	c.FlushMetrics()
	return c.pool.MarkClientDeadDetected(c.cid, obs.FenceClose, 0)
}

// Crash simulates an abrupt client death: identical to Close but named for
// test readability.
func (c *Client) Crash() error { return c.Close() }

// --- era matrix bookkeeping ---

// observeEra implements lines 4–6 of Figure 4(c): record the largest era of
// lcid this client has seen, given lera, the low half of it that a header
// word carries (read before this call). Write-through with a local cache;
// row cid is single-writer (this client), so the cache is exact.
//
// The whole era is lera widened against cur, lcid's own era word read after
// the header (a header's era is at most its writer's current one): loaded
// here when the caller passes 0. The load is skipped when lera repeats the
// witness's low half, which is a header already witnessed (or one exactly
// k·2³² eras later, DESIGN.md §4).
func (c *Client) observeEra(lcid uint16, lera uint32, cur uint64) {
	j := int(lcid)
	if j <= 0 || j > c.geo.MaxClients || j == c.cid {
		return
	}
	if !c.eraKnown[j] {
		// Lazy first touch: the row survives slot reuse and may hold the
		// previous incarnation's witness entries, which must never travel
		// backwards — seed the cache from the device before comparing.
		c.eraRow[j] = c.h.Load(c.geo.EraAddr(c.cid, j))
		c.eraKnown[j] = true
	}
	if uint32(c.eraRow[j]) == lera {
		return
	}
	if cur == 0 {
		cur = c.h.Load(c.geo.EraAddr(j, j))
	}
	if e, ok := layout.WidenEra(lera, cur); ok && e > c.eraRow[j] {
		c.eraRow[j] = e
		c.h.Store(c.geo.EraAddr(c.cid, j), e)
	}
}

// bumpEra increments Era[cid][cid] after a committed header publication
// (line 12 of Figure 4(c); also after allocation's header init so every
// published (cid, era) pair is unique to one commit — recovery's Conditions
// 1 and 2 rely on that uniqueness).
func (c *Client) bumpEra() {
	c.era++
	c.h.Store(c.geo.EraAddr(c.cid, c.cid), c.era)
	if c.era-c.logEra == 1<<31 {
		c.clearRedo() // see redo.go: the entry's era field is about to alias
	}
	c.loc[obs.CtrEraBump]++
}
