// Package sweep implements the exhaustive access-granular crash sweep: for
// every operation of a scripted two-client workload it first counts the
// operation's device writes (stores and CAS attempts), then re-runs the
// script once per write index, crashing the acting client exactly before
// that access. After every crash it runs recovery, drains and releases
// everything a survivor can reach, and fscks the whole pool — so each
// (operation, write index) pair is a complete crash-recover-validate story.
//
// This is the repository's one crash model: a CPU can die between any two
// stores, so the store index — not a hand-picked gap in the code — is the
// crash coordinate, and the product carries no injection sites. Phase B
// extends the same idea to the recovery pass itself: crash the victim, then
// crash the recovery executor at every one of its writes, recover both, and
// validate.
package sweep

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"repro/internal/check"
	"repro/internal/cxl"
	"repro/internal/faultinject"
	"repro/internal/layout"
	"repro/internal/recovery"
	"repro/internal/shm"
)

// Config tunes a sweep run.
type Config struct {
	// Backend is the device backend for every pool: "heap" (default) or
	// "mmap".
	Backend string
	// MaxWrites bounds crash positions per operation (0 = every write). When
	// an operation has more writes, positions are stride-sampled but always
	// include the first and last write.
	MaxWrites int
	// RecoverySweep enables phase B: for each operation, crash the victim at
	// its first write, then sweep every device write of the recovery pass.
	RecoverySweep bool
	// Op restricts the sweep to the named operation (repro mode).
	Op string
	// Access restricts to one crash position (requires Op).
	Access int
	// RecoveryAccess, with Op, reproduces one phase-B position: the victim
	// crashes at its first write, the recovery executor at this write.
	RecoveryAccess int
	// Clients sizes the pool's client-slot table (0 = the default 8). The
	// workload still drives the same scripted actors; a larger table checks
	// that slot claims, heartbeat scans and the era matrix stay correct —
	// and crash positions reproducible — at attachment-scale geometry.
	Clients int
	// WrapEras is the wrap leg: every slot's era word starts wrapLead below
	// 2³² (stored by the harness before anyone connects), so the script's
	// transactions run across the line where a header's 32-bit lera wraps
	// while the eras themselves go on.
	WrapEras bool
	// Log, when set, receives progress lines.
	Log func(format string, args ...any)
}

// Violation is one invariant failure found by the sweep, with enough
// coordinates to reproduce it deterministically.
type Violation struct {
	Op             string
	Access         int
	RecoveryAccess int // 0 for phase-A violations
	Backend        string
	WrapEras       bool
	// Epoch names the deferred-publication epoch trigger (refill,
	// heartbeat, scan, detach, ...) when one ran inside the crashed
	// operation — the crash then landed before, during, or after a
	// publication burst, which is the first thing to know when triaging.
	// Empty when the operation ran no epoch.
	Epoch  string
	Detail string
}

// Repro formats the minimal-repro faultsim invocation for this violation.
func (v Violation) Repro() string {
	s := fmt.Sprintf("faultsim -repro \"op=%s access=%d", v.Op, v.Access)
	if v.Epoch != "" {
		s += fmt.Sprintf(" epoch=%s", v.Epoch)
	}
	if v.RecoveryAccess > 0 {
		s += fmt.Sprintf(" recovery-access=%d", v.RecoveryAccess)
	}
	b := v.Backend
	if b == "" {
		b = "heap"
	}
	s += fmt.Sprintf("\" -backend %s", b)
	if v.WrapEras {
		s += " -wrap"
	}
	return s
}

func (v Violation) String() string {
	return fmt.Sprintf("%s: %s", v.Repro(), v.Detail)
}

// Stats summarizes a sweep.
type Stats struct {
	Ops               int // operations swept
	Positions         int // phase-A crash positions executed
	RecoveryPositions int // phase-B crash positions executed
}

// wrapLead is how far below 2³² the wrap leg starts every slot's era. x then
// crosses the line inside share-remote, just after o witnessed its attach
// there, so x's releases in the ops after it run at eras whose low half is
// below that witness's: a Condition 2 that compared low halves would call
// them committed.
const wrapLead = 64

// hugeBytes spans 8 of the 16 sweep segments, so the second huge allocation
// must recycle the first one's segments (the remaining free run is too
// short) — exercising recovery over recycled segment bases.
const hugeBytes = 500 * 1024

func geometry(clients int) layout.GeometryConfig {
	if clients <= 0 {
		clients = 8
	}
	return layout.GeometryConfig{
		MaxClients: clients, NumSegments: 16, SegmentWords: 1 << 13,
		PageWords: 1 << 9, MaxQueues: 8,
	}
}

// env is the per-run workload state: the pool, the two scripted clients, the
// recovery service, and the addresses the ops thread through. receipts is
// the exactly-once ledger: payload id -> times delivered.
type env struct {
	p   *shm.Pool
	x   *shm.Client // primary actor (allocations, sends)
	o   *shm.Client // peer (receives, queue end)
	svc *recovery.Service

	// extra is the slot-recycle leg's fourth client: attached, crashed,
	// reclaimed, and re-attached over the same slot. extraCID/extraGen
	// remember the first lease so the re-attach can assert slot identity and
	// generation monotonicity; zombie keeps the reclaimed first incarnation.
	extra    *shm.Client
	extraCID int
	extraGen uint64
	zombie   *shm.Client

	r1, b1       layout.Addr   // long-lived small object, published as named root 0
	rp, parent   layout.Addr   // embed-carrying parent
	rh, rh2      layout.Addr   // huge-object roots
	bh           layout.Addr   // first huge object's block
	qr, q, oq    layout.Addr   // queue: x's root, block, o's root
	burst        []layout.Addr // roots of the deferred-free burst leg
	rro, rrx, bx layout.Addr   // remote-release legs: x's roots on o's and on extra's block, the latter block

	nextPayload uint64
	receipts    map[uint64]int
}

// op is one scripted step: who performs it and what it does.
type op struct {
	name  string
	actor func(*env) *shm.Client
	run   func(*env) error
}

func actorX(e *env) *shm.Client { return e.x }
func actorO(e *env) *shm.Client { return e.o }

func actorExtra(e *env) *shm.Client { return e.extra }

// mgmtOps names the operations swept with victim -1 instead of a scripted
// actor: their device writes come from the management plane (slot claim
// words, fences) and from a client that may not fully exist yet. A crash
// inside one simulates the attaching or recovering *process* dying, so the
// cleanup path (runPosition) treats the recovery executor as a casualty too.
var mgmtOps = map[string]bool{
	"connect-fresh":    true,
	"reclaim-extra":    true,
	"connect-recycled": true,
}

// sendFrom allocates a payload, stamps it with a fresh id, sends it, and
// drops the sender's root (the queue slot now owns the reference).
func sendFrom(e *env, c *shm.Client) error {
	id := e.nextPayload + 1
	r, b, err := c.Malloc(64, 0)
	if err != nil {
		return err
	}
	e.nextPayload = id
	c.StoreWord(b, 0, id)
	if err := c.Send(e.q, b); err != nil {
		return err
	}
	_, err = c.ReleaseRoot(r)
	return err
}

func sendOne(e *env) error { return sendFrom(e, e.x) }

// pushOnParent allocates an object with one embedded reference and pushes it
// at the head of the list in the embed-carrying parent's embed 1.
func pushOnParent(e *env) error {
	obj, err := e.x.MallocFresh(32, 1)
	if err != nil {
		return err
	}
	return e.x.PushEmbed(e.x.Span(e.parent), 1, e.x.LoadWord(e.parent, 1), obj)
}

// receiveFrom takes the queue's next payload through c, notes its delivery
// and releases c's root.
func receiveFrom(e *env, c *shm.Client) error {
	root, target, err := c.Receive(e.q)
	if err != nil {
		return err
	}
	e.receipts[c.LoadWord(target, 0)]++
	_, err = c.ReleaseRoot(root)
	return err
}

// script builds the operation list. Every run replays the same sequence, so
// write counts are reproducible position by position.
func script() []op {
	return []op{
		{"malloc-small", actorX, func(e *env) error {
			var err error
			e.r1, e.b1, err = e.x.Malloc(64, 0)
			return err
		}},
		{"clone-root", actorX, func(e *env) error {
			e.x.CloneRoot(e.r1)
			_, err := e.x.ReleaseRoot(e.r1)
			return err
		}},
		{"publish-root", actorX, func(e *env) error {
			return e.x.PublishRoot(0, e.b1)
		}},
		{"malloc-embed", actorX, func(e *env) error {
			var err error
			e.rp, e.parent, err = e.x.Malloc(64, 2)
			return err
		}},
		{"set-embed", actorX, func(e *env) error {
			rc, ch, err := e.x.Malloc(32, 0)
			if err != nil {
				return err
			}
			if err := e.x.SetEmbed(e.parent, 0, ch); err != nil {
				return err
			}
			_, err = e.x.ReleaseRoot(rc)
			return err
		}},
		{"change-embed", actorX, func(e *env) error {
			ry, y, err := e.x.Malloc(32, 1)
			if err != nil {
				return err
			}
			rg, g, err := e.x.Malloc(16, 0)
			if err != nil {
				return err
			}
			if err := e.x.SetEmbed(y, 0, g); err != nil {
				return err
			}
			if _, err := e.x.ReleaseRoot(rg); err != nil {
				return err
			}
			if err := e.x.ChangeEmbed(e.parent, 0, y); err != nil {
				return err
			}
			_, err = e.x.ReleaseRoot(ry)
			return err
		}},
		{"clear-embed", actorX, func(e *env) error {
			return e.x.ClearEmbed(e.parent, 0)
		}},
		// The kv insert's move transaction (PushEmbed): a fresh object takes
		// the parent's free embed 1 — an empty list — and then a second one
		// goes on top of it, linking the first into its embed 0. free-embed
		// then frees the chain by cascade.
		{"push-embed", actorX, pushOnParent},
		{"push-embed-chain", actorX, pushOnParent},
		{"free-embed", actorX, func(e *env) error {
			_, err := e.x.ReleaseRoot(e.rp)
			return err
		}},
		{"malloc-huge", actorX, func(e *env) error {
			var err error
			e.rh, e.bh, err = e.x.Malloc(hugeBytes, 0)
			return err
		}},
		{"dirty-huge", actorX, func(e *env) error {
			// Write payload that spells out a plausible allocated-huge
			// header/meta at each body segment's base words: after the free,
			// a recycled claim's crash recovery must not mistake the leftover
			// payload for a live object.
			geo := e.p.Geometry()
			segWords := int(geo.SegmentWords)
			dataWords := hugeBytes / layout.WordBytes
			span := (dataWords + layout.BlockHeaderWords + segWords - 1) / segWords
			fakeHdr := layout.PackHeader(layout.Header{
				LCID: uint16(e.x.ID()), LEra: 7, RefCnt: 2,
			})
			fakeMeta := layout.PackMeta(layout.Meta{
				Flags:      layout.MetaAllocated | layout.MetaHuge,
				BlockWords: uint64(dataWords + layout.BlockHeaderWords),
			})
			for j := 1; j < span; j++ {
				base := j*segWords - layout.DataOff
				e.x.StoreWord(e.bh, base+layout.HeaderOff, fakeHdr)
				e.x.StoreWord(e.bh, base+layout.MetaOff, fakeMeta)
			}
			return nil
		}},
		{"free-huge", actorX, func(e *env) error {
			_, err := e.x.ReleaseRoot(e.rh)
			return err
		}},
		{"malloc-huge-2", actorX, func(e *env) error {
			var err error
			e.rh2, _, err = e.x.Malloc(hugeBytes, 0)
			return err
		}},
		{"free-huge-2", actorX, func(e *env) error {
			_, err := e.x.ReleaseRoot(e.rh2)
			return err
		}},
		{"create-queue", actorX, func(e *env) error {
			var err error
			e.qr, e.q, err = e.x.CreateQueue(e.o.ID(), 4)
			return err
		}},
		{"open-queue", actorO, func(e *env) error {
			var err error
			e.oq, err = e.o.OpenQueue(e.q)
			return err
		}},
		{"send", actorX, sendOne},
		{"receive", actorO, func(e *env) error { return receiveFrom(e, e.o) }},
		{"send-three", actorX, func(e *env) error {
			for i := 0; i < 3; i++ {
				if err := sendOne(e); err != nil {
					return err
				}
			}
			return nil
		}},
		{"receive-three", actorO, func(e *env) error {
			for i := 0; i < 3; i++ {
				if err := receiveFrom(e, e.o); err != nil {
					return err
				}
			}
			return nil
		}},
		// Deferred-publication legs: a burst of frees parks blocks in the
		// owner's pending tier (free-marked on the device but on no free
		// list), so crashes in free-burst land BEFORE the publication
		// epoch; the Heartbeat in publish-epoch then runs the epoch, and
		// crashes there land DURING the burst (chains part-linked, head
		// store pending or landed, Used fold pending) and AFTER it (the
		// heartbeat/metrics stores that follow). Recovery must re-link the
		// unpublished blocks via the segment scan in the first case and
		// must not double-insert them in the others.
		{"malloc-burst", actorX, func(e *env) error {
			e.burst = e.burst[:0]
			for i := 0; i < 24; i++ {
				r, b, err := e.x.Malloc(48, 0)
				if err != nil {
					return err
				}
				e.x.StoreWord(b, 0, uint64(0xb0000+i))
				e.burst = append(e.burst, r)
			}
			return nil
		}},
		{"free-burst", actorX, func(e *env) error {
			for _, r := range e.burst {
				if _, err := e.x.ReleaseRoot(r); err != nil {
					return err
				}
			}
			e.burst = e.burst[:0]
			return nil
		}},
		{"publish-epoch", actorX, func(e *env) error {
			e.x.Heartbeat()
			return nil
		}},
		// Slot-recycle legs: the client-slot lease lifecycle under crashes at
		// every write. A fourth client attaches (bitmap-guided claim, lease
		// generation stamp, era/redo/identity init), does real work, is
		// killed and reclaimed, and its slot is leased again — asserting the
		// recycled lease lands on the same slot with a strictly higher
		// generation. The mgmt ops (see mgmtOps) sweep all write sources;
		// crashes leave half-born or half-reclaimed slots for the fresh
		// service and the epilogue monitor to converge.
		{"connect-fresh", actorX, func(e *env) error {
			c, err := e.p.Connect()
			if err != nil {
				return err
			}
			e.extra, e.extraCID, e.extraGen = c, c.ID(), c.Generation()
			return nil
		}},
		{"churn-extra", actorExtra, func(e *env) error {
			r, b, err := e.extra.Malloc(64, 0)
			if err != nil {
				return err
			}
			e.extra.StoreWord(b, 0, 0xec0)
			_, err = e.extra.ReleaseRoot(r)
			return err
		}},
		// Remote-release legs: x takes the last reference on a block of o's and
		// on one of extra's. release-remote-last drops the first (a push onto a
		// live owner's client_free); reclaim-extra leaves extra's segment
		// ABANDONED under the second, which release-into-abandoned drops (a
		// free-mark, no push) for maintenance to then free the segment.
		{"share-remote", actorX, func(e *env) error {
			ro, b, err := e.o.Malloc(64, 0)
			if err != nil {
				return err
			}
			if e.rro, err = e.x.AttachRoot(b); err != nil {
				return err
			}
			if _, err = e.o.ReleaseRoot(ro); err != nil {
				return err
			}
			if _, e.bx, err = e.extra.Malloc(64, 0); err != nil {
				return err
			}
			e.rrx, err = e.x.AttachRoot(e.bx)
			return err
		}},
		{"reclaim-extra", actorX, func(e *env) error {
			cid := e.extra.ID()
			e.zombie, e.extra = e.extra, nil
			if err := e.p.MarkClientDead(cid); err != nil {
				return err
			}
			_, err := e.svc.RecoverClient(cid)
			return err
		}},
		{"connect-recycled", actorX, func(e *env) error {
			c, err := e.p.Connect()
			if err != nil {
				return err
			}
			if c.ID() != e.extraCID {
				return fmt.Errorf("recycle claimed slot %d, want %d", c.ID(), e.extraCID)
			}
			if c.Generation() <= e.extraGen {
				return fmt.Errorf("recycled lease generation did not advance: %d -> %d",
					e.extraGen, c.Generation())
			}
			e.extra = c
			return nil
		}},
		// The reclaimed incarnation wakes beside its slot's new lessee (whose
		// writes are the crash positions): its malloc must fail fenced and
		// its store into the lessee's block must not land.
		{"zombie-after-recycle", actorExtra, func(e *env) error {
			r, b, err := e.extra.Malloc(64, 0)
			if err != nil {
				return err
			}
			e.extra.StoreWord(b, 0, 0xec1)
			e.zombie.StoreWord(b, 0, 0xdead)
			_, _, zerr := e.zombie.Malloc(64, 0)
			if w := e.extra.LoadWord(b, 0); !errors.Is(zerr, shm.ErrFenced) || w != 0xec1 {
				return fmt.Errorf("zombie after recycle: malloc err=%v, lessee's word %#x; want ErrFenced, 0xec1", zerr, w)
			}
			_, err = e.extra.ReleaseRoot(r)
			return err
		}},
		{"release-remote-last", actorX, func(e *env) error {
			_, err := e.x.ReleaseRoot(e.rro)
			return err
		}},
		{"release-into-abandoned", actorX, func(e *env) error {
			seg := e.p.Geometry().SegmentIndexOf(e.bx)
			if _, err := e.x.ReleaseRoot(e.rrx); err != nil {
				return err
			}
			mon := recovery.NewMonitor(e.svc, recovery.MonitorConfig{Threshold: math.MaxInt32})
			for i := 0; e.p.SegState(seg).State != layout.SegFree; i++ {
				if i == 4 {
					return fmt.Errorf("segment %d not FREE four ticks after its last block went", seg)
				}
				mon.Tick()
			}
			return nil
		}},
		// Data-area writes: bytes and a word into a live object's data area
		// are plain counted device stores, and a crash between any two must
		// leave recovery nothing to do.
		{"write-data", actorX, func(e *env) error {
			e.x.WriteData(e.b1, 0, []byte("leased bytes"))
			e.x.StoreWord(e.b1, 2, 0xbeef)
			return nil
		}},
		{"scan", actorX, func(e *env) error {
			seg := e.p.Geometry().SegmentIndexOf(e.b1)
			e.x.ScanSegment(seg, false)
			return nil
		}},
		{"unpublish-root", actorX, func(e *env) error {
			return e.x.UnpublishRoot(0)
		}},
		{"release-root", actorX, func(e *env) error {
			_, err := e.x.ReleaseRoot(e.r1)
			return err
		}},
		{"release-queue", actorX, func(e *env) error {
			_, err := e.x.ReleaseRoot(e.qr)
			return err
		}},
		{"close-queue", actorO, func(e *env) error {
			_, err := e.o.ReleaseRoot(e.oq)
			return err
		}},
	}
}

// positions returns the crash positions for an operation with w writes,
// bounded by cap (0 = all). Sampling always keeps the first and last write:
// the edges are where ordering bugs live.
func positions(w, cap int) []int {
	if w <= 0 {
		return nil
	}
	if cap <= 0 || w <= cap {
		out := make([]int, 0, w)
		for j := 1; j <= w; j++ {
			out = append(out, j)
		}
		return out
	}
	stride := (w + cap - 1) / cap
	var out []int
	for j := 1; j <= w; j += stride {
		out = append(out, j)
	}
	if out[len(out)-1] != w {
		out = append(out, w)
	}
	return out
}

// setup builds a fresh pool with the sweeper hooked in, connects the two
// scripted clients and the recovery service, and returns the run env.
// Connection order is fixed (x=1, o=2, executor=3) so write counts are
// reproducible.
func setup(cfg Config, sw *faultinject.AccessSweeper) (*env, error) {
	var eraBase uint64
	if cfg.WrapEras {
		eraBase = 1<<32 - wrapLead
	}
	return setupWith(cfg.Backend, cfg.Clients, eraBase, cxl.Intercept{Access: sw.Hook})
}

// setupWith is setup with an arbitrary device intercept — the corruption
// campaign swaps the access sweeper for the write-fault corruptor — and
// eraBase, when not 0, stored in every slot's era word before anyone
// connects.
func setupWith(backend string, clients int, eraBase uint64, ic cxl.Intercept) (*env, error) {
	p, err := shm.NewPool(shm.Config{
		Geometry:  geometry(clients),
		Backend:   backend,
		Intercept: ic,
	})
	if err != nil {
		return nil, err
	}
	if eraBase != 0 {
		geo := p.Geometry()
		for cid := 1; cid <= geo.MaxClients; cid++ {
			p.Device().Store(geo.EraAddr(cid, cid), eraBase)
		}
	}
	e := &env{p: p, receipts: make(map[uint64]int)}
	if e.x, err = p.Connect(); err != nil {
		p.CloseDevice()
		return nil, err
	}
	if e.o, err = p.Connect(); err != nil {
		p.CloseDevice()
		return nil, err
	}
	if e.svc, err = recovery.NewService(p); err != nil {
		p.CloseDevice()
		return nil, err
	}
	return e, nil
}

// replay runs ops[0:k] with the sweeper off; these must all succeed.
func replay(e *env, ops []op, k int) error {
	for i := 0; i < k; i++ {
		if err := ops[i].run(e); err != nil {
			return fmt.Errorf("replaying %s: %w", ops[i].name, err)
		}
	}
	return nil
}

// alive reports whether c's lease is still the current one on its slot. The
// status word alone is not enough: once slots recycle, a crashed client's
// slot can be reclaimed by a later Connect (the epilogue helper included),
// turning the slot ALIVE again under a handle whose lease has long been
// revoked. The generation word disambiguates — a stale handle's generation
// no longer matches the slot's.
func alive(e *env, c *shm.Client) bool {
	return c != nil && e.p.ClientStatus(c.ID()) == layout.ClientAlive &&
		e.p.SlotGeneration(c.ID()) == c.Generation()
}

// queueLive reports whether the scripted queue block still exists as a
// queue (it is freed once both roots are gone).
func queueLive(e *env) bool {
	if e.q == 0 {
		return false
	}
	m := layout.UnpackMeta(e.p.Device().Load(e.q + layout.MetaOff))
	return m.Allocated() && m.Flags&layout.MetaQueue != 0
}

// finish is the epilogue every run shares: drain the queue through a live
// client, drop the named root, close the survivors, run the monitor until
// the pool settles, and fsck. Any inconsistency (or a payload delivered
// twice) becomes a Violation with the run's coordinates.
func finish(e *env, svc *recovery.Service, v Violation) []Violation {
	var out []Violation
	bad := func(format string, args ...any) {
		v.Detail = fmt.Sprintf(format, args...)
		out = append(out, v)
	}

	// A helper client for epilogue work no scripted survivor can do.
	nc, err := e.p.Connect()
	if err != nil {
		bad("epilogue connect: %v", err)
		return out
	}

	drainer := nc
	if alive(e, e.o) {
		drainer = e.o
	}
	drain := func() {
		for queueLive(e) && drainer.QueueLen(e.q) > 0 {
			err := receiveFrom(e, drainer)
			if err == shm.ErrQueueEmpty {
				continue // a stale slot consumed; QueueLen re-checks progress
			}
			if err != nil {
				bad("drain: %v", err)
				return
			}
		}
	}
	if queueLive(e) {
		drain()
		// Refill wave: a surviving sender keeps using the ring across the
		// crash, landing a send on every slot. A crashed send's orphan sits
		// exactly at the old tail, so the first new send must reclaim it —
		// overwriting it instead is a leak only this reuse exposes.
		sender := nc
		if alive(e, e.x) {
			sender = e.x
		}
		m := layout.UnpackMeta(e.p.Device().Load(e.q + layout.MetaOff))
		for i := 0; i < int(m.EmbedCnt); i++ {
			if err := sendFrom(e, sender); err != nil {
				bad("refill send %d/%d: %v", i+1, m.EmbedCnt, err)
				break
			}
		}
		drain()
	}

	// Drop the named root if still published.
	if e.p.Device().Load(e.p.Geometry().RootDirAddr(0)) != 0 {
		if err := nc.UnpublishRoot(0); err != nil {
			bad("unpublish: %v", err)
		}
	}

	// Survivors' caches must still agree with the device before they go.
	for _, c := range []*shm.Client{e.x, e.o, e.extra} {
		if alive(e, c) {
			if err := c.CheckShadow(); err != nil {
				bad("shadow incoherent on client %d: %v", c.ID(), err)
			}
		}
	}

	for _, c := range []*shm.Client{e.x, e.o, e.extra, nc} {
		if alive(e, c) {
			if err := c.Close(); err != nil {
				bad("close client %d: %v", c.ID(), err)
			}
		}
	}

	mon := recovery.NewMonitor(svc, recovery.MonitorConfig{})
	for i := 0; i < 8; i++ {
		mon.Tick()
	}
	if fails := mon.Failures(); len(fails) > 0 {
		bad("monitor recovery failure: client %d: %v", fails[0].Client, fails[0].Err)
	}

	res := check.Validate(e.p)
	if !res.Clean() {
		var lines []string
		for i, is := range res.Issues {
			if i == 3 {
				lines = append(lines, fmt.Sprintf("... %d more", len(res.Issues)-3))
				break
			}
			lines = append(lines, is.String())
		}
		bad("fsck: %s", strings.Join(lines, "; "))
	} else if res.AllocatedObjects != 0 {
		bad("fsck: %d objects survive a fully-released run", res.AllocatedObjects)
	} else if u := e.p.Usage(); u.SegmentsAbandoned != 0 {
		bad("%d segments still ABANDONED after a fully-released run", u.SegmentsAbandoned)
	}

	for id, n := range e.receipts {
		if n > 1 {
			bad("payload %d delivered %d times", id, n)
		}
	}
	return out
}

// Run executes the sweep and returns every violation found.
func Run(cfg Config) ([]Violation, Stats, error) {
	var vs []Violation
	var st Stats
	logf := cfg.Log
	if logf == nil {
		logf = func(string, ...any) {}
	}

	ops := script()
	if cfg.Op != "" {
		found := false
		for _, o := range ops {
			if o.name == cfg.Op {
				found = true
			}
		}
		if !found {
			return nil, st, fmt.Errorf("sweep: unknown op %q", cfg.Op)
		}
	}

	// Baseline: the full script with no crash must validate clean, or every
	// position's verdict is meaningless.
	if cfg.Op == "" {
		sw := faultinject.NewAccessSweeper()
		e, err := setup(cfg, sw)
		if err != nil {
			return nil, st, err
		}
		berr := replay(e, ops, len(ops))
		v := Violation{Op: "baseline", Backend: cfg.Backend, WrapEras: cfg.WrapEras}
		if berr != nil {
			vs = append(vs, Violation{Op: "baseline", Backend: cfg.Backend, WrapEras: cfg.WrapEras, Detail: berr.Error()})
		} else {
			vs = append(vs, finish(e, e.svc, v)...)
		}
		e.p.CloseDevice()
		if len(vs) > 0 {
			return vs, st, nil
		}
	}

	for k, o := range ops {
		if cfg.Op != "" && o.name != cfg.Op {
			continue
		}
		st.Ops++

		// Counting pass: how many device writes does this op issue for its
		// actor?
		sw := faultinject.NewAccessSweeper()
		e, err := setup(cfg, sw)
		if err != nil {
			return vs, st, err
		}
		if err := replay(e, ops, k); err != nil {
			e.p.CloseDevice()
			return vs, st, err
		}
		if mgmtOps[o.name] {
			sw.SetVictim(-1)
		} else {
			sw.SetVictim(o.actor(e).ID())
		}
		sw.StartCounting()
		operr := o.run(e)
		writes := sw.StopCounting()
		e.p.CloseDevice()
		if operr != nil {
			return vs, st, fmt.Errorf("op %s failed uninjected: %w", o.name, operr)
		}

		if cfg.RecoveryAccess > 0 {
			// Repro of a phase-B position: skip phase A entirely.
			rv, err := runRecoveryPosition(cfg, ops, k, cfg.RecoveryAccess)
			if err != nil {
				return vs, st, err
			}
			st.RecoveryPositions++
			vs = append(vs, rv...)
			continue
		}

		pos := positions(writes, cfg.MaxWrites)
		if cfg.Access > 0 {
			pos = []int{cfg.Access}
		}
		logf("op %-14s writes=%-3d positions=%d", o.name, writes, len(pos))
		for _, j := range pos {
			rv, err := runPosition(cfg, ops, k, j)
			if err != nil {
				return vs, st, err
			}
			st.Positions++
			vs = append(vs, rv...)
		}

		// mgmt ops skip phase B: their bodies already are (or contain) the
		// recovery pass, so phase A sweeps those writes directly.
		if cfg.RecoverySweep && !mgmtOps[o.name] {
			rvs, n, err := sweepRecovery(cfg, ops, k, logf)
			if err != nil {
				return vs, st, err
			}
			st.RecoveryPositions += n
			vs = append(vs, rvs...)
		}
	}
	return vs, st, nil
}

// runPosition is one phase-A story: replay to op k, crash its actor at write
// j, recover, epilogue, fsck.
func runPosition(cfg Config, ops []op, k, j int) ([]Violation, error) {
	v := Violation{Op: ops[k].name, Access: j, Backend: cfg.Backend, WrapEras: cfg.WrapEras}
	sw := faultinject.NewAccessSweeper()
	e, err := setup(cfg, sw)
	if err != nil {
		return nil, err
	}
	defer e.p.CloseDevice()
	if err := replay(e, ops, k); err != nil {
		return nil, err
	}
	victim := ops[k].actor(e)
	_, seq0 := victim.LastPublishEpoch()
	if mgmtOps[ops[k].name] {
		sw.SetVictim(-1)
	} else {
		sw.SetVictim(victim.ID())
	}
	sw.Arm(j)
	var operr error
	crash := faultinject.Run(func() { operr = ops[k].run(e) })
	sw.Disarm()
	// If the op ran a publication epoch (completed or cut short by the
	// crash — the trigger is recorded before the epoch's first store),
	// name its trigger in any violation's repro line.
	if trig, seq := victim.LastPublishEpoch(); seq > seq0 {
		v.Epoch = trig
	}
	if crash == nil {
		if operr != nil {
			v.Detail = fmt.Sprintf("op error without crash: %v", operr)
			return []Violation{v}, nil
		}
		// The op finished before write j (count drift would be a harness
		// bug); validate the completed run anyway.
		return finish(e, e.svc, v), nil
	}
	if mgmtOps[ops[k].name] {
		// The crash hit the management plane or a half-born client — the
		// attaching/recovering process died. Its recovery executor cannot be
		// trusted mid-transaction, so it is declared dead too; a fresh
		// service recovers it and every slot the crash stranded at DEAD, in
		// rounds that put it before any client whose recovery claim it holds.
		// Half-claimed ALIVE slots (no heartbeat will ever come) are fenced
		// by the epilogue monitor.
		execID := e.svc.Executor().ID()
		if err := e.p.MarkClientDead(execID); err != nil {
			v.Detail = fmt.Sprintf("mark executor dead: %v", err)
			return []Violation{v}, nil
		}
		svc2, err := recovery.NewService(e.p)
		if err != nil {
			v.Detail = fmt.Sprintf("second service: %v", err)
			return []Violation{v}, nil
		}
		if err := e.p.RecoverDeadSlots(func(cid int) error {
			_, err := svc2.RecoverClient(cid)
			return err
		}); err != nil {
			v.Detail = fmt.Sprintf("recover stranded clients: %v", err)
			return []Violation{v}, nil
		}
		return finish(e, svc2, v), nil
	}
	if err := e.p.MarkClientDead(victim.ID()); err != nil {
		v.Detail = fmt.Sprintf("mark dead: %v", err)
		return []Violation{v}, nil
	}
	if _, err := e.svc.RecoverClient(victim.ID()); err != nil {
		v.Detail = fmt.Sprintf("recover: %v", err)
		return []Violation{v}, nil
	}
	return finish(e, e.svc, v), nil
}

// sweepRecovery is phase B for op k: crash the victim at its first write,
// then crash the recovery pass at every one of its own device writes.
func sweepRecovery(cfg Config, ops []op, k int, logf func(string, ...any)) ([]Violation, int, error) {
	// Counting pass for the recovery writes.
	sw := faultinject.NewAccessSweeper()
	e, err := setup(cfg, sw)
	if err != nil {
		return nil, 0, err
	}
	if err := replay(e, ops, k); err != nil {
		e.p.CloseDevice()
		return nil, 0, err
	}
	victim := ops[k].actor(e)
	sw.SetVictim(victim.ID())
	sw.Arm(1)
	crash := faultinject.Run(func() { _ = ops[k].run(e) })
	sw.Disarm()
	if crash == nil {
		// The op issues no victim writes; nothing to sweep.
		e.p.CloseDevice()
		return nil, 0, nil
	}
	if err := e.p.MarkClientDead(victim.ID()); err != nil {
		e.p.CloseDevice()
		return nil, 0, err
	}
	sw.SetVictim(-1) // recovery writes: executor client + management plane
	sw.StartCounting()
	_, rerr := e.svc.RecoverClient(victim.ID())
	writes := sw.StopCounting()
	e.p.CloseDevice()
	if rerr != nil {
		return nil, 0, fmt.Errorf("recovery of %s crash failed uninjected: %w", ops[k].name, rerr)
	}

	var vs []Violation
	pos := positions(writes, cfg.MaxWrites)
	logf("op %-14s recovery writes=%-3d positions=%d", ops[k].name, writes, len(pos))
	for _, r := range pos {
		rv, err := runRecoveryPosition(cfg, ops, k, r)
		if err != nil {
			return vs, len(pos), err
		}
		vs = append(vs, rv...)
	}
	return vs, len(pos), nil
}

// runRecoveryPosition is one phase-B story: the victim crashes at its first
// write of op k, then the recovery pass crashes at its r-th write. A second
// service finds the victim's recovery claim held by the dead executor, so it
// recovers the executor first (replaying its interrupted transactions), then
// the victim, then the usual epilogue and fsck.
func runRecoveryPosition(cfg Config, ops []op, k, r int) ([]Violation, error) {
	v := Violation{Op: ops[k].name, Access: 1, RecoveryAccess: r, Backend: cfg.Backend, WrapEras: cfg.WrapEras}
	sw := faultinject.NewAccessSweeper()
	e, err := setup(cfg, sw)
	if err != nil {
		return nil, err
	}
	defer e.p.CloseDevice()
	if err := replay(e, ops, k); err != nil {
		return nil, err
	}
	victim := ops[k].actor(e)
	sw.SetVictim(victim.ID())
	sw.Arm(1)
	if crash := faultinject.Run(func() { _ = ops[k].run(e) }); crash == nil {
		return nil, nil // op issues no victim writes
	}
	sw.Disarm()
	if err := e.p.MarkClientDead(victim.ID()); err != nil {
		return nil, err
	}
	sw.SetVictim(-1)
	sw.Arm(r)
	crash := faultinject.Run(func() { _, _ = e.svc.RecoverClient(victim.ID()) })
	sw.Disarm()
	svc := e.svc
	if crash != nil {
		// The recovery executor died mid-pass. Its own redo entry and
		// half-done sweeps are recovered by a fresh service — executor
		// first, then the still-dead victim.
		execID := e.svc.Executor().ID()
		if err := e.p.MarkClientDead(execID); err != nil {
			v.Detail = fmt.Sprintf("mark executor dead: %v", err)
			return []Violation{v}, nil
		}
		svc2, err := recovery.NewService(e.p)
		if err != nil {
			v.Detail = fmt.Sprintf("second service: %v", err)
			return []Violation{v}, nil
		}
		if r > 1 && e.p.ClientStatus(victim.ID()) == layout.ClientDead {
			// The claim CAS is the pass's first write, so the dead executor
			// holds the victim's claim: the victim is not recoverable before
			// its executor, and the refusal writes nothing.
			sw.StartCounting()
			_, err := svc2.RecoverClient(victim.ID())
			if w := sw.StopCounting(); !errors.Is(err, shm.ErrRecoveryInProgress) || w != 0 {
				v.Detail = fmt.Sprintf("victim recovery before its dead executor's: %v after %d writes", err, w)
				return []Violation{v}, nil
			}
		}
		if _, err := svc2.RecoverClient(execID); err != nil {
			v.Detail = fmt.Sprintf("recover executor: %v", err)
			return []Violation{v}, nil
		}
		if e.p.ClientStatus(victim.ID()) == layout.ClientDead {
			if _, err := svc2.RecoverClient(victim.ID()); err != nil {
				v.Detail = fmt.Sprintf("re-recover victim: %v", err)
				return []Violation{v}, nil
			}
		}
		svc = svc2
	}
	return finish(e, svc, v), nil
}
