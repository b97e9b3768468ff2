// corrupt.go is the corruption campaign: the crash sweep's sibling for
// beyond-fail-stop faults. For every (fault class × pool region) pair it
// replays the scripted workload to a rich mid-state, injects one seeded
// fault — a bit flip at rest, a torn multi-word record, or a live stuck
// CAS — lets the remaining operations run against the damaged pool, then
// settles, repairs, and demands one of exactly three verdicts: repaired
// (validator-clean, nothing written off), quarantined (clean modulo
// explicitly written-off blocks/pages with accounted blast radius), or
// benign (the fault landed in don't-care state and the validator proves
// it). Anything else — an fsck panic, surviving issues, damage absorbed
// without action — is a Violation. Each trial ends by re-running the full
// script over the repaired pool: surgery that leaves the allocator limping
// is a failure even when the validator is happy.
package sweep

import (
	"fmt"

	"repro/internal/check"
	"repro/internal/cxl"
	"repro/internal/faultinject"
	"repro/internal/layout"
	"repro/internal/recovery"
	"repro/internal/shm"
)

// corruptInjectAt is the script index faults land at: after send-three the
// pool holds a published named root, a live queue with three in-flight
// payloads, recycled huge segments, and settled free lists — every region
// has meaningful state to damage.
const corruptInjectAt = 20

// CorruptConfig tunes a corruption campaign.
type CorruptConfig struct {
	// Backend is the device backend: "heap" (default) or "mmap".
	Backend string
	// Seed is the campaign base seed; trial t uses Seed+t so a campaign is
	// replayed exactly by base seed, and a single trial by its own seed.
	Seed int64
	// Regions/Classes restrict the sweep (nil = all).
	Regions []faultinject.Region
	Classes []faultinject.Class
	// Log, when set, receives progress lines.
	Log func(format string, args ...any)
}

// CorruptTrial is the structured outcome of one (region, class) trial.
type CorruptTrial struct {
	Region  string
	Class   string
	Backend string
	Seed    int64
	// Outcome is "repaired", "quarantined", "benign", or "violation".
	Outcome string
	// Faults is the injected fault sequence (the determinism contract).
	Faults []faultinject.InjectedFault
	// Crashed lists clients that died during the faulted window (stuck-CAS
	// spins, or operations walking damaged metadata).
	Crashed []int
	// PreIssues counts validator issues before repair; Rounds/Actions
	// summarize the repair pass; Blast is its damage accounting.
	PreIssues int
	Rounds    int
	Actions   int
	Blast     check.BlastRadius
	// Violations carries this trial's failures (empty on success).
	Violations []Violation
}

// Repro formats the faultsim invocation reproducing this trial.
func (t CorruptTrial) Repro() string {
	b := t.Backend
	if b == "" {
		b = "heap"
	}
	return fmt.Sprintf("faultsim -corrupt -region %s -class %s -seed %d -backend %s",
		t.Region, t.Class, t.Seed, b)
}

// regionTarget is a region resolved to concrete addresses: single words
// for bit flips and stuck-CAS arming, multi-word records for tears.
type regionTarget struct {
	words   []layout.Addr
	records [][]layout.Addr
}

// resolveRegion maps a Region to the live addresses backing it at the
// injection point. The mapping is deterministic given the fixed script, so
// seeded index picks land on the same words every run.
func resolveRegion(e *env, region faultinject.Region) regionTarget {
	geo := e.p.Geometry()
	var t regionTarget
	switch region {
	case faultinject.RegionSuperblock:
		rec := []layout.Addr{
			layout.SuperOffMagic, layout.SuperOffSegWords, layout.SuperOffPageWords,
			layout.SuperOffNumSegs, layout.SuperOffMaxClients, layout.SuperOffMaxQueues,
			layout.SuperOffVersion,
		}
		t.words = rec
		t.records = [][]layout.Addr{rec}
	case faultinject.RegionSegmentMeta:
		for seg := 0; seg < geo.NumSegments; seg++ {
			st := e.p.SegState(seg)
			if st.State == layout.SegFree {
				continue
			}
			rec := []layout.Addr{geo.SegStateAddr(seg), geo.SegClientFreeAddr(seg)}
			t.words = append(t.words, rec...)
			t.records = append(t.records, rec)
		}
		// The page-meta triple of the long-lived object's page: page kind,
		// free-list head and bump pointer are segment metadata too.
		seg := geo.SegmentIndexOf(e.b1)
		pg := geo.PageIndexOf(seg, e.b1)
		metaA := geo.PageMetaAddr(seg, pg)
		rec := []layout.Addr{metaA, metaA + 1, metaA + 2}
		t.words = append(t.words, rec...)
		t.records = append(t.records, rec)
	case faultinject.RegionBlockHeader:
		for _, b := range []layout.Addr{e.b1, e.q} {
			rec := []layout.Addr{b + layout.HeaderOff, b + layout.MetaOff}
			t.words = append(t.words, rec...)
			t.records = append(t.records, rec)
		}
	case faultinject.RegionRedoLog:
		for _, c := range []*shm.Client{e.x, e.o} {
			base := geo.ClientRedoBase(c.ID())
			var rec []layout.Addr
			for w := 0; w < geo.RedoWords; w++ {
				rec = append(rec, base+layout.Addr(w))
			}
			t.words = append(t.words, rec...)
			t.records = append(t.records, rec)
		}
	case faultinject.RegionEraMatrix:
		for i := 1; i <= 3; i++ {
			var rec []layout.Addr
			for j := 1; j <= 3; j++ {
				rec = append(rec, geo.EraAddr(i, j))
			}
			t.words = append(t.words, rec...)
			t.records = append(t.records, rec)
		}
	case faultinject.RegionQueueSlot:
		m := layout.UnpackMeta(e.p.Device().Load(e.q + layout.MetaOff))
		capacity := int(m.EmbedCnt)
		var slots []layout.Addr
		for i := 0; i < capacity; i++ {
			slots = append(slots, e.q+layout.DataOff+layout.Addr(i))
		}
		infoA := e.q + layout.DataOff + layout.Addr(capacity)
		idx := []layout.Addr{infoA, infoA + 1, infoA + 2}
		t.words = append(append(t.words, slots...), idx...)
		t.records = [][]layout.Addr{slots, idx}
	case faultinject.RegionTelemetry:
		var hdr []layout.Addr
		for w := 0; w < layout.TelHeaderWords; w++ {
			hdr = append(hdr, geo.TelemetryBase+layout.Addr(w))
		}
		t.words = hdr
		// Metric slots after the header: damage there is benign by design
		// (readers tolerate garbage record-by-record) — the campaign proves
		// the validator says so instead of crying wolf.
		blk := geo.TelBlockBase(0)
		t.words = append(t.words, blk, blk+1, blk+2)
		t.records = [][]layout.Addr{hdr}
	}
	return t
}

// guarded runs f, converting any panic (stuck-CAS spins, walks over
// corrupt metadata) into a returned value.
func guarded(f func()) (pan any) {
	defer func() { pan = recover() }()
	f()
	return nil
}

// RunCorrupt executes the corruption campaign: every configured fault
// class against every configured region, one seeded trial each.
func RunCorrupt(cfg CorruptConfig) ([]CorruptTrial, []Violation, error) {
	logf := cfg.Log
	if logf == nil {
		logf = func(string, ...any) {}
	}
	regions := cfg.Regions
	if len(regions) == 0 {
		regions = faultinject.AllRegions
	}
	classes := cfg.Classes
	if len(classes) == 0 {
		classes = faultinject.AllClasses
	}

	var trials []CorruptTrial
	var vs []Violation
	t := int64(0)
	for _, class := range classes {
		for _, region := range regions {
			trial, err := runCorruptTrial(cfg, region, class, cfg.Seed+t)
			t++
			if err != nil {
				return trials, vs, err
			}
			logf("corrupt %-9s x %-13s seed=%-4d outcome=%-11s issues=%d actions=%d quarantined=%d",
				class, region, trial.Seed, trial.Outcome, trial.PreIssues, trial.Actions,
				trial.Blast.ObjectsQuarantined+trial.Blast.PagesQuarantined)
			trials = append(trials, trial)
			vs = append(vs, trial.Violations...)
		}
	}
	return trials, vs, nil
}

// runCorruptTrial is one complete story: replay, inject, let the workload
// stumble, settle, repair, verify, and re-run the full script on the
// repaired pool.
func runCorruptTrial(cfg CorruptConfig, region faultinject.Region, class faultinject.Class, seed int64) (CorruptTrial, error) {
	trial := CorruptTrial{
		Region: string(region), Class: string(class),
		Backend: cfg.Backend, Seed: seed,
	}
	v := Violation{Op: fmt.Sprintf("corrupt/%s/%s", class, region), Backend: cfg.Backend}
	bad := func(format string, args ...any) {
		v.Detail = fmt.Sprintf(format, args...)
		trial.Violations = append(trial.Violations, v)
	}

	corr := faultinject.NewCorruptor(region, class, seed)
	e, err := setupWith(cfg.Backend, 0, cxl.Intercept{Write: corr.Hook})
	if err != nil {
		return trial, err
	}
	defer e.p.CloseDevice()
	ops := script()
	if err := replay(e, ops, corruptInjectAt); err != nil {
		return trial, err
	}

	// Inject.
	dev := e.p.Device()
	tgt := resolveRegion(e, region)
	if len(tgt.words) == 0 {
		return trial, fmt.Errorf("corrupt: region %s resolved to no addresses", region)
	}
	var fbAddr layout.Addr
	var fbSnap uint64
	switch class {
	case faultinject.ClassBitFlip:
		corr.FlipBit(dev, tgt.words[corr.PickIndex(len(tgt.words))])
	case faultinject.ClassTorn:
		corr.Tear(dev, tgt.records[corr.PickIndex(len(tgt.records))])
	case faultinject.ClassStuckCAS:
		fbAddr = tgt.words[corr.PickIndex(len(tgt.words))]
		fbSnap = dev.Load(fbAddr)
		corr.Arm(tgt.words)
	}

	// Run the remaining script against the damaged pool. Operation errors
	// are expected (the fault is live); panics mean the acting client hit
	// wild metadata or a stuck-CAS spin and counts as crashed.
	crashed := map[int]bool{}
	for i := corruptInjectAt; i < len(ops); i++ {
		o := ops[i]
		actor := o.actor(e)
		if actor == nil || crashed[actor.ID()] {
			continue
		}
		if pan := guarded(func() { _ = o.run(e) }); pan != nil {
			crashed[actor.ID()] = true
		}
	}
	corr.Disarm()
	if class == faultinject.ClassStuckCAS && !corr.Fired() {
		corr.FallbackAtRest(dev, fbAddr, fbSnap)
	}
	trial.Faults = corr.Faults()
	for cid := range crashed {
		trial.Crashed = append(trial.Crashed, cid)
	}

	// Settle: fence and recover the crashed, close the survivors, let the
	// monitor sweep what normal recovery machinery can. All guarded — the
	// pool is damaged, and production paths are allowed to fail here; the
	// fsck below is the component under test.
	for cid := range crashed {
		guarded(func() { _ = e.p.MarkClientDead(cid) })
		guarded(func() { _, _ = e.svc.RecoverClient(cid) })
	}
	for _, c := range []*shm.Client{e.x, e.o} {
		if alive(e, c) && !crashed[c.ID()] {
			cl := c
			if pan := guarded(func() { _ = cl.Close() }); pan != nil {
				guarded(func() { _ = e.p.MarkClientDead(cl.ID()) })
			}
		}
	}
	mon := recovery.NewMonitor(e.svc, recovery.MonitorConfig{})
	for i := 0; i < 8; i++ {
		guarded(func() { mon.Tick() })
	}

	// Repair and verify. A panicking fsck is a first-class violation: the
	// whole point of the hardened validator/repair pass is surviving
	// arbitrary metadata damage.
	pre := check.Validate(e.p)
	trial.PreIssues = len(pre.Issues)
	var rep *check.RepairReport
	if pan := guarded(func() {
		rep = check.Repair(e.p, check.RepairConfig{
			Recover: func(cid int) error {
				var rerr error
				guarded(func() { _, rerr = e.svc.RecoverClient(cid) })
				return rerr
			},
		})
	}); pan != nil {
		bad("fsck panicked: %v", pan)
		trial.Outcome = "violation"
		return trial, nil
	}
	trial.Rounds = rep.Rounds
	trial.Actions = len(rep.Actions)
	trial.Blast = rep.Blast
	quarantined := rep.Blast.ObjectsQuarantined + rep.Blast.PagesQuarantined
	switch {
	case !rep.Repaired:
		bad("post-repair issues remain after %d rounds: %v", rep.Rounds, rep.Post.Issues)
	case trial.PreIssues > 0 && trial.Actions == 0 && quarantined == 0:
		bad("silent acceptance: %d issues vanished without repair actions", trial.PreIssues)
	}

	// Re-run the full script over the repaired pool with fresh clients: the
	// validator proving consistency is necessary, the allocator still doing
	// real work is sufficient.
	if len(trial.Violations) == 0 {
		trial.Violations = append(trial.Violations, rerunOverRepaired(e.p, v)...)
	}

	switch {
	case len(trial.Violations) > 0:
		trial.Outcome = "violation"
	case trial.PreIssues == 0:
		trial.Outcome = "benign"
	case quarantined > 0:
		trial.Outcome = "quarantined"
	default:
		trial.Outcome = "repaired"
	}
	return trial, nil
}

// rerunOverRepaired attaches fresh clients to the repaired pool and runs
// the whole scripted workload plus the standard epilogue. Leftover trial state
// the crashed script never released (the named root) is cleared first —
// through a client when the target is healthy, by direct management-plane
// store when it leads into quarantined territory.
func rerunOverRepaired(p *shm.Pool, v Violation) []Violation {
	var out []Violation
	bad := func(format string, args ...any) {
		v.Detail = fmt.Sprintf(format, args...)
		out = append(out, v)
	}
	e, err := attach(p)
	if err != nil {
		bad("rerun attach: %v", err)
		return out
	}
	geo := p.Geometry()
	if t := p.Device().Load(geo.RootDirAddr(0)); t != 0 {
		if quarantinedAt(p, layout.Addr(t)) {
			p.Device().Store(geo.RootDirAddr(0), 0)
		} else if pan := guarded(func() { _ = e.x.UnpublishRoot(0) }); pan != nil {
			bad("rerun unpublish leftover root: %v", pan)
			return out
		}
	}
	ops := script()
	for _, o := range ops {
		o := o
		var operr error
		if pan := guarded(func() { operr = o.run(e) }); pan != nil {
			bad("rerun op %s panicked: %v", o.name, pan)
			return out
		}
		if operr != nil {
			bad("rerun op %s: %v", o.name, operr)
			return out
		}
	}
	return append(out, finish(e, e.svc, v)...)
}

// quarantinedAt reports whether a points into territory the fsck wrote off.
func quarantinedAt(p *shm.Pool, a layout.Addr) bool {
	geo := p.Geometry()
	seg := geo.SegmentIndexOf(a)
	if seg < 0 || seg >= geo.NumSegments {
		return false
	}
	st := p.SegState(seg)
	switch st.State {
	case layout.SegHugeHead, layout.SegHugeBody:
		head := seg
		for head > 0 && p.SegState(head).State == layout.SegHugeBody {
			head--
		}
		m := layout.UnpackMeta(p.Device().Load(geo.SegmentBase(head) + layout.MetaOff))
		return m.Quarantined()
	case layout.SegActive, layout.SegAbandoned:
		pg := geo.PageIndexOf(seg, a)
		if pg < 0 {
			return false
		}
		info := layout.UnpackPageMeta(p.Device().Load(geo.PageMetaAddr(seg, pg)))
		if info.Kind == layout.PageKindQuarantined {
			return true
		}
		if info.Kind == layout.PageKindNormal && int(info.SizeClass) < len(geo.Classes) {
			bw := geo.Classes[info.SizeClass].BlockWords
			base := geo.PageBase(seg, pg)
			b := base + layout.Addr((uint64(a)-uint64(base))/bw*bw)
			m := layout.UnpackMeta(p.Device().Load(b + layout.MetaOff))
			return m.Quarantined()
		}
	}
	return false
}

// attach builds a run env over an existing pool (the rerun path), fixed
// connection order like setup.
func attach(p *shm.Pool) (*env, error) {
	e := &env{p: p, receipts: make(map[uint64]int)}
	var err error
	if e.x, err = p.Connect(); err != nil {
		return nil, err
	}
	if e.o, err = p.Connect(); err != nil {
		return nil, err
	}
	if e.svc, err = recovery.NewService(p); err != nil {
		return nil, err
	}
	return e, nil
}
