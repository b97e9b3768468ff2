package recovery_test

import (
	"fmt"
	"testing"

	"repro/internal/check"
	"repro/internal/cxl"
	"repro/internal/layout"
	"repro/internal/obs"
	"repro/internal/recovery"
	"repro/internal/shm"
)

// newTestPool builds the package's standard pool, hooks (chained) observing
// every device access.
func newTestPool(t *testing.T, hooks ...cxl.AccessHook) *shm.Pool {
	t.Helper()
	p, err := shm.NewPool(shm.Config{
		Geometry: layout.GeometryConfig{
			MaxClients:   8,
			NumSegments:  16,
			SegmentWords: 1 << 13,
			PageWords:    1 << 9,
			MaxQueues:    8,
		},
		Intercept: cxl.Intercept{Access: chain(hooks...)},
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func connect(t *testing.T, p *shm.Pool) *shm.Client {
	t.Helper()
	c, err := p.Connect()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func mustClean(t *testing.T, p *shm.Pool, context string) *check.Result {
	t.Helper()
	res := check.Validate(p)
	if !res.Clean() {
		for _, is := range res.Issues {
			t.Errorf("[%s] %s", context, is)
		}
		t.Fatalf("[%s] validation failed with %d issues", context, len(res.Issues))
	}
	return res
}

func TestRecoverIdleClient(t *testing.T) {
	p := newTestPool(t)
	c := connect(t, p)
	svc, err := recovery.NewService(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Crash(); err != nil {
		t.Fatal(err)
	}
	r, err := svc.RecoverClient(c.ID())
	if err != nil {
		t.Fatal(err)
	}
	if r.SweptRoots != 0 || r.RedoNeeded {
		t.Fatalf("idle recovery report: %+v", r)
	}
	if p.ClientStatus(c.ID()) != layout.ClientRecovered {
		t.Fatal("client not marked recovered")
	}
	mustClean(t, p, "idle")
	// Slot must be reusable.
	c2 := connect(t, p)
	if _, _, err := c2.Malloc(64, 0); err != nil {
		t.Fatal(err)
	}
}

func TestRecoverClientHoldingObjects(t *testing.T) {
	p := newTestPool(t)
	c := connect(t, p)
	svc, err := recovery.NewService(p)
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	for i := 0; i < n; i++ {
		if _, _, err := c.Malloc(48, 0); err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
	}
	if err := c.Crash(); err != nil {
		t.Fatal(err)
	}
	r, err := svc.RecoverClient(c.ID())
	if err != nil {
		t.Fatal(err)
	}
	if r.SweptRoots != n {
		t.Fatalf("swept %d roots, want %d", r.SweptRoots, n)
	}
	res := mustClean(t, p, "holder")
	if res.AllocatedObjects != 0 {
		t.Fatalf("%d objects leaked", res.AllocatedObjects)
	}
	if res.SegmentsActive != 0 || res.SegmentsOther != 0 {
		t.Fatalf("segments not reclaimed: active=%d other=%d",
			res.SegmentsActive, res.SegmentsOther)
	}

	// The recovery lifecycle must show up in the pool's observability layer:
	// the fence, the recovery pass bracket, and the root sweeps.
	want := map[obs.EventType]bool{
		obs.EvClientFenced:     false,
		obs.EvRecoveryStarted:  false,
		obs.EvRecoveryFinished: false,
	}
	var finished obs.Event
	for _, e := range p.Telemetry().Events() {
		if _, ok := want[e.Type]; ok && e.Client == c.ID() {
			want[e.Type] = true
			if e.Type == obs.EvRecoveryFinished {
				finished = e
			}
		}
	}
	for ty, seen := range want {
		if !seen {
			t.Errorf("no %v trace event for client %d", ty, c.ID())
		}
	}
	if finished.A != uint64(r.Reclaimed) || finished.B != uint64(r.SweptRoots) {
		t.Errorf("finish event payload (reclaimed=%d swept=%d) != report (%d, %d)",
			finished.A, finished.B, r.Reclaimed, r.SweptRoots)
	}
	snap := p.Obs().Snapshot()
	if got := snap.Counters[obs.CtrRootSwept.Name()]; got != n {
		t.Errorf("rootrefs_swept = %d, want %d", got, n)
	}
	if snap.Counters[obs.CtrRecoveryPass.Name()] == 0 ||
		snap.Counters[obs.CtrClientFenced.Name()] == 0 {
		t.Errorf("recovery/fence counters empty: %+v", snap.Counters)
	}
}

func TestSharedObjectSurvivesOwnerCrash(t *testing.T) {
	p := newTestPool(t)
	a := connect(t, p)
	b := connect(t, p)
	svc, err := recovery.NewService(p)
	if err != nil {
		t.Fatal(err)
	}

	// A allocates and transfers a reference to B via a queue.
	qRootA, q, err := a.CreateQueue(b.ID(), 4)
	if err != nil {
		t.Fatal(err)
	}
	qRootB, err := b.OpenQueue(q)
	if err != nil {
		t.Fatal(err)
	}
	rootA, obj, err := a.Malloc(64, 0)
	if err != nil {
		t.Fatal(err)
	}
	a.WriteData(obj, 0, []byte("survives"))
	if err := a.Send(q, obj); err != nil {
		t.Fatal(err)
	}
	rootB, got, err := b.Receive(q)
	if err != nil {
		t.Fatal(err)
	}
	_ = rootA
	_ = qRootA

	// A crashes without releasing anything.
	if err := a.Crash(); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.RecoverClient(a.ID()); err != nil {
		t.Fatal(err)
	}

	// B's reference must still be valid — no double free, no wild pointer.
	buf := make([]byte, 8)
	b.ReadData(got, 0, buf)
	if string(buf) != "survives" {
		t.Fatalf("object corrupted after owner crash: %q", buf)
	}
	if hdr := b.HeaderOf(got); hdr.RefCnt != 1 {
		t.Fatalf("ref_cnt=%d after recovery, want 1 (B only)", hdr.RefCnt)
	}
	// B releases: the object (in A's abandoned segment) must be reclaimed.
	if freed, err := b.ReleaseRoot(rootB); err != nil || !freed {
		t.Fatalf("B release: freed=%v err=%v", freed, err)
	}
	if _, err := b.ReleaseRoot(qRootB); err != nil {
		t.Fatal(err)
	}
	// Background maintenance reclaims A's abandoned segments.
	mon := recovery.NewMonitor(svc, recovery.MonitorConfig{})
	for i := 0; i < 3; i++ {
		mon.Tick()
	}
	res := mustClean(t, p, "survivor")
	if res.AllocatedObjects != 0 {
		t.Fatalf("%d objects leaked", res.AllocatedObjects)
	}
	if res.SegmentsOther != 0 {
		t.Fatalf("%d segments stuck outside free/active", res.SegmentsOther)
	}
}

// TestInFlightReferenceSurvivesSenderDeath is the §5.2 ambiguity the queue
// protocol resolves: the sender dies right after sending, recovery runs
// *before* the receiver receives — and the reference must still arrive
// intact, because the queue (not the sender) owns in-flight references.
func TestInFlightReferenceSurvivesSenderDeath(t *testing.T) {
	p := newTestPool(t)
	sender := connect(t, p)
	receiver := connect(t, p)
	svc, err := recovery.NewService(p)
	if err != nil {
		t.Fatal(err)
	}
	_, q, err := sender.CreateQueue(receiver.ID(), 4)
	if err != nil {
		t.Fatal(err)
	}
	qRootB, err := receiver.OpenQueue(q)
	if err != nil {
		t.Fatal(err)
	}
	rootS, obj, err := sender.Malloc(64, 0)
	if err != nil {
		t.Fatal(err)
	}
	sender.WriteData(obj, 0, []byte("in-flight"))
	if err := sender.Send(q, obj); err != nil {
		t.Fatal(err)
	}
	// Sender dies immediately; recovery runs before any receive.
	if err := sender.Crash(); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.RecoverClient(sender.ID()); err != nil {
		t.Fatal(err)
	}
	// The receiver still gets the reference, exactly once.
	rootR, got, err := receiver.Receive(q)
	if err != nil {
		t.Fatalf("receive after sender recovery: %v", err)
	}
	buf := make([]byte, 9)
	receiver.ReadData(got, 0, buf)
	if string(buf) != "in-flight" {
		t.Fatalf("payload %q", buf)
	}
	if _, _, err := receiver.Receive(q); err != shm.ErrQueueEmpty {
		t.Fatalf("second receive: %v (exactly-once violated)", err)
	}
	_ = rootS
	if freed, err := receiver.ReleaseRoot(rootR); err != nil || !freed {
		t.Fatalf("freed=%v err=%v", freed, err)
	}
	if _, err := receiver.ReleaseRoot(qRootB); err != nil {
		t.Fatal(err)
	}
	mon := recovery.NewMonitor(svc, recovery.MonitorConfig{})
	for i := 0; i < 4; i++ {
		mon.Tick()
	}
	res := mustClean(t, p, "in-flight")
	if res.AllocatedObjects != 0 {
		t.Fatalf("%d objects leaked", res.AllocatedObjects)
	}
}

// scenario runs a deterministic workload in which `x` (the injected crasher)
// exercises every protocol path: allocation (small, embedded, huge), clone and
// release, embedded-reference change, cascading frees, queue send and
// receive, cross-client frees, and the owner's drop of its last reference.
// Roots held by `o` (the survivor) are returned for cleanup.
func scenario(t *testing.T, x, o *shm.Client) (oRoots []layout.Addr) {
	t.Helper()
	must := func(err error) {
		if err != nil {
			t.Fatalf("scenario: %v", err)
		}
	}

	// Plain allocations, clone, release.
	r1, _, err := x.Malloc(64, 0)
	must(err)
	x.CloneRoot(r1)
	_, err = x.ReleaseRoot(r1)
	must(err)
	_, err = x.ReleaseRoot(r1)
	must(err)

	// Huge object.
	rh, _, err := x.Malloc(96*1024, 0) // 1.5 segments of 64 KiB
	must(err)
	_, err = x.ReleaseRoot(rh)
	must(err)

	// Embedded references with a deep cascade.
	rp, parent, err := x.Malloc(64, 2)
	must(err)
	rc1, ch1, err := x.Malloc(32, 0)
	must(err)
	must(x.SetEmbed(parent, 0, ch1))
	_, err = x.ReleaseRoot(rc1)
	must(err)
	rc2, ch2, err := x.Malloc(32, 1)
	must(err)
	rg, gch, err := x.Malloc(16, 0)
	must(err)
	must(x.SetEmbed(ch2, 0, gch))
	_, err = x.ReleaseRoot(rg)
	must(err)
	must(x.SetEmbed(parent, 1, ch2))
	_, err = x.ReleaseRoot(rc2)
	must(err)
	ry, y, err := x.Malloc(32, 0)
	must(err)
	must(x.ChangeEmbed(parent, 0, y)) // frees ch1 through the change path
	_, err = x.ReleaseRoot(ry)
	must(err)
	_, err = x.ReleaseRoot(rp) // cascade: parent -> {y, ch2 -> gch}
	must(err)

	// Queue, x as sender.
	qr, q, err := x.CreateQueue(o.ID(), 4)
	must(err)
	oq, err := o.OpenQueue(q)
	must(err)
	oRoots = append(oRoots, oq)
	ro1, o1, err := x.Malloc(64, 0)
	must(err)
	must(x.Send(q, o1))
	_, err = x.ReleaseRoot(ro1)
	must(err)
	ro2, o2, err := x.Malloc(64, 0)
	must(err)
	must(x.Send(q, o2))
	_, err = x.ReleaseRoot(ro2)
	must(err)
	rb, _, err := o.Receive(q)
	must(err)
	oRoots = append(oRoots, rb)

	// Three more sends, each publishing its own tail, then three receives,
	// each closing its own era and publishing its own head: o2 is still
	// queued ahead of them, so one of the three stays in flight for recovery
	// to deal with.
	for i := 0; i < 3; i++ {
		r, b, err := x.Malloc(64, 0)
		must(err)
		must(x.Send(q, b))
		_, err = x.ReleaseRoot(r) // the slot owns the reference now
		must(err)
	}
	for i := 0; i < 3; i++ {
		r, _, err := o.Receive(q)
		must(err)
		oRoots = append(oRoots, r)
	}
	_, err = x.ReleaseRoot(qr) // x drops the queue; o2 still in flight
	must(err)

	// Queue, x as receiver.
	qr2, q2, err := o.CreateQueue(x.ID(), 4)
	must(err)
	oRoots = append(oRoots, qr2)
	xq, err := x.OpenQueue(q2)
	must(err)
	ro3, o3, err := o.Malloc(64, 0)
	must(err)
	must(o.Send(q2, o3))
	_, err = o.ReleaseRoot(ro3)
	must(err)
	rx, _, err := x.Receive(q2)
	must(err)
	_, err = x.ReleaseRoot(rx)
	must(err)
	_, err = x.ReleaseRoot(xq)
	must(err)

	// Cross-client free: x performs the last release of o's object.
	ro4, o4, err := o.Malloc(64, 0)
	must(err)
	xr4, err := x.OpenQueue(o4)
	must(err)
	_, err = o.ReleaseRoot(ro4)
	must(err)
	_, err = x.ReleaseRoot(xr4) // frees into o's segment: client_free path
	must(err)

	// x releases its last reference to a block of its own page twice more.
	// o attached the first and holds it: x's header guess is stale, so the
	// owner's drop loses its CAS and the release logs. o attached and
	// released the second: the owner's drop witnesses o's pair.
	r5, b5, err := x.Malloc(64, 0)
	must(err)
	or5, err := o.AttachRoot(b5)
	must(err)
	oRoots = append(oRoots, or5)
	_, err = x.ReleaseRoot(r5)
	must(err)
	r6, b6, err := x.Malloc(64, 0)
	must(err)
	or6, err := o.AttachRoot(b6)
	must(err)
	_, err = o.ReleaseRoot(or6)
	must(err)
	_, err = x.ReleaseRoot(r6)
	must(err)

	return oRoots
}

// finishAndValidate recovers the crashed client, lets the survivor drop its
// roots, runs background maintenance, and asserts the pool is completely
// clean: zero allocated objects, zero leaked segments.
func finishAndValidate(t *testing.T, p *shm.Pool, svc *recovery.Service,
	crashed *shm.Client, o *shm.Client, oRoots []layout.Addr, context string) {
	t.Helper()
	if err := p.MarkClientDead(crashed.ID()); err != nil {
		t.Fatalf("[%s] mark dead: %v", context, err)
	}
	if _, err := svc.RecoverClient(crashed.ID()); err != nil {
		t.Fatalf("[%s] recover: %v", context, err)
	}
	for _, r := range oRoots {
		if _, err := o.ReleaseRoot(r); err != nil {
			t.Fatalf("[%s] survivor release: %v", context, err)
		}
	}
	mon := recovery.NewMonitor(svc, recovery.MonitorConfig{})
	for i := 0; i < 4; i++ {
		mon.Tick()
	}
	res := mustClean(t, p, context)
	if res.AllocatedObjects != 0 {
		t.Fatalf("[%s] %d objects leaked", context, res.AllocatedObjects)
	}
	if res.SegmentsOther != 0 {
		t.Fatalf("[%s] %d segments stuck", context, res.SegmentsOther)
	}
}

// TestRecoverEveryCrashPoint is the exhaustive arm of the paper's §6.2.2
// fault-injection study, with the store index as the crash coordinate: the
// client is killed before every device write of the whole scenario, and
// after each death recovery must leave no leak, no double free, and no wild
// pointer.
func TestRecoverEveryCrashPoint(t *testing.T) {
	eachWrite(t, func(t *testing.T, f *fault) {
		p := newTestPool(t, f.hook())
		defer p.CloseDevice()
		x := connect(t, p)
		o := connect(t, p)
		svc, err := recovery.NewService(p)
		if err != nil {
			t.Fatal(err)
		}
		var oRoots []layout.Addr
		f.crash(x.ID(), func() { oRoots = scenario(t, x, o) })
		finishAndValidate(t, p, svc, x, o, oRoots, fmt.Sprintf("write %d", f.n))
	})
}

// fences returns the pool ring's EvClientFenced events for client cid.
func fences(p *shm.Pool, cid int) []obs.Event {
	var out []obs.Event
	for _, e := range p.Telemetry().Events() {
		if e.Type == obs.EvClientFenced && e.Client == cid {
			out = append(out, e)
		}
	}
	return out
}

func TestMonitorDetectsStalledClient(t *testing.T) {
	p := newTestPool(t)
	c := connect(t, p)
	if _, _, err := c.Malloc(64, 0); err != nil {
		t.Fatal(err)
	}
	svc, err := recovery.NewService(p)
	if err != nil {
		t.Fatal(err)
	}
	mon := recovery.NewMonitor(svc, recovery.MonitorConfig{Threshold: 2})
	// The client stops heartbeating (we simply never call Heartbeat again).
	for i := 0; i < 5; i++ {
		mon.Tick()
	}
	tl, ok := p.Telemetry().ReadTimeline(c.ID())
	if !ok || tl.Deaths != 1 || tl.Completed != 1 {
		t.Fatalf("timeline %+v (ok %v), want one death, recovered once", tl, ok)
	}
	if p.ClientStatus(c.ID()) != layout.ClientRecovered {
		t.Fatal("stalled client not recovered")
	}
	res := mustClean(t, p, "monitor")
	if res.AllocatedObjects != 0 {
		t.Fatal("stalled client's object leaked")
	}
	if tl.ReasonName != obs.FenceHeartbeat.String() {
		t.Fatalf("timeline reason %q, want %q", tl.ReasonName, obs.FenceHeartbeat)
	}
	if tl.FirstMissNS <= 0 || tl.FencedNS < tl.FirstMissNS {
		t.Fatalf("timeline missing detection detail: %+v", tl)
	}
	if fs := fences(p, c.ID()); len(fs) != 1 || obs.FenceReason(fs[0].A) != obs.FenceHeartbeat {
		t.Fatalf("fence events %+v, want exactly one, %q", fs, obs.FenceHeartbeat)
	}
	if snap := p.Obs().Snapshot(); snap.Counters[obs.CtrMonitorTick.Name()] != 5 {
		t.Fatalf("monitor_ticks = %d, want 5", snap.Counters[obs.CtrMonitorTick.Name()])
	}
}

func TestMonitorSparesHealthyClients(t *testing.T) {
	p := newTestPool(t)
	c := connect(t, p)
	svc, err := recovery.NewService(p)
	if err != nil {
		t.Fatal(err)
	}
	mon := recovery.NewMonitor(svc, recovery.MonitorConfig{Threshold: 3})
	for i := 0; i < 10; i++ {
		c.Heartbeat()
		mon.Tick()
	}
	if tl, ok := p.Telemetry().ReadTimeline(c.ID()); ok {
		t.Fatalf("monitor fenced a healthy client: timeline %+v", tl)
	}
	if fs := fences(p, c.ID()); len(fs) != 0 {
		t.Fatalf("monitor fenced a healthy client: %+v", fs)
	}
	if p.ClientStatus(c.ID()) != layout.ClientAlive {
		t.Fatal("healthy client not alive")
	}
}

func TestRecoveryServiceIsRestartable(t *testing.T) {
	// The recovery service is stateless: killing it mid-recovery and running
	// a fresh one must converge. We simulate by recovering twice.
	p := newTestPool(t)
	c := connect(t, p)
	for i := 0; i < 50; i++ {
		if _, _, err := c.Malloc(64, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Crash(); err != nil {
		t.Fatal(err)
	}
	svc1, err := recovery.NewService(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc1.RecoverClient(c.ID()); err != nil {
		t.Fatal(err)
	}
	// First service "dies"; a second recovers the same (already recovered)
	// client — must be a no-op, not a double free.
	if err := svc1.Executor().Crash(); err != nil {
		t.Fatal(err)
	}
	svc2, err := recovery.NewService(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc2.RecoverClient(svc1.Executor().ID()); err != nil {
		t.Fatal(err)
	}
	if _, err := svc2.RecoverClient(c.ID()); err == nil {
		t.Fatal("re-recovering a recovered client should report an error")
	}
	res := mustClean(t, p, "restartable")
	if res.AllocatedObjects != 0 {
		t.Fatalf("%d objects leaked", res.AllocatedObjects)
	}
}

// The RootRef sweep walks each page from its bump pointer down, on unsigned
// arithmetic: a damaged bump pointer below the page base must read as an
// empty page (as it did for the ascending loop this one replaced), not wrap
// into a sweep of everything beneath the page.
func TestSweepIgnoresBumpPointerBelowPage(t *testing.T) {
	p := newTestPool(t)
	c := connect(t, p)
	svc, err := recovery.NewService(p)
	if err != nil {
		t.Fatal(err)
	}
	root, _, err := c.Malloc(64, 0)
	if err != nil {
		t.Fatal(err)
	}
	geo := p.Geometry()
	seg := geo.SegmentIndexOf(root)
	pg := geo.PageIndexOf(seg, root)
	p.Device().Store(geo.PageMetaAddr(seg, pg)+shm.PageMetaScanOff, geo.PageBase(seg, pg)-layout.RootRefWords)
	if err := p.MarkClientDead(c.ID()); err != nil {
		t.Fatal(err)
	}
	rep, err := svc.RecoverClient(c.ID())
	if err != nil {
		t.Fatal(err)
	}
	if rep.SweptRoots != 0 {
		t.Fatalf("swept %d roots of a page whose bump pointer says it holds none", rep.SweptRoots)
	}
	if inUse, _ := layout.UnpackRootRef(p.Device().Load(root)); !inUse {
		t.Fatal("the slot above the damaged bump pointer was swept")
	}
}
