package shm_test

import (
	"os"
	"sync"
	"testing"

	"repro/internal/layout"
	"repro/internal/obs"
	"repro/internal/recovery"
	"repro/internal/shm"
)

// haltingWriter is a telemetry write plane that simulates a power loss after
// a fixed number of stores: the publish protocol must leave the previously
// committed slot intact no matter where the budget runs out.
type haltingWriter struct {
	p    *shm.Pool
	left int
}

func (w *haltingWriter) Load(a layout.Addr) uint64 { return w.p.Device().Load(a) }

func (w *haltingWriter) Store(a layout.Addr, v uint64) {
	if w.left <= 0 {
		panic("power loss")
	}
	w.left--
	w.p.Device().Store(a, v)
}

func TestTelemetryPublishReadback(t *testing.T) {
	p := newTestPool(t)
	tel := p.Telemetry()
	if err := tel.Validate(); err != nil {
		t.Fatalf("Validate on a fresh pool: %v", err)
	}

	c := connect(t, p)
	const allocs = 7
	for i := 0; i < allocs; i++ {
		if _, _, err := c.Malloc(64, 0); err != nil {
			t.Fatal(err)
		}
	}
	c.FlushMetrics()

	b, ok := tel.ReadBlock(c.ID())
	if !ok {
		t.Fatalf("client %d published but ReadBlock says never", c.ID())
	}
	if !b.Consistent {
		t.Fatal("single-writer publish read back inconsistent")
	}
	if got := b.Counters[obs.CtrAlloc]; got != allocs {
		t.Errorf("telemetry alloc counter = %d, want %d", got, allocs)
	}
	if b.Publishes < 2 { // Connect heartbeats once, FlushMetrics publishes again
		t.Errorf("publish count = %d, want >= 2", b.Publishes)
	}
	if b.Identity != uint64(os.Getpid()) {
		t.Errorf("block identity = %d, want our pid %d", b.Identity, os.Getpid())
	}
	if b.TimeNS == 0 {
		t.Error("published block carries no timestamp")
	}

	// A slot that never connected has no published block.
	if _, ok := tel.ReadBlock(c.ID() + 1); ok {
		t.Error("ReadBlock returned ok for a never-published client slot")
	}
	// The pool block always reads (CAS-added words, commit protocol unused).
	if _, ok := tel.ReadBlock(0); !ok {
		t.Error("pool block must always read ok")
	}
}

// TestTelemetryCrashMidPublish kills a publication at every possible store
// position and verifies the previously committed vector survives each one:
// the double-buffered slot absorbs the torn write, the commit word is only
// flipped by a publish that ran to completion.
func TestTelemetryCrashMidPublish(t *testing.T) {
	p := newTestPool(t)
	tel := p.Telemetry()
	const cid = 3

	var committed [obs.NumCounters]uint64
	for i := range committed {
		committed[i] = 1000 + uint64(i)
	}
	var histos [obs.NumHistos][obs.HistBuckets]uint64
	histos[obs.HistAllocNS][obs.BucketOf(100)]++
	tel.PublishShard(&haltingWriter{p: p, left: 1 << 20}, cid, &committed, &histos, 42, new(shm.TelLast))

	var torn [obs.NumCounters]uint64
	for i := range torn {
		torn[i] = 7777
	}
	// Stores per publish that knows nothing of the slot (a fresh TelLast):
	// time + counters + histogram vectors + commit.
	total := 1 + int(obs.NumCounters) + int(obs.NumHistos)*obs.HistBuckets + 1
	for budget := 0; budget < total; budget++ {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("budget %d: publish finished under a smaller store budget than %d", budget, total)
				}
			}()
			tel.PublishShard(&haltingWriter{p: p, left: budget}, cid, &torn, &histos, 43, new(shm.TelLast))
		}()
		b, ok := tel.ReadBlock(cid)
		if !ok || !b.Consistent {
			t.Fatalf("budget %d: committed block unreadable after torn publish", budget)
		}
		if b.Publishes != 1 || b.TimeNS != 42 {
			t.Fatalf("budget %d: torn publish became visible (publishes=%d time=%d)", budget, b.Publishes, b.TimeNS)
		}
		if b.Counters != committed {
			t.Fatalf("budget %d: committed vector corrupted: %v", budget, b.Counters)
		}
	}
	// Sanity: the full budget does commit.
	tel.PublishShard(&haltingWriter{p: p, left: total}, cid, &torn, &histos, 43, new(shm.TelLast))
	if b, _ := tel.ReadBlock(cid); b.Publishes != 2 || b.Counters != torn {
		t.Fatalf("complete publish did not commit (publishes=%d)", b.Publishes)
	}
}

// TestTelemetrySeqlockNoTornReads is the torn-read property under the race
// detector: a writer publishes only uniform counter vectors (every counter
// equals the publication's timestamp), so any consistent read that is not
// uniform is a torn snapshot the seqlock failed to suppress.
func TestTelemetrySeqlockNoTornReads(t *testing.T) {
	p := newTestPool(t)
	tel := p.Telemetry()
	const cid = 5
	rounds := 3000
	if testing.Short() {
		rounds = 300
	}
	var histos [obs.NumHistos][obs.HistBuckets]uint64

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				b, ok := tel.ReadBlock(cid)
				if !ok || !b.Consistent {
					continue // not yet published, or retry budget exhausted
				}
				want := b.Counters[0]
				if uint64(b.TimeNS) != want {
					t.Errorf("torn read: time %d does not match counter %d", b.TimeNS, want)
					return
				}
				for i, v := range b.Counters {
					if v != want {
						t.Errorf("torn read: counter %d = %d, rest of vector = %d", i, v, want)
						return
					}
				}
			}
		}()
	}

	var ctrs [obs.NumCounters]uint64
	var last shm.TelLast
	for k := 1; k <= rounds; k++ {
		for i := range ctrs {
			ctrs[i] = uint64(k)
		}
		tel.PublishShard(p.Device(), cid, &ctrs, &histos, int64(k), &last)
	}
	close(stop)
	wg.Wait()
}

// TestEventRingWraparound: the pool's event ring is the one record of
// recovery-lifecycle events. More appends than it holds keep exactly the
// newest TelRingRecords, returned in Seq order with their payloads intact.
func TestEventRingWraparound(t *testing.T) {
	p := newTestPool(t)
	tel := p.Telemetry()
	base := uint64(len(tel.Events())) // a fresh pool's ring is empty, but count what is there
	const n = layout.TelRingRecords + 44
	for i := 1; i <= n; i++ {
		p.Trace(obs.Event{Type: obs.EvSegmentFlagged, Segment: i})
	}
	evs := tel.Events()
	if len(evs) != layout.TelRingRecords {
		t.Fatalf("ring returned %d events after %d appends, want %d", len(evs), n, layout.TelRingRecords)
	}
	for k, e := range evs {
		if k > 0 && e.Seq != evs[k-1].Seq+1 {
			t.Fatalf("event %d: seq %d after %d, want consecutive", k, e.Seq, evs[k-1].Seq)
		}
		if want := n - layout.TelRingRecords + 1 + k; e.Segment != want || e.Type != obs.EvSegmentFlagged {
			t.Fatalf("event %d = %+v, want segment %d (newest %d, oldest first)", k, e, want, layout.TelRingRecords)
		}
		if e.Time.IsZero() {
			t.Fatalf("event %d carries no timestamp", k)
		}
	}
	if last := evs[len(evs)-1].Seq; last != base+n-1 {
		t.Fatalf("newest seq = %d, want %d", last, base+n-1)
	}
}

// TestEventRingConcurrentAppends: two appenders race through the ring while
// a reader decodes it. Every appended record ties its client and payload
// words to its segment, so a record mixing two appends is a torn read.
func TestEventRingConcurrentAppends(t *testing.T) {
	p := newTestPool(t)
	tel := p.Telemetry()
	const perWriter, segBase = 2 * layout.TelRingRecords, 1 << 20
	var wg sync.WaitGroup
	for w := 1; w <= 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i <= perWriter; i++ {
				seg := w*segBase + i
				p.Trace(obs.Event{Type: obs.EvRedoReplayed, Client: w, Segment: seg, A: uint64(seg) * 3, B: uint64(seg) * 7})
			}
		}()
	}
	check := func(evs []obs.Event) {
		for k, e := range evs {
			if e.Type != obs.EvRedoReplayed || e.Segment/segBase != e.Client ||
				e.A != uint64(e.Segment)*3 || e.B != uint64(e.Segment)*7 {
				t.Fatalf("torn record: %+v", e)
			}
			if k > 0 && e.Seq <= evs[k-1].Seq {
				t.Fatalf("events out of order: seq %d after %d", e.Seq, evs[k-1].Seq)
			}
		}
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for reading := true; reading; {
		select {
		case <-done:
			reading = false
		default:
			check(tel.Events())
		}
	}
	evs := tel.Events()
	check(evs)
	if len(evs) != layout.TelRingRecords || evs[len(evs)-1].Seq != 2*perWriter-1 {
		t.Fatalf("after %d appends the ring holds %d events ending at seq %d", 2*perWriter, len(evs), evs[len(evs)-1].Seq)
	}
}

func TestQueueDepths(t *testing.T) {
	p := newTestPool(t)
	a := connect(t, p)
	b := connect(t, p)

	if qs := p.Queues(); len(qs) != 0 {
		t.Fatalf("fresh pool reports %d queues", len(qs))
	}
	qr, q, err := a.CreateQueue(b.ID(), 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		r, blk, err := a.Malloc(64, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Send(q, blk); err != nil {
			t.Fatal(err)
		}
		a.ReleaseRoot(r)
	}
	qs := p.Queues()
	if len(qs) != 1 {
		t.Fatalf("Queues() found %d queues, want 1", len(qs))
	}
	d := qs[0]
	if d.Sender != a.ID() || d.Receiver != b.ID() || d.Capacity != 4 {
		t.Errorf("queue endpoints = %d->%d cap %d, want %d->%d cap 4", d.Sender, d.Receiver, d.Capacity, a.ID(), b.ID())
	}
	if d.Depth() != 2 {
		t.Errorf("queue depth = %d after 2 unreceived sends, want 2", d.Depth())
	}
	bq, err := b.OpenQueue(q)
	if err != nil {
		t.Fatal(err)
	}
	r, _, err := b.Receive(q)
	if err != nil {
		t.Fatal(err)
	}
	b.ReleaseRoot(r)
	if qs := p.Queues(); qs[0].Depth() != 1 {
		t.Errorf("queue depth = %d after one receive, want 1", qs[0].Depth())
	}
	b.ReleaseRoot(bq)
	a.ReleaseRoot(qr)
}

// countingWriter counts the stores of one publication.
type countingWriter struct {
	p      *shm.Pool
	stores int
}

func (w *countingWriter) Load(a layout.Addr) uint64 { return w.p.Device().Load(a) }
func (w *countingWriter) Store(a layout.Addr, v uint64) {
	w.stores++
	w.p.Device().Store(a, v)
}

// TestTelemetryDeltaPublication pins the delta protocol: a publisher with a
// TelLast stores only the words that differ from what the target slot held
// two publications ago (plus time and commit), a reader racing it never sees
// a torn or regressed vector, and a re-leased slot's first publications are
// complete.
func TestTelemetryDeltaPublication(t *testing.T) {
	p := newTestPool(t)
	tel := p.Telemetry()
	var histos [obs.NumHistos][obs.HistBuckets]uint64

	t.Run("one counter changed", func(t *testing.T) {
		const cid = 3
		var ctrs [obs.NumCounters]uint64
		var last shm.TelLast
		full := 1 + int(obs.NumCounters) + int(obs.NumHistos)*obs.HistBuckets + 1
		for k := 1; k <= 6; k++ {
			ctrs[obs.CtrAlloc]++
			w := &countingWriter{p: p}
			tel.PublishShard(w, cid, &ctrs, &histos, int64(k), &last)
			switch {
			case k <= 2 && w.stores != full:
				t.Fatalf("publish %d (first write of its slot) stored %d words, want all %d", k, w.stores, full)
			case k > 2 && w.stores > 4:
				t.Fatalf("publish %d with one counter changed stored %d words, want at most 4", k, w.stores)
			}
			if b, ok := tel.ReadBlock(cid); !ok || !b.Consistent || b.Counters != ctrs || b.TimeNS != int64(k) {
				t.Fatalf("publish %d read back ok=%v %+v", k, ok, b.Counters)
			}
		}
		// Publications cut short after 0..3 stores, each with two more counters
		// changed: the copy follows every store that landed, so the complete
		// publication after them leaves no stale word behind.
		for budget := 0; budget <= 3; budget++ {
			ctrs[obs.CtrAlloc]++
			ctrs[obs.CtrFree]++
			func() {
				defer func() { recover() }()
				tel.PublishShard(&haltingWriter{p: p, left: budget}, cid, &ctrs, &histos, 7, &last)
			}()
			if b, _ := tel.ReadBlock(cid); b.TimeNS != 6 {
				t.Fatalf("budget %d: a publication cut short became visible (time %d)", budget, b.TimeNS)
			}
		}
		ctrs[obs.CtrAlloc]++
		tel.PublishShard(p.Device(), cid, &ctrs, &histos, 8, &last)
		if b, ok := tel.ReadBlock(cid); !ok || !b.Consistent || b.Counters != ctrs || b.TimeNS != 8 {
			t.Fatalf("after four publications cut short: ok=%v %+v, want %+v", ok, b.Counters, ctrs)
		}
	})

	t.Run("racing reader", func(t *testing.T) {
		const cid = 5
		rounds := 10_000
		var wg sync.WaitGroup
		stop := make(chan struct{})
		for r := 0; r < 2; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var seen uint64
				for {
					select {
					case <-stop:
						return
					default:
					}
					b, ok := tel.ReadBlock(cid)
					if !ok || !b.Consistent {
						continue
					}
					// Publication k holds k in counter 0 and in the time word,
					// spread over counters 1..5 one increment at a time.
					var sum uint64
					for _, v := range b.Counters[1:6] {
						sum += v
					}
					if k := b.Counters[0]; sum != k || uint64(b.TimeNS) != k {
						t.Errorf("torn read: counter 0 = %d, counters 1..5 sum to %d, time %d", k, sum, b.TimeNS)
						return
					} else if k < seen {
						t.Errorf("regressed read: publication %d after %d", k, seen)
						return
					} else {
						seen = k
					}
				}
			}()
		}
		var ctrs [obs.NumCounters]uint64
		var last shm.TelLast
		for k := 1; k <= rounds; k++ {
			ctrs[0] = uint64(k)
			ctrs[1+k%5]++
			tel.PublishShard(p.Device(), cid, &ctrs, &histos, int64(k), &last)
		}
		close(stop)
		wg.Wait()
	})

	t.Run("re-leased slot", func(t *testing.T) {
		c := connect(t, p)
		cid := c.ID()
		for i := 0; i < 4; i++ {
			if _, _, err := c.Malloc(64, 0); err != nil {
				t.Fatal(err)
			}
			c.FlushMetrics()
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		svc, err := recovery.NewService(p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := svc.RecoverClient(cid); err != nil {
			t.Fatal(err)
		}
		// Whatever the idle block's slots hold is not the next lessee's.
		geo, dev := p.Geometry(), p.Device()
		for slot := 0; slot < 2; slot++ {
			for i := uint64(0); i < geo.TelSlotWords; i++ {
				dev.Store(geo.TelSlotBase(cid, slot)+layout.Addr(i), 0xdead)
			}
		}
		var c2 *shm.Client
		for c2 == nil || c2.ID() != cid {
			c2 = connect(t, p)
		}
		for publish := 1; publish <= 3; publish++ {
			b, ok := tel.ReadBlock(cid)
			if !ok || !b.Consistent || int(b.Publishes) != publish {
				t.Fatalf("publication %d of the new lessee: ok=%v %+v", publish, ok, b)
			}
			for i, v := range b.Counters {
				if v == 0xdead {
					t.Fatalf("publication %d left counter %d of the previous lessee's slot in place", publish, i)
				}
			}
			for h := range b.Histos {
				for i, v := range b.Histos[h] {
					if v == 0xdead {
						t.Fatalf("publication %d left bucket %d/%d of the previous lessee's slot in place", publish, h, i)
					}
				}
			}
			c2.FlushMetrics()
		}
	})
}

// The pool block is the one store of pool-wide facts, written by any
// process: concurrent PoolAdds and PoolObserves sum exactly.
func TestPoolBlockConcurrentAdds(t *testing.T) {
	p := newTestPool(t)
	tel := p.Telemetry()
	const writers, each = 4, 2000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < each; j++ {
				tel.PoolAdd(obs.CtrMonitorTick, 1)
				tel.PoolAdd(obs.CtrFsckIssues, 2)
				tel.PoolObserve(obs.HistRecoveryNS, int64(j%4096)+1)
			}
		}()
	}
	wg.Wait()
	snap := p.Obs().Snapshot()
	if got := snap.Counters[obs.CtrMonitorTick.Name()]; got != writers*each {
		t.Errorf("monitor_ticks = %d, want %d", got, writers*each)
	}
	if got := snap.Counters[obs.CtrFsckIssues.Name()]; got != 2*writers*each {
		t.Errorf("fsck_issues_found = %d, want %d", got, 2*writers*each)
	}
	if h := snap.Histograms[obs.HistRecoveryNS.Name()]; h.Count != writers*each || h.MaxNS > 8192 {
		t.Errorf("recovery_ns: %d observations, max %d; want %d, at most 8192", h.Count, h.MaxNS, writers*each)
	}
}

// Snapshots taken while a client publishes and the pool block is added to
// never go backwards: every counter and histogram count is non-decreasing
// across successive Pool.Obs snapshots.
func TestObsSnapshotWhileWriting(t *testing.T) {
	p := newTestPool(t)
	c := connect(t, p)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			root, _, err := c.Malloc(64, 0)
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := c.ReleaseRoot(root); err != nil {
				t.Error(err)
				return
			}
			if i%8 == 0 {
				c.Heartbeat()
			}
		}
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				p.Telemetry().PoolAdd(obs.CtrMonitorTick, 1)
			}
		}
	}()
	var prev obs.Snapshot
	seen := func() bool {
		return prev.Counters[obs.CtrAlloc.Name()] > 0 && prev.Counters[obs.CtrMonitorTick.Name()] > 0
	}
	for i := 0; i < 200 || !seen() && i < 100_000; i++ {
		snap := p.Obs().Snapshot()
		for name, v := range prev.Counters {
			if snap.Counters[name] < v {
				t.Fatalf("counter %s went backwards: %d -> %d", name, v, snap.Counters[name])
			}
		}
		for name, h := range prev.Histograms {
			if got := snap.Histograms[name].Count; got < h.Count {
				t.Fatalf("histogram %s count went backwards: %d -> %d", name, h.Count, got)
			}
		}
		prev = snap
	}
	close(stop)
	wg.Wait()
	if !seen() {
		t.Fatalf("no publication seen: %v", prev.Counters)
	}
}
