package main

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"syscall"
	"time"

	"repro/internal/kv"
	"repro/internal/layout"
	"repro/internal/netrpc"
	"repro/internal/serving"
	"repro/internal/shm"
)

// Probes call one layer directly, from outside, and time it. They run in
// the traced run only, after the workload's own legs, on a fixture of their
// own with the kv-serve geometry (200 000 keys × 64 B, 32 768 buckets, two
// workers), so that a layer's number means the same thing whichever
// workload's traced run reports it. Every probe is bracketed by samples of
// the matching reference kernel and scaled like a slice is.
const (
	probeBatch       = 64
	probeCXLAccesses = 1 << 20
	probeCXLWords    = 1 << 20 // 8 MiB window
	probeShmRounds   = 512
	probeKVBatches   = 1024 // × probeBatch ops
	probeInsertBatch = 256
	probeScans       = 2048
	probeRounds      = 8
	probeCalls       = 16_384 // per caller, over all rounds
	probeScanCalls   = 2048   // per caller, over all rounds
	probeCycles      = 256
	probeTakeovers   = 8
	probeCallers     = 2
)

type prober struct {
	o      options
	tr     *tracer
	parent int
	M      metrics
	cpu    *refCPU
	net    *refNet
}

// cal runs f between two samples of ref and returns the factor that scales
// f's timings to the nominal machine.
func (p *prober) cal(ref refKernel, name string, f func() error) (float64, error) {
	r0, err := ref.sample()
	if err != nil {
		return 0, err
	}
	sp := p.tr.open(name, p.parent)
	if err := f(); err != nil {
		return 0, fmt.Errorf("%s: %w", name, err)
	}
	p.tr.done(sp)
	r1, err := ref.sample()
	if err != nil {
		return 0, err
	}
	return ref.nominalUS() / ((r0 + r1) / 2), nil
}

func medianNS(lat []int64) float64 {
	s := slices.Clone(lat)
	slices.Sort(s)
	return float64(s[len(s)/2])
}

// batched times f over rounds batches of probeBatch calls and returns the
// median per-call ns.
func batched(rounds int, f func(i int) error) (float64, error) {
	per := make([]float64, rounds)
	for r := 0; r < rounds; r++ {
		t0 := time.Now()
		for i := 0; i < probeBatch; i++ {
			if err := f(r*probeBatch + i); err != nil {
				return 0, err
			}
		}
		per[r] = float64(time.Since(t0).Nanoseconds()) / probeBatch
	}
	return median(per), nil
}

func runProbes(o options, tr *tracer, parent int, M metrics) error {
	p := &prober{o: o, tr: tr, parent: parent, M: M, cpu: newRefCPU()}
	var err error
	if p.net, err = newRefNet(probeCallers); err != nil {
		return err
	}
	defer p.net.close()

	var cpuUS, netUS []float64
	for i := 0; i < 9; i++ {
		c := p.cpu.run()
		n, err := p.net.sample()
		if err != nil {
			return err
		}
		cpuUS, netUS = append(cpuUS, c), append(netUS, n)
	}
	M.set("ref.cpu_us", median(cpuUS), "us")
	M.set("ref.net_us", median(netUS), "us")

	e := &env{seed: o.seed, dir: o.outDir, cpu: p.cpu}
	e.beginSetup()
	tier, err := buildStore(e, "probe")
	if err != nil {
		return err
	}
	defer tier.close()
	if err := p.memory(tier); err != nil {
		return err
	}
	if err := p.wire(tier); err != nil {
		return err
	}
	if issues, _ := validate(tier.p); issues > 0 {
		return fmt.Errorf("probe pool: check.Validate found %d issues", issues)
	}
	return p.recovery(e)
}

// memory probes cxl, shm and kv through a direct client of the probe pool,
// before any worker holds the partition leases.
func (p *prober) memory(tier *serveTier) error {
	a, err := tier.p.Connect()
	if err != nil {
		return err
	}
	b, err := tier.p.Connect()
	if err != nil {
		return err
	}
	if err := p.cxl(tier.p, a); err != nil {
		return err
	}
	if err := p.shm(tier.p, a, b); err != nil {
		return err
	}
	if err := p.kv(a); err != nil {
		return err
	}
	for _, c := range []*shm.Client{a, b} {
		if err := c.Close(); err != nil {
			return err
		}
		if _, err := tier.svc.RecoverClient(c.ID()); err != nil {
			return err
		}
	}
	return nil
}

// cxl: random loads, CASes and stores through a client Handle on the
// file-backed device, inside the data area of one huge object.
func (p *prober) cxl(pool *shm.Pool, c *shm.Client) error {
	root, block, err := c.Malloc((probeCXLWords+4096)*8, 0)
	if err != nil {
		return err
	}
	h := pool.Device().Open(c.ID())
	base := block + 2048
	x := uint64(0x2545f4914f6cdd1d)
	step := func() layout.Addr {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return base + x&(probeCXLWords-1)
	}
	// First touch of the window's pages in the mapped file is the kernel's
	// cost, not the device path's: take it before timing.
	for a := base; a < base+probeCXLWords; a += 512 {
		h.Store(a, 0)
	}
	var sink uint64
	var loadNS, casNS, storeNS float64
	f, err := p.cal(p.cpu, "cxl", func() error {
		t0 := time.Now()
		for i := 0; i < probeCXLAccesses; i++ {
			sink += h.Load(step())
		}
		t1 := time.Now()
		for i := 0; i < probeCXLAccesses; i++ {
			if h.CAS(step(), 0, x) {
				sink++
			}
		}
		t2 := time.Now()
		for i := 0; i < probeCXLAccesses; i++ {
			h.Store(step(), x)
		}
		t3 := time.Now()
		loadNS = float64(t1.Sub(t0).Nanoseconds()) / probeCXLAccesses
		casNS = float64(t2.Sub(t1).Nanoseconds()) / probeCXLAccesses
		storeNS = float64(t3.Sub(t2).Nanoseconds()) / probeCXLAccesses
		return nil
	})
	if err != nil {
		return err
	}
	runtime.KeepAlive(sink)
	p.M.set("cxl.load_ns", loadNS*f, "ns")
	p.M.set("cxl.cas_ns", casNS*f, "ns")
	p.M.set("cxl.store_ns", storeNS*f, "ns")
	_, err = c.ReleaseRoot(root)
	return err
}

// shm: the allocator and reference primitives in batches of 64, plus the
// two maintenance calls a serving worker's lock is held for.
func (p *prober) shm(pool *shm.Pool, a, b *shm.Client) error {
	qRootA, q, err := a.CreateQueue(b.ID(), 8)
	if err != nil {
		return err
	}
	qRootB, err := b.OpenQueue(q)
	if err != nil {
		return err
	}
	var roots, blocks, clones [probeBatch]layout.Addr
	mallocNS := make([]float64, probeShmRounds)
	cloneNS := make([]float64, probeShmRounds)
	xferNS := make([]float64, probeShmRounds)
	freeNS := make([]float64, probeShmRounds)
	var hb, scans []int64
	f, err := p.cal(p.cpu, "shm", func() error {
		for r := 0; r < probeShmRounds; r++ {
			t0 := time.Now()
			for i := range roots {
				if roots[i], blocks[i], err = a.Malloc(64, 0); err != nil {
					return err
				}
			}
			t1 := time.Now()
			for i := range clones {
				if clones[i], err = a.AttachRoot(blocks[i]); err != nil {
					return err
				}
			}
			t2 := time.Now()
			for _, c := range clones {
				if _, err := a.ReleaseRoot(c); err != nil {
					return err
				}
			}
			t3 := time.Now()
			for _, blk := range blocks {
				if err := a.Send(q, blk); err != nil {
					return err
				}
				got, _, err := b.Receive(q)
				if err != nil {
					return err
				}
				if _, err := b.ReleaseRoot(got); err != nil {
					return err
				}
			}
			t4 := time.Now()
			for _, root := range roots {
				if _, err := a.ReleaseRoot(root); err != nil {
					return err
				}
			}
			t5 := time.Now()
			// A heartbeat with this round's frees still deferred: the
			// publication burst a busy worker's heartbeat pays for.
			a.Heartbeat()
			t6 := time.Now()
			mallocNS[r] = float64(t1.Sub(t0).Nanoseconds()) / probeBatch
			cloneNS[r] = float64(t2.Sub(t1).Nanoseconds()) / probeBatch
			xferNS[r] = float64(t4.Sub(t3).Nanoseconds()) / probeBatch
			freeNS[r] = float64(t5.Sub(t4).Nanoseconds()) / probeBatch
			hb = append(hb, t6.Sub(t5).Nanoseconds())
		}
		// One segment full of live 64-byte blocks, scanned by its owner.
		var live []layout.Addr
		for i := 0; i < 3000; i++ {
			root, _, err := a.Malloc(64, 0)
			if err != nil {
				return err
			}
			live = append(live, root)
		}
		seg := pool.Geometry().SegmentIndexOf(a.RootTarget(live[len(live)-1]))
		for i := 0; i < 256; i++ {
			t0 := time.Now()
			a.ScanSegment(seg, false)
			scans = append(scans, time.Since(t0).Nanoseconds())
		}
		for _, root := range live {
			if _, err := a.ReleaseRoot(root); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.M.set("shm.malloc_ns", median(mallocNS)*f, "ns")
	p.M.set("shm.clone_ns", median(cloneNS)*f, "ns")
	p.M.set("shm.xfer_ns", median(xferNS)*f, "ns")
	p.M.set("shm.free_ns", median(freeNS)*f, "ns")
	p.M.set("shm.heartbeat_us", medianNS(hb)*f/1e3, "us")
	p.M.set("shm.scan_seg_us", medianNS(scans)*f/1e3, "us")
	if _, err := a.ReleaseRoot(qRootA); err != nil {
		return err
	}
	_, err = b.ReleaseRoot(qRootB)
	return err
}

// kv: Store calls on a direct client that owns both partitions, over the
// zipfian key stream kv-serve-read uses.
func (p *prober) kv(c *shm.Client) error {
	s, err := kv.Open(c, kvRootSlot)
	if err != nil {
		return err
	}
	for part := 0; part < kvWorkers; part++ {
		if !s.AcquirePartition(part, false) {
			return fmt.Errorf("partition %d already held by client %d", part, s.PartitionOwner(part))
		}
	}
	z := newZipf(kvKeys, 0.99)
	r := newRNG(p.o.seed, 99)
	keys := make([]uint64, probeKVBatches*probeBatch)
	for i := range keys {
		keys[i] = z.key(r)
	}
	buf, want := make([]byte, kvValSize), make([]byte, kvValSize)
	var sink byte
	var getNS, viewNS, updateNS, insertNS float64
	var scans []int64
	f, err := p.cal(p.cpu, "kv", func() error {
		if getNS, err = batched(probeKVBatches, func(i int) error {
			_, err := s.Get(keys[i], buf)
			return err
		}); err != nil {
			return err
		}
		if viewNS, err = batched(probeKVBatches, func(i int) error {
			return s.View(keys[i], func(val []byte) error { sink += val[0]; return nil })
		}); err != nil {
			return err
		}
		if updateNS, err = batched(probeKVBatches, func(i int) error {
			valFor(keys[i], want)
			return s.Update(keys[i], func(val []byte) error { copy(val, want); return nil })
		}); err != nil {
			return err
		}
		if insertNS, err = batched(probeInsertBatch, func(i int) error {
			key := uint64(1<<40 + i)
			valFor(key, want)
			return s.Put(key, want)
		}); err != nil {
			return err
		}
		for i := 0; i < probeScans; i++ {
			n := 0
			t0 := time.Now()
			s.RangeBuckets(r.intn(kvBuckets), kvBuckets, func(key uint64, val []byte) bool {
				sink += val[0]
				n++
				return n < kvScanSpan
			})
			scans = append(scans, time.Since(t0).Nanoseconds())
		}
		return nil
	})
	if err != nil {
		return err
	}
	runtime.KeepAlive(sink)
	p.M.set("kv.get_us", getNS*f/1e3, "us")
	p.M.set("kv.view_us", viewNS*f/1e3, "us")
	p.M.set("kv.update_us", updateNS*f/1e3, "us")
	p.M.set("kv.insert_us", insertNS*f/1e3, "us")
	p.M.set("kv.scan64_us", medianNS(scans)*f/1e3, "us")

	// The updates rewrote every value with the same bytes; reads must agree.
	for i := 0; i < len(keys); i += 37 {
		if _, err := s.Get(keys[i], buf); err != nil {
			return err
		}
		valFor(keys[i], want)
		if !bytes.Equal(buf, want) {
			return fmt.Errorf("key %d reads back the wrong value", keys[i])
		}
	}
	// Chain position of every preloaded key: what a Get walks past.
	pos := make([]uint8, kvKeys)
	for bkt := 0; bkt < kvBuckets; bkt++ {
		n := uint8(0)
		s.RangeBuckets(bkt, 1, func(key uint64, _ []byte) bool {
			if n++; key < kvKeys {
				pos[key] = n
			}
			return true
		})
	}
	examined := 0
	for _, k := range keys {
		examined += int(pos[k])
	}
	p.M.set("kv.keys_examined_per_get", float64(examined)/float64(len(keys)), "count")
	return s.Close()
}

// Echo function ids, with the request and response sizes of the serving
// tier's GET, PUT and 64-record SCAN frames.
const (
	echoGet uint64 = iota + 1
	echoPut
	echoScan
)

// callers runs n timed calls on each of `count` goroutines and appends
// their latencies (ns) to *into.
func callers(count, n int, into *[]int64, call func(c, i int) error) error {
	lats := make([][]int64, count)
	errs := make([]error, count)
	runCallers(count, func(c int) int {
		lat := make([]int64, n)
		for i := range lat {
			t0 := time.Now()
			if err := call(c, i); err != nil {
				errs[c] = err
				return 1
			}
			lat[i] = time.Since(t0).Nanoseconds()
		}
		lats[c] = lat
		return 0
	})
	for c, lat := range lats {
		if errs[c] != nil {
			return errs[c]
		}
		*into = append(*into, lat...)
	}
	return nil
}

func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// usage is process CPU time and allocation counters, for deltas.
type usage struct {
	cpu            time.Duration
	mallocs, bytes uint64
}

func readUsage() (usage, error) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	cpu, err := cpuTime()
	return usage{cpu, ms.Mallocs, ms.TotalAlloc}, err
}

func (u *usage) addSince(before usage) error {
	now, err := readUsage()
	u.cpu += now.cpu - before.cpu
	u.mallocs += now.mallocs - before.mallocs
	u.bytes += now.bytes - before.bytes
	return err
}

// wire probes netrpc and serving together, in alternating rounds, so that
// the rows the budget subtracts from one another (serving.get_us −
// netrpc.echo_get_us − kv.get_us) saw the same machine:
//
//   - netrpc alone: a handler that does nothing but return a preallocated
//     buffer of the real response size;
//   - serving: Conn calls against the two workers, two callers;
//   - the cost of sharing one worker: GETs of one partition's keys from one
//     caller, then from two;
//
// and afterwards the metadata-only takeover of a dead writer's partition.
func (p *prober) wire(tier *serveTier) error {
	getResp := make([]byte, 1+kvValSize)
	scanResp := make([]byte, 16+kvScanSpan*kvRecBytes)
	srv, err := netrpc.NewServerConfig(func(fn uint64, payload []byte) ([]byte, error) {
		switch fn {
		case echoGet:
			return getResp, nil
		case echoScan:
			return scanResp, nil
		}
		return nil, nil
	}, netrpc.Config{})
	if err != nil {
		return err
	}
	defer srv.Close()
	if err := tier.startWorkers(true); err != nil {
		return err
	}
	var echo [probeCallers]*netrpc.Client
	var conns [probeCallers][]*serving.Conn
	var bufs, wants [probeCallers][]byte
	for c := range conns {
		if echo[c], err = netrpc.Dial(srv.Addr()); err != nil {
			return err
		}
		defer echo[c].Close()
		if conns[c], err = tier.dial(); err != nil {
			return err
		}
		defer closeConns(conns[c])
		bufs[c], wants[c] = make([]byte, kvValSize), make([]byte, kvValSize)
	}
	z := newZipf(kvKeys, 0.99)
	r := newRNG(p.o.seed, 98)
	keys := make([]uint64, probeCallers*probeCalls)
	var part0 []uint64 // keys of partition 0: every one is served by worker 0
	for i := range keys {
		keys[i] = z.key(r)
		if kv.Partition(keys[i], kvBuckets, kvWorkers) == 0 {
			part0 = append(part0, keys[i])
		}
	}
	route := func(c int, key uint64) *serving.Conn {
		return conns[c][kv.Partition(key, kvBuckets, kvWorkers)]
	}
	get := func(c int, key uint64) error {
		val, found, err := route(c, key).Get(key)
		if err != nil {
			return err
		}
		valFor(key, wants[c])
		if !found || !bytes.Equal(val, wants[c]) {
			return fmt.Errorf("GET %d: wrong value (found=%v)", key, found)
		}
		return nil
	}
	getReq, putReq, scanReq := make([]byte, 8), make([]byte, kvRecBytes), make([]byte, 16)

	const (
		calls = probeCalls / probeRounds     // per caller per round
		scans = probeScanCalls / probeRounds //
	)
	shared := len(part0) / (probeCallers * probeRounds) // partition-0 GETs per caller per round
	var echoGetNS, echoPutNS, echoScanNS, getNS, putNS, scanNS, oneNS, twoNS []int64
	var echoUse, getUse usage
	refs := make([]float64, 0, probeRounds+1)
	sp := p.tr.open("wire", p.parent)
	for round := 0; round <= probeRounds; round++ {
		ref, err := p.net.sample()
		if err != nil {
			return err
		}
		if refs = append(refs, ref); round == probeRounds {
			break
		}
		at := func(c, i int) uint64 { return keys[c*probeCalls+round*calls+i] }
		u0, err := readUsage()
		if err != nil {
			return err
		}
		if err := callers(probeCallers, calls, &echoGetNS, func(c, i int) error {
			_, err := echo[c].Call(echoGet, getReq)
			return err
		}); err != nil {
			return err
		}
		if err := echoUse.addSince(u0); err != nil {
			return err
		}
		u0, _ = readUsage()
		if err := callers(probeCallers, calls, &getNS, func(c, i int) error { return get(c, at(c, i)) }); err != nil {
			return err
		}
		if err := getUse.addSince(u0); err != nil {
			return err
		}
		if err := callers(probeCallers, calls, &echoPutNS, func(c, i int) error {
			_, err := echo[c].Call(echoPut, putReq)
			return err
		}); err != nil {
			return err
		}
		if err := callers(probeCallers, calls, &putNS, func(c, i int) error {
			key := at(c, i)
			valFor(key, bufs[c])
			return route(c, key).Put(key, bufs[c])
		}); err != nil {
			return err
		}
		if err := callers(probeCallers, scans, &echoScanNS, func(c, i int) error {
			_, err := echo[c].Call(echoScan, scanReq)
			return err
		}); err != nil {
			return err
		}
		if err := callers(probeCallers, scans, &scanNS, func(c, i int) error {
			n, err := conns[c][(c+i)%kvWorkers].Scan(at(c, i)%kvBuckets, kvScanSpan)
			if err == nil && n != kvScanSpan {
				err = fmt.Errorf("SCAN returned %d records, want %d", n, kvScanSpan)
			}
			return err
		}); err != nil {
			return err
		}
		own := func(c, i int) error { return get(c, part0[(round*probeCallers+c)*shared+i]) }
		if err := callers(1, shared, &oneNS, own); err != nil {
			return err
		}
		if err := callers(probeCallers, shared, &twoNS, own); err != nil {
			return err
		}
	}
	p.tr.done(sp)
	f := p.net.nominalUS() / median(refs)

	M := p.M
	M.set("netrpc.echo_get_us", medianNS(echoGetNS)*f/1e3, "us")
	M.set("netrpc.echo_put_us", medianNS(echoPutNS)*f/1e3, "us")
	M.set("netrpc.echo_scan_us", medianNS(echoScanNS)*f/1e3, "us")
	n := float64(len(echoGetNS))
	M.set("netrpc.allocs_per_call", float64(echoUse.mallocs)/n, "count")
	M.set("netrpc.bytes_per_call", float64(echoUse.bytes)/n, "B")
	M.set("serving.get_us", medianNS(getNS)*f/1e3, "us")
	M.set("serving.put_us", medianNS(putNS)*f/1e3, "us")
	M.set("serving.scan_us", medianNS(scanNS)*f/1e3, "us")
	M.set("serving.self_us", M["serving.get_us"].Value-M["netrpc.echo_get_us"].Value-M["kv.get_us"].Value, "us")
	M.set("serving.self_share", M["serving.self_us"].Value/M["serving.get_us"].Value, "ratio")
	M.set("serving.conc_penalty", medianNS(twoNS)/medianNS(oneNS), "ratio")
	n = float64(len(getNS))
	M.set("serving.allocs_per_op", float64(getUse.mallocs)/n, "count")
	M.set("serving.bytes_per_op", float64(getUse.bytes)/n, "B")
	M.set("serving.cpu_us_per_op", float64(getUse.cpu.Nanoseconds())/1e3/n, "us")
	workerErrs := uint64(0)
	for w := range tier.workers {
		st, err := conns[0][w].Stats()
		if err != nil {
			return err
		}
		workerErrs += st.Errors
	}
	M.set("serving.worker_errors", float64(workerErrs), "count")

	// Takeover: the workers exit and are recovered; fresh clients then
	// steal the dead writer's partition lease one after another.
	for c := range conns {
		closeConns(conns[c])
	}
	if err := tier.stopWorkers(); err != nil {
		return err
	}
	var steals []int64
	for i := 0; i < probeTakeovers; i++ {
		c, err := tier.p.Connect()
		if err != nil {
			return err
		}
		s, err := kv.Open(c, kvRootSlot)
		if err != nil {
			return err
		}
		t0 := time.Now()
		ok := s.AcquirePartition(1, true)
		steals = append(steals, time.Since(t0).Nanoseconds())
		if !ok {
			return fmt.Errorf("takeover %d of partition 1 refused (owner %d)", i, s.PartitionOwner(1))
		}
		if err := s.Close(); err != nil {
			return err
		}
		if err := c.Close(); err != nil {
			return err
		}
		if _, err := tier.svc.RecoverClient(c.ID()); err != nil {
			return err
		}
	}
	M.set("recovery.takeover_us", medianNS(steals)/1e3, "us")
	return nil
}

// recovery: the three timed calls of a crash-recover cycle, separately.
func (p *prober) recovery(e *env) error {
	inst, err := setupRecover(nil, e)
	if err != nil {
		return err
	}
	s := inst.(*recoverInst)
	defer s.close()
	f, err := p.cal(p.cpu, "recovery", func() error {
		for i := 0; i < probeCycles; i++ {
			if _, err := s.cycle(); err != nil {
				return err
			}
		}
		return s.verify(0)
	})
	if err != nil {
		return err
	}
	n := float64(s.cycles)
	passUS := float64(s.passNS) / n / 1e3 * f
	p.M.set("recovery.fence_us", float64(s.fenceNS)/n/1e3*f, "us")
	p.M.set("recovery.pass_us", passUS, "us")
	p.M.set("recovery.tick_us", float64(s.tickNS)/n/1e3*f, "us")
	p.M.set("recovery.objs_per_s", victimObjects/(passUS/1e6), "1/s")
	p.M.set("recovery.segs_scanned_per_pass", float64(s.reports.segs)/n, "count")
	p.M.set("recovery.redo_replays", float64(s.reports.redo), "count")
	if _, err := s.finish(); err != nil {
		return err
	}
	if issues, _ := validate(s.p); issues > 0 {
		return fmt.Errorf("recovery probe pool: check.Validate found %d issues", issues)
	}
	return nil
}
