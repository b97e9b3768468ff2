// Command cxltop is a live, cross-process observability dashboard for a
// CXL-SHM pool file: it attaches to the pool READ-ONLY (PROT_READ — the
// MMU itself guarantees the observer cannot perturb the pool) and renders
// what every process mapping the pool is doing, from the pool words alone:
//
//   - per-client operation rates (alloc, free, era bumps, queue traffic)
//     computed from successive telemetry-block snapshots (running totals
//     with -once), with each slot's lease generation,
//   - allocation latency p50/p99 per client, straight from the published
//     histogram vectors,
//   - live transfer-queue depths,
//   - each client slot's recovery timeline — first missed heartbeat,
//     fence, recovery attempts, redo replays, recovered — including the
//     detection-to-recovered SLO for the most recent death,
//   - the shared recovery-event ring (fences, recoveries, replays),
//     which survives the crash of whichever process wrote it.
//
// Dead clients keep their final published counters on screen: the metric
// blocks live in the pool's failure domain, not the client's.
//
// Usage:
//
//	cxltop pool.cxl                  # live dashboard, 1s refresh
//	cxltop -interval 250ms pool.cxl
//	cxltop -once -json pool.cxl      # one machine-readable snapshot
//	cxltop -once -prom pool.cxl      # Prometheus text exposition
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/layout"
	"repro/internal/obs"
	"repro/internal/shm"
)

func main() {
	interval := flag.Duration("interval", time.Second, "refresh interval")
	once := flag.Bool("once", false, "sample once and exit")
	asJSON := flag.Bool("json", false, "emit one JSON document per sample")
	asProm := flag.Bool("prom", false, "emit Prometheus text exposition per sample")
	nevents := flag.Int("events", 10, "recovery-ring events to show (dashboard mode)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: cxltop [flags] <pool-file>")
		flag.Usage()
		os.Exit(2)
	}
	if err := run(flag.Arg(0), *interval, *once, *asJSON, *asProm, *nevents); err != nil {
		fmt.Fprintln(os.Stderr, "cxltop:", err)
		os.Exit(1)
	}
}

func run(path string, interval time.Duration, once, asJSON, asProm bool, nevents int) error {
	pool, err := shm.OpenFileReadOnly(path)
	if err != nil {
		return err
	}
	defer pool.CloseDevice()
	if err := pool.Telemetry().Validate(); err != nil {
		return err
	}
	var prev *sample
	for {
		cur := take(pool)
		switch {
		case asJSON:
			if err := emitJSON(pool, path, cur); err != nil {
				return err
			}
		case asProm:
			emitProm(os.Stdout, cur)
		default:
			if !once {
				fmt.Print("\x1b[H\x1b[2J") // home + clear
			}
			render(os.Stdout, path, cur, prev, nevents)
		}
		if once {
			return nil
		}
		prev = cur
		time.Sleep(interval)
	}
}

// sample is one observation of the pool, timed for rate computation.
type sample struct {
	at     time.Time
	snap   shm.TelemetrySnapshot
	queues []shm.QueueDepth
	usage  shm.Usage
	status map[int]uint64 // client slot status words
	gens   map[int]uint64 // client slot lease generations
	beats  map[int]uint64 // heartbeat counters
}

func take(p *shm.Pool) *sample {
	s := &sample{
		at:     time.Now(),
		snap:   p.Telemetry().Snapshot(),
		queues: p.Queues(),
		usage:  p.Usage(),
		status: make(map[int]uint64),
		gens:   make(map[int]uint64),
		beats:  make(map[int]uint64),
	}
	geo := p.Geometry()
	for cid := 1; cid <= geo.MaxClients; cid++ {
		s.status[cid] = p.ClientStatus(cid)
		s.gens[cid] = p.SlotGeneration(cid)
		s.beats[cid] = p.Device().Load(geo.ClientHeartbeatAddr(cid))
	}
	return s
}

func emitJSON(p *shm.Pool, path string, s *sample) error {
	out := struct {
		Provenance *obs.Provenance       `json:"provenance"`
		Pool       string                `json:"pool"`
		Usage      shm.Usage             `json:"usage"`
		Queues     []shm.QueueDepth      `json:"queues,omitempty"`
		Telemetry  shm.TelemetrySnapshot `json:"telemetry"`
	}{p.Provenance("cxltop"), path, s.usage, s.queues, s.snap}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(b))
	return err
}

// --- dashboard rendering ---

func render(w *os.File, path string, cur, prev *sample, nevents int) {
	u := cur.usage
	fmt.Fprintf(w, "cxltop — %s — %s\n", path, cur.at.Format("15:04:05"))
	fmt.Fprintf(w, "segments: %d active, %d free, %d abandoned, %d huge   clients: %d/%d alive, %d dead   pool: %s\n",
		u.SegmentsActive, u.SegmentsFree, u.SegmentsAbandoned, u.SegmentsHuge,
		u.ClientsAlive, u.ClientsMax, u.ClientsDead, humanBytes(u.TotalBytes))
	pc := cur.snap.Pool.Counters
	fmt.Fprintf(w, "recovery service: %d fenced, %d recovered, %d redo replays",
		pc[obs.CtrClientFenced], pc[obs.CtrRecoveryPass], pc[obs.CtrRedoReplay])
	if hs := obs.MakeHistogramSnapshot(cur.snap.Pool.Histos[obs.HistDetectRecoverNS]); hs.Count > 0 {
		fmt.Fprintf(w, "   detect→recovered p50<%s p99<%s", humanNS(hs.P50NS), humanNS(hs.P99NS))
	}
	fmt.Fprintln(w)
	if pc[obs.CtrFsckPass] > 0 {
		fmt.Fprintf(w, "fsck: %d passes, %d issues found, %d repair actions, %d quarantined\n",
			pc[obs.CtrFsckPass], pc[obs.CtrFsckIssues], pc[obs.CtrRepairAction], pc[obs.CtrQuarantine])
	}
	fmt.Fprintln(w)

	// Without a previous sample the counter columns are running totals.
	per := "/s"
	if prev == nil {
		per = ""
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "CLIENT\tSTATE\tGEN\tPID\tPUB\tAGE\tALLOC%[1]s\tFREE%[1]s\tERA%[1]s\tSEND%[1]s\tRECV%[1]s\tALLOC p50\tp99\n", per)
	for i := range cur.snap.Clients {
		b := &cur.snap.Clients[i]
		cid := b.Index
		var pb *shm.TelemetryBlock
		var dt float64
		if prev != nil {
			for i := range prev.snap.Clients {
				if prev.snap.Clients[i].Index == cid {
					pb = &prev.snap.Clients[i]
					dt = cur.at.Sub(prev.at).Seconds()
					break
				}
			}
		}
		hs := obs.MakeHistogramSnapshot(b.Histos[obs.HistAllocNS])
		fmt.Fprintf(tw, "%d\t%s\t%d\t%d\t%d\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\n",
			cid, statusName(cur.status[cid]), cur.gens[cid], b.Identity, b.Publishes,
			humanAge(cur.at, b.TimeNS),
			rate(b, pb, obs.CtrAlloc, dt), rate(b, pb, obs.CtrFree, dt),
			rate(b, pb, obs.CtrEraBump, dt),
			rate(b, pb, obs.CtrQueueSend, dt), rate(b, pb, obs.CtrQueueReceive, dt),
			humanNS(hs.P50NS), humanNS(hs.P99NS))
	}
	tw.Flush()

	if len(cur.queues) > 0 {
		fmt.Fprintln(w, "\nQUEUES")
		tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "BLOCK\tSENDER→RECEIVER\tDEPTH\tCAP")
		for _, q := range cur.queues {
			fmt.Fprintf(tw, "%#x\t%d→%d\t%d\t%d\n", q.Block, q.Sender, q.Receiver, q.Depth(), q.Capacity)
		}
		tw.Flush()
	}

	if len(cur.snap.Timelines) > 0 {
		fmt.Fprintln(w, "\nRECOVERY TIMELINES")
		tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "CLIENT\tDEATHS\tREASON\tMISS→FENCE\tATTEMPTS\tREPLAYS\tRECLAIMED\tDETECT→RECOVERED")
		for _, tl := range cur.snap.Timelines {
			missToFence := "-"
			if tl.FirstMissNS > 0 && tl.FencedNS > tl.FirstMissNS {
				missToFence = humanNS(uint64(tl.FencedNS - tl.FirstMissNS))
			}
			slo := "(recovering)"
			if tl.RecoveredNS > 0 {
				slo = humanNS(uint64(tl.DurationNS))
			}
			fmt.Fprintf(tw, "%d\t%d\t%s\t%s\t%d\t%d\t%d\t%s\n",
				tl.Client, tl.Deaths, tl.ReasonName, missToFence,
				tl.Attempts, tl.RedoReplays, tl.Reclaimed, slo)
		}
		tw.Flush()
	}

	if evs := cur.snap.Events; len(evs) > 0 && nevents > 0 {
		if len(evs) > nevents {
			evs = evs[len(evs)-nevents:]
		}
		fmt.Fprintln(w, "\nEVENTS")
		for _, e := range evs {
			fmt.Fprintf(w, "  %s  %s\n", e.Time.Format("15:04:05.000"), e.String())
		}
	}
}

// rate renders a counter as a per-second rate between samples, or the
// running total when there is no previous sample to diff against.
func rate(cur, prev *shm.TelemetryBlock, c obs.Counter, dt float64) string {
	if prev == nil || dt <= 0 {
		return humanCount(cur.Counters[c])
	}
	d := cur.Counters[c] - prev.Counters[c]
	if d > cur.Counters[c] { // new incarnation reset the block
		d = cur.Counters[c]
	}
	return humanCount(uint64(float64(d)/dt)) + "/s"
}

func statusName(s uint64) string {
	switch s {
	case layout.ClientSlotFree:
		return "free"
	case layout.ClientAlive:
		return "alive"
	case layout.ClientDead:
		return "DEAD"
	case layout.ClientRecovered:
		return "recovered"
	}
	return fmt.Sprintf("?%d", s)
}

func humanAge(now time.Time, publishedNS int64) string {
	if publishedNS == 0 {
		return "-"
	}
	d := now.Sub(time.Unix(0, publishedNS))
	if d < 0 {
		d = 0
	}
	return d.Truncate(time.Millisecond * 10).String()
}

func humanBytes(n int) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%dB", n)
}

func humanCount(v uint64) string {
	switch {
	case v >= 10_000_000:
		return fmt.Sprintf("%.1fM", float64(v)/1e6)
	case v >= 10_000:
		return fmt.Sprintf("%.1fk", float64(v)/1e3)
	}
	return fmt.Sprintf("%d", v)
}

func humanNS(v uint64) string {
	if v == 0 {
		return "-"
	}
	return time.Duration(v).String()
}

// --- Prometheus text exposition ---

// emitProm renders the sample in the Prometheus text format: pool and
// per-client counters, histogram buckets (cumulative, le-labelled), and
// per-slot recovery-timeline gauges. Scrape with
//
//	cxltop -once -prom pool.cxl
//
// under any textfile collector, or wrap in a loop for a push gateway.
func emitProm(w *os.File, s *sample) {
	var b strings.Builder
	writeBlock := func(blk *shm.TelemetryBlock, labels string) {
		for c := obs.Counter(0); c < obs.NumCounters; c++ {
			fmt.Fprintf(&b, "cxlshm_%s_total{%s} %d\n", c.Name(), labels, blk.Counters[c])
		}
		for h := obs.Histo(0); h < obs.NumHistos; h++ {
			var cum uint64
			for i := 0; i < obs.HistBuckets; i++ {
				if blk.Histos[h][i] == 0 {
					continue
				}
				cum += blk.Histos[h][i]
				fmt.Fprintf(&b, "cxlshm_%s_bucket{%s,le=\"%d\"} %d\n",
					h.Name(), labels, obs.BucketUpper(i), cum)
			}
			fmt.Fprintf(&b, "cxlshm_%s_bucket{%s,le=\"+Inf\"} %d\n", h.Name(), labels, cum)
			fmt.Fprintf(&b, "cxlshm_%s_count{%s} %d\n", h.Name(), labels, cum)
		}
	}
	writeBlock(&s.snap.Pool, `scope="pool"`)
	for i := range s.snap.Clients {
		blk := &s.snap.Clients[i]
		writeBlock(blk, fmt.Sprintf(`scope="client",client="%d"`, blk.Index))
	}
	fmt.Fprintf(&b, "cxlshm_clients_alive %d\n", s.usage.ClientsAlive)
	fmt.Fprintf(&b, "cxlshm_clients_dead %d\n", s.usage.ClientsDead)
	fmt.Fprintf(&b, "cxlshm_clients_max %d\n", s.usage.ClientsMax)
	fmt.Fprintf(&b, "cxlshm_segments_free %d\n", s.usage.SegmentsFree)
	fmt.Fprintf(&b, "cxlshm_segments_active %d\n", s.usage.SegmentsActive)
	fmt.Fprintf(&b, "cxlshm_segments_abandoned %d\n", s.usage.SegmentsAbandoned)
	for _, q := range s.queues {
		fmt.Fprintf(&b, "cxlshm_queue_depth{sender=\"%d\",receiver=\"%d\"} %d\n",
			q.Sender, q.Receiver, q.Depth())
	}
	for _, tl := range s.snap.Timelines {
		lbl := fmt.Sprintf(`client="%d"`, tl.Client)
		fmt.Fprintf(&b, "cxlshm_client_deaths_total{%s} %d\n", lbl, tl.Deaths)
		fmt.Fprintf(&b, "cxlshm_client_recoveries_total{%s} %d\n", lbl, tl.Completed)
		if tl.RecoveredNS > 0 {
			fmt.Fprintf(&b, "cxlshm_detect_to_recovered_ns{%s} %d\n", lbl, tl.DurationNS)
		}
	}
	fmt.Fprint(w, b.String())
}
