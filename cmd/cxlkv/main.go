// Command cxlkv is the shared-everything key-value store (§6.4) as a real
// serving system.
//
//	cxlkv serve  [flags]   — one worker process: attach a pool file, serve
//	                         GET/PUT/SCAN over a Unix-domain socket
//	cxlkv chaos  [flags]   — orchestrate N workers (in-process or child OS
//	                         processes on an mmap pool file), drive zipfian
//	                         traffic, kill one mid-stream, measure recovery
//	cxlkv drive  [flags]   — standalone load driver against running workers
//
// The chaos orchestrator is what `make serving-smoke` runs on both worker
// backends; it exits non-zero when an invariant is violated. With -pool FILE
// on the proc backend, `cxltop FILE` watches the run live.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/netrpc"
	"repro/internal/serving"
	"repro/internal/shm"
)

const usage = `usage: cxlkv <command> [flags]

commands:
  serve   one worker process: attach a pool file, serve GET/PUT/SCAN
  chaos   orchestrate workers, drive traffic, kill one, verify recovery
  drive   standalone load driver against running workers
`

func main() {
	if len(os.Args) < 2 || strings.HasPrefix(os.Args[1], "-") {
		fmt.Fprint(os.Stderr, usage)
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "serve":
		err = serveCmd(args)
	case "chaos":
		err = chaosCmd(args)
	case "drive":
		err = driveCmd(args)
	default:
		err = fmt.Errorf("unknown subcommand %q (want serve, chaos, or drive)", cmd)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "cxlkv:", err)
		os.Exit(1)
	}
}

// --- serve: one worker process ---

func serveCmd(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	poolFile := fs.String("pool", "", "mmap pool file to attach (required)")
	root := fs.Int("root", 0, "named-root slot of the kv index")
	parts := fs.String("partitions", "", "comma-separated writer partitions to acquire")
	steal := fs.Bool("steal", false, "steal partitions from dead writers")
	hb := fs.Duration("hb", 2*time.Millisecond, "heartbeat cadence")
	fs.Parse(args)
	if *poolFile == "" {
		return fmt.Errorf("serve: -pool is required")
	}
	var partitions []int
	if *parts != "" {
		for _, s := range strings.Split(*parts, ",") {
			p, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				return fmt.Errorf("serve: bad partition %q", s)
			}
			partitions = append(partitions, p)
		}
	}
	w, err := serving.StartWorkerFile(*poolFile, serving.WorkerConfig{
		RootSlot:       *root,
		Partitions:     partitions,
		Steal:          *steal,
		HeartbeatEvery: *hb,
		Net:            servingNet(),
	})
	if err != nil {
		return err
	}
	// The orchestrator (or operator) waits for this exact line.
	fmt.Println(serving.ReadyLine(w.Addr(), w.CID()))

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case <-w.QuitRequested():
	case <-sig:
	}
	return w.Stop()
}

// servingNet is the serving tier's hardened transport config: bounded
// frames, mid-frame and write deadlines. Idle connections stay open — a
// quiet driver is not a hostile peer.
func servingNet() netrpc.Config {
	return netrpc.Config{
		ReadTimeout:  30 * time.Second,
		WriteTimeout: 30 * time.Second,
	}
}

// --- chaos: the orchestrated kill-and-recover run ---

func chaosCmd(args []string) error {
	fs := flag.NewFlagSet("chaos", flag.ExitOnError)
	workers := fs.Int("workers", 3, "serving workers (= writer partitions)")
	keys := fs.Int("keys", 100_000, "key space size")
	valSize := fs.Int("val", 64, "value size in bytes")
	writeRatio := fs.Float64("write-ratio", 0.3, "fraction of writes")
	zipf := fs.Float64("zipf", 0.99, "YCSB zipfian constant θ")
	conns := fs.Int("conns", 4, "driver connections")
	ops := fs.Int("ops", 12_500, "operations per connection")
	scanEvery := fs.Int("scan-every", 128, "every Nth op is a batch scan (0 disables)")
	scanSpan := fs.Int("scan-span", 64, "records per scan")
	seed := fs.Int64("seed", 1, "workload seed")
	kill := fs.Bool("kill", true, "kill one worker mid-traffic")
	backend := fs.String("backend", "proc", "proc: child OS processes on an mmap pool file; inproc: workers in this process (heap pool)")
	poolFile := fs.String("pool", "", "pool file path (proc backend; default: temp file, removed after)")
	fs.Parse(args)

	cfg := serving.ChaosConfig{
		Workers: *workers, Keys: *keys, ValSize: *valSize,
		WriteRatio: *writeRatio, Zipf: *zipf,
		Conns: *conns, OpsPerConn: *ops,
		ScanEvery: *scanEvery, ScanSpan: *scanSpan,
		Seed: *seed, Kill: *kill,
		Net: servingNet(),
	}

	var pool *shm.Pool
	var spawn serving.Spawner
	switch *backend {
	case "inproc":
		p, err := shm.NewPool(shm.Config{Geometry: serving.SizeGeometry(cfg)})
		if err != nil {
			return err
		}
		pool, spawn = p, serving.InProcSpawner(p)

	case "proc":
		path := *poolFile
		if path == "" {
			f, err := os.CreateTemp("", "cxlkv-serving-*.pool")
			if err != nil {
				return err
			}
			path = f.Name()
			f.Close()
			os.Remove(path) // CreateMapDevice wants to create it itself
			defer os.Remove(path)
		}
		p, err := shm.NewPool(shm.Config{Geometry: serving.SizeGeometry(cfg), File: path})
		if err != nil {
			return err
		}
		exe, err := os.Executable()
		if err != nil {
			return err
		}
		pool = p
		spawn = serving.ExecSpawner(servingNet(), func(idx int) *exec.Cmd {
			return exec.Command(exe, "serve",
				"-pool", path,
				"-root", "0",
				"-partitions", strconv.Itoa(idx),
				"-hb", cfg.HeartbeatEvery.String())
		})
		fmt.Fprintf(os.Stderr, "chaos: %d worker processes on pool file %s\n", *workers, path)

	default:
		return fmt.Errorf("chaos: unknown backend %q (want proc or inproc)", *backend)
	}
	defer pool.CloseDevice()
	// ExecSpawner children format their heartbeat cadence into argv; pin
	// it before the config's fill() does.
	if cfg.HeartbeatEvery == 0 {
		cfg.HeartbeatEvery = 2 * time.Millisecond
	}

	res, err := serving.RunChaos(pool, spawn, cfg)
	if err != nil {
		return err
	}
	printChaos(res)

	if res.SurvivorErrors != 0 || res.LostWrites != 0 || res.Corruptions != 0 || !res.FsckClean {
		return fmt.Errorf("chaos invariants violated (survivor_errors=%d lost=%d corrupt=%d fsck_clean=%v)",
			res.SurvivorErrors, res.LostWrites, res.Corruptions, res.FsckClean)
	}
	return nil
}

func printChaos(r *serving.ChaosResult) {
	fmt.Printf("serving: %d workers, %d keys × %dB, θ=%v, write ratio %v\n",
		r.Workers, r.Keys, r.ValSize, r.Zipf, r.WriteRatio)
	fmt.Printf("  %d ops in %v (%.0f ops/s)\n",
		r.Ops, time.Duration(r.WallNS).Round(time.Millisecond), r.OpsPerSec)
	fmt.Printf("  read  p50 %v  p99 %v\n", fmtNS(r.ReadP50NS), fmtNS(r.ReadP99NS))
	fmt.Printf("  write p50 %v  p99 %v\n", fmtNS(r.WriteP50NS), fmtNS(r.WriteP99NS))
	if r.ScanP99NS > 0 {
		fmt.Printf("  scan  p50 %v  p99 %v\n", fmtNS(r.ScanP50NS), fmtNS(r.ScanP99NS))
	}
	if r.Killed {
		fmt.Printf("  chaos: worker %d (cid %d) killed mid-traffic\n", r.VictimWorker, r.VictimCID)
		fmt.Printf("    detect→recovered %v  takeover %v  disruption %v\n",
			fmtNS(r.DetectToRecoveredNS), fmtNS(r.TakeoverNS), fmtNS(r.DisruptionNS))
		fmt.Printf("    window p99 %v  victim errors %d  stalled writes %d  rerouted %d\n",
			fmtNS(r.WindowP99NS), r.VictimErrors, r.StalledWrites, r.Rerouted)
	}
	fmt.Printf("  invariants: survivor errors %d, lost writes %d, corruptions %d, fsck clean %v\n",
		r.SurvivorErrors, r.LostWrites, r.Corruptions, r.FsckClean)
}

// printLockWaits prints each worker's writer-lock wait: the handler calls
// that found the lock held (PUT, takeover and stats take it; GET and SCAN
// do not) and how long they waited, over the worker's lifetime.
func printLockWaits(addrs []string) error {
	for _, a := range addrs {
		conn, err := serving.DialWorker(strings.TrimSpace(a), servingNet())
		if err != nil {
			return err
		}
		st, err := conn.Stats()
		conn.Close()
		if err != nil {
			return err
		}
		mean := time.Duration(0)
		if st.LockWaits > 0 {
			mean = time.Duration(st.LockWaitNS / st.LockWaits)
		}
		fmt.Printf("worker cid %d: %d ops, %d lock waits (%v total, %v mean)\n",
			st.CID, st.Ops, st.LockWaits, time.Duration(st.LockWaitNS).Round(time.Microsecond), mean)
	}
	return nil
}

func fmtNS(ns int64) time.Duration {
	return time.Duration(ns).Round(time.Microsecond)
}

// --- drive: standalone driver against already-running workers ---

func driveCmd(args []string) error {
	fs := flag.NewFlagSet("drive", flag.ExitOnError)
	addrsFlag := fs.String("addrs", "", "comma-separated worker addresses, partition order (required)")
	keys := fs.Int("keys", 100_000, "key space size")
	writeRatio := fs.Float64("write-ratio", 0.3, "fraction of writes")
	zipf := fs.Float64("zipf", 0.99, "YCSB zipfian constant θ")
	conns := fs.Int("conns", 8, "driver connections")
	ops := fs.Int("ops", 50_000, "operations per connection")
	scanEvery := fs.Int("scan-every", 0, "every Nth op is a batch scan")
	scanSpan := fs.Int("scan-span", 64, "records per scan")
	seed := fs.Int64("seed", 1, "workload seed")
	preload := fs.Bool("preload", false, "store every key through the serving path first")
	fs.Parse(args)
	if *addrsFlag == "" {
		return fmt.Errorf("drive: -addrs is required")
	}
	addrs := strings.Split(*addrsFlag, ",")

	// The workers know the store shape; ask instead of guessing.
	probe, err := serving.DialWorker(strings.TrimSpace(addrs[0]), servingNet())
	if err != nil {
		return err
	}
	st, err := probe.Stats()
	probe.Close()
	if err != nil {
		return err
	}
	if st.Writers != len(addrs) {
		return fmt.Errorf("drive: store has %d partitions but %d addresses given", st.Writers, len(addrs))
	}

	d, err := serving.NewDriver(addrs, serving.DriverConfig{
		Keys: *keys, ValSize: st.ValSize,
		Buckets: st.Buckets, Writers: st.Writers,
		WriteRatio: *writeRatio, Zipf: *zipf,
		Conns: *conns, OpsPerConn: *ops,
		ScanEvery: *scanEvery, ScanSpan: *scanSpan,
		Seed: *seed, Net: servingNet(),
	})
	if err != nil {
		return err
	}
	if *preload {
		fmt.Fprintf(os.Stderr, "preloading %d keys...\n", *keys)
		if err := d.Preload(); err != nil {
			return err
		}
	}
	rep, err := d.Run()
	if err != nil {
		return err
	}
	fmt.Printf("%d ops in %v (%.0f ops/s): %d reads, %d writes, %d scans\n",
		rep.Ops, rep.Wall.Round(time.Millisecond),
		float64(rep.Ops)/rep.Wall.Seconds(), rep.Reads, rep.Writes, rep.Scans)
	fmt.Printf("read  p50 %v  p99 %v\n", fmtNS(rep.Read.Percentile(0.5)), fmtNS(rep.Read.Percentile(0.99)))
	fmt.Printf("write p50 %v  p99 %v\n", fmtNS(rep.Write.Percentile(0.5)), fmtNS(rep.Write.Percentile(0.99)))
	if rep.Scans > 0 {
		fmt.Printf("scan  p50 %v  p99 %v\n", fmtNS(rep.Scan.Percentile(0.5)), fmtNS(rep.Scan.Percentile(0.99)))
	}
	if err := printLockWaits(addrs); err != nil {
		return err
	}
	if rep.SurvivorErrors+rep.VictimErrors+rep.Corruptions > 0 {
		return fmt.Errorf("drive: %d errors, %d corruptions", rep.SurvivorErrors+rep.VictimErrors, rep.Corruptions)
	}
	return nil
}
