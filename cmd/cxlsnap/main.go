// Command cxlsnap demonstrates that the pool's contents outlive every
// client process (the device has its own power supply — paper Figure 1):
// it builds a shared KV store on a pool file, simulates total client loss,
// and in a later invocation (any process) attaches the file, recovers the
// stale clients, and reads the data back.
//
//	cxlsnap -create pool.cxl -keys 500     # the file IS the pool
//	cxlsnap -open   pool.cxl               # later "boot": attach and verify
//	cxlsnap -fsck   pool.cxl [-repair]     # audit (and repair) the metadata
//
// The pool's crash-surviving telemetry (dead clients' final counters,
// recovery timelines, the event ring) is cxltop's to render, read-only:
// `cxltop -once pool.cxl`.
//
// The pool is built directly on an mmap'd pool file (cxl.CreateMapDevice):
// nothing is copied at save or attach time, and a second OS process opening
// the same file sees the pool alive and unmoved. Every attach validates the pool
// superblock (magic, geometry, layout version) and refuses incompatible
// pools with a clear error.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/check"
	"repro/internal/kv"
	"repro/internal/layout"
	"repro/internal/recovery"
	"repro/internal/shm"
)

func main() {
	create := flag.String("create", "", "create a pool file at this path and populate it")
	open := flag.String("open", "", "attach a saved pool file, recover, and verify")
	fsck := flag.String("fsck", "", "check a saved pool's metadata; with -repair, fix what can be fixed")
	repair := flag.Bool("repair", false, "with -fsck: run the repairing fsck and write the result back")
	flip := flag.String("flip", "", `with -fsck: first flip a bit ("addr" or "addr:bit", addr hex ok) — self-test aid`)
	keys := flag.Int("keys", 500, "keys to store")
	flag.Parse()

	switch {
	case *create != "":
		if err := doCreate(*create, *keys); err != nil {
			fail(err)
		}
	case *open != "":
		if err := doOpen(*open); err != nil {
			fail(err)
		}
	case *fsck != "":
		if err := doFsck(*fsck, *repair, *flip); err != nil {
			fail(err)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// doFsck attaches a saved pool and audits its metadata. Without -repair it
// is a pure detector (nonzero exit on issues); with -repair it runs the
// repairing fsck, prints the full RepairReport (actions and blast radius),
// and syncs the repaired pool to the file.
func doFsck(path string, repair bool, flip string) error {
	pool, err := shm.OpenFile(path)
	if err != nil {
		return err
	}
	defer pool.CloseDevice()

	if flip != "" {
		addrSpec, bitSpec, _ := strings.Cut(flip, ":")
		a, err := strconv.ParseUint(strings.TrimPrefix(addrSpec, "0x"), 16, 64)
		if err != nil {
			if a, err = strconv.ParseUint(addrSpec, 10, 64); err != nil {
				return fmt.Errorf("fsck: bad -flip address %q", addrSpec)
			}
		}
		bit := uint64(0)
		if bitSpec != "" {
			if bit, err = strconv.ParseUint(bitSpec, 10, 64); err != nil || bit > 63 {
				return fmt.Errorf("fsck: bad -flip bit %q", bitSpec)
			}
		}
		old := pool.Device().Load(a)
		pool.Device().Store(a, old^(1<<bit))
		fmt.Printf("flipped bit %d of word %#x (%#x -> %#x)\n", bit, a, old, old^(1<<bit))
	}

	res := check.Validate(pool)
	fmt.Printf("fsck %s: %d live objects, %d issues\n", path, res.AllocatedObjects, len(res.Issues))
	for _, is := range res.Issues {
		fmt.Printf("  %s\n", is)
	}
	if !repair {
		if !res.Clean() {
			return fmt.Errorf("pool has %d issues (re-run with -repair)", len(res.Issues))
		}
		fmt.Println("OK: pool metadata is clean")
		return nil
	}

	svc, err := recovery.NewService(pool)
	if err != nil {
		return err
	}
	rep := check.Repair(pool, check.RepairConfig{
		Recover: func(cid int) error { _, err := svc.RecoverClient(cid); return err },
		Log:     func(format string, args ...any) { fmt.Printf("  "+format+"\n", args...) },
	})
	fmt.Printf("repair: %d rounds, %d actions\n", rep.Rounds, len(rep.Actions))
	for _, a := range rep.Actions {
		fmt.Printf("  [%s] @%#x %s\n", a.Kind, a.Addr, a.Detail)
	}
	b := rep.Blast
	fmt.Printf("blast radius: %d words rewritten, %d objects repaired, %d objects + %d pages quarantined, %d objects lost, %d refs severed",
		b.WordsRewritten, b.ObjectsRepaired, b.ObjectsQuarantined, b.PagesQuarantined, b.ObjectsLost, b.RefsSevered)
	if len(b.ClientsAffected) > 0 {
		fmt.Printf(", clients affected %v", b.ClientsAffected)
	}
	fmt.Println()
	if !rep.Repaired {
		return fmt.Errorf("pool still has %d issues after repair", len(rep.Post.Issues))
	}

	// The repair already mutated the mapped file; sync it.
	if err := pool.Device().Sync(); err != nil {
		return err
	}
	fmt.Printf("OK: pool repaired and written back to %s (%d issues fixed)\n", path, len(rep.Pre.Issues))
	return nil
}

func doCreate(path string, keys int) error {
	pool, err := shm.NewPool(shm.Config{Geometry: layout.GeometryConfig{
		MaxClients: 8, NumSegments: 64, SegmentWords: 1 << 14, PageWords: 1 << 10,
	}, File: path})
	if err != nil {
		return err
	}
	c, err := pool.Connect()
	if err != nil {
		return err
	}
	s, err := kv.Create(c, 0, 1024, 32, 1)
	if err != nil {
		return err
	}
	val := make([]byte, 32)
	for k := 0; k < keys; k++ {
		val[0], val[1] = byte(k), byte(k>>8)
		if err := s.Put(uint64(k), val); err != nil {
			return err
		}
	}
	// A real client heartbeats on a timer; one beat after the workload
	// stands in for that cadence — it also publishes the client's counter
	// vector into the pool's telemetry region, where it survives what
	// happens next (inspect it later with cxltop -once).
	c.Heartbeat()
	fmt.Printf("stored %d keys; client %d now 'loses power' without releasing anything\n", keys, c.ID())
	// No Close, no Release: the file keeps the mess as-is.
	if err := pool.Device().Sync(); err != nil {
		return err
	}
	if err := pool.CloseDevice(); err != nil {
		return err
	}
	fmt.Printf("pool lives in %s (mmap'd, nothing copied)\n", path)
	return nil
}

func doOpen(path string) error {
	pool, err := shm.OpenFile(path)
	if err != nil {
		return err
	}
	stale := pool.StaleClients()
	fmt.Printf("attached pool: %d stale client(s) from the previous incarnation\n", len(stale))
	svc, err := recovery.NewService(pool)
	if err != nil {
		return err
	}
	for _, cid := range stale {
		if err := pool.MarkClientDead(cid); err != nil {
			return err
		}
	}
	// A stale recovery executor may hold a lower cid's recovery claim: the
	// rounds recover it before the client it claimed.
	if err := pool.RecoverDeadSlots(func(cid int) error {
		rep, err := svc.RecoverClient(cid)
		if err == nil {
			fmt.Printf("  recovered client %d (swept %d refs, freed %d segments)\n",
				cid, rep.SweptRoots, rep.SegsFreed)
		}
		return err
	}); err != nil {
		return err
	}
	mon := recovery.NewMonitor(svc, recovery.MonitorConfig{})
	for i := 0; i < 4; i++ {
		mon.Tick()
	}

	c, err := pool.Connect()
	if err != nil {
		return err
	}
	s, err := kv.Open(c, 0)
	if err != nil {
		return err
	}
	buf := make([]byte, 32)
	found, bad := 0, 0
	for k := uint64(0); ; k++ {
		if _, err := s.Get(k, buf); err != nil {
			break
		}
		if buf[0] != byte(k) || buf[1] != byte(k>>8) {
			bad++
		}
		found++
	}
	fmt.Printf("read back %d keys (%d corrupt)\n", found, bad)
	res := check.Validate(pool)
	fmt.Printf("pool audit: %d live objects, %d issues\n", res.AllocatedObjects, len(res.Issues))
	if bad > 0 || !res.Clean() {
		return fmt.Errorf("pool verification failed")
	}
	fmt.Println("OK: the pool outlived every client process")
	return nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "cxlsnap:", err)
	os.Exit(1)
}
