// Command faultsim runs the crash-consistency campaigns of the paper's
// §6.2.2 with one crash model: a client dies before its Nth device write.
// It has exactly three modes; with none it prints usage and exits 2.
//
// Usage:
//
//	faultsim -sweep [-max-writes N] [-recovery-sweep] [-clients N] [-backend heap|mmap]
//	faultsim -repro "op=NAME access=N [epoch=T] [recovery-access=R]" [-backend heap|mmap]
//	faultsim -corrupt [-region R] [-class C] [-seed S] [-backend heap|mmap]
//
// -sweep is the exhaustive access-granular campaign (internal/sweep): every
// device write of every scripted operation is a crash position, each
// followed by recovery and a full-pool fsck; -recovery-sweep also crashes
// the recovery executor at each of its own writes. Violations print a
// minimal -repro invocation and exit nonzero. -corrupt is the media-fault
// campaign (bit flips, torn writes, stuck CAS) with the repairing fsck.
//
// -backend mmap runs on an mmap'd-file device (cxl.NewAnonMapDevice),
// exercising crash recovery over the cross-process backend's data path.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/sweep"
)

func main() {
	seed := flag.Int64("seed", 1, "with -corrupt: base RNG seed")
	doSweep := flag.Bool("sweep", false, "run the exhaustive access-granular crash sweep")
	doCorrupt := flag.Bool("corrupt", false, "run the corruption campaign (bit flips, torn writes, stuck CAS) with repair")
	region := flag.String("region", "", "with -corrupt: restrict to one region (comma-separated ok; empty = all)")
	class := flag.String("class", "", "with -corrupt: restrict to one fault class (comma-separated ok; empty = all)")
	maxWrites := flag.Int("max-writes", 0, "with -sweep: bound crash positions per operation (0 = every write)")
	recoverySweep := flag.Bool("recovery-sweep", false, "with -sweep: also crash the recovery pass at each of its own writes")
	clients := flag.Int("clients", 0, "with -sweep: size of the client-slot table (0 = default 8)")
	repro := flag.String("repro", "", `reproduce one sweep position: "op=NAME access=N [epoch=T] [recovery-access=R]"`)
	flag.StringVar(&backend, "backend", "", "device backend: heap (default) or mmap")
	flag.Parse()

	switch {
	case *doCorrupt:
		if err := runCorrupt(*seed, *region, *class); err != nil {
			fail(err)
		}
	case *doSweep || *repro != "":
		cfg := sweep.Config{
			Backend:       backend,
			MaxWrites:     *maxWrites,
			RecoverySweep: *recoverySweep,
			Clients:       *clients,
			Log: func(format string, args ...any) {
				fmt.Printf("  "+format+"\n", args...)
			},
		}
		if *repro != "" {
			if err := parseRepro(*repro, &cfg); err != nil {
				fail(err)
			}
		}
		vs, st, err := sweep.Run(cfg)
		if err != nil {
			fail(err)
		}
		for _, v := range vs {
			fmt.Fprintf(os.Stderr, "VIOLATION %s\n", v)
		}
		if len(vs) > 0 {
			fail(fmt.Errorf("sweep: %d violations", len(vs)))
		}
		fmt.Printf("sweep: %d ops, %d crash positions (+%d recovery positions) — all recovered and validated clean\n",
			st.Ops, st.Positions, st.RecoveryPositions)
	default:
		fmt.Fprintln(os.Stderr, "faultsim: pick a mode: -sweep, -corrupt or -repro")
		flag.Usage()
		os.Exit(2)
	}
}

// backend selects the device backend (-backend flag).
var backend string

// parseRepro fills cfg from a sweep violation's repro spec, e.g.
// "op=send access=18" or "op=free-huge access=1 recovery-access=12".
func parseRepro(spec string, cfg *sweep.Config) error {
	for _, tok := range strings.Fields(spec) {
		k, v, ok := strings.Cut(tok, "=")
		if !ok {
			return fmt.Errorf("repro: %q is not key=value", tok)
		}
		switch k {
		case "op":
			cfg.Op = v
		case "access", "recovery-access":
			n, err := strconv.Atoi(v)
			if err != nil || n < 1 {
				return fmt.Errorf("repro: bad %s %q", k, v)
			}
			if k == "access" {
				cfg.Access = n
			} else {
				cfg.RecoveryAccess = n
			}
		case "epoch":
			// Informational coordinate: names the publication-epoch trigger
			// (refill/heartbeat/scan/detach/...) the crash landed in. The
			// replay is fully determined by op+access; accept it so repro
			// lines paste back verbatim.
		default:
			return fmt.Errorf("repro: unknown key %q", k)
		}
	}
	if cfg.Op == "" {
		return fmt.Errorf("repro: op= is required")
	}
	if cfg.RecoveryAccess > 0 {
		cfg.RecoverySweep = true
	}
	return nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "faultsim:", err)
	os.Exit(1)
}
