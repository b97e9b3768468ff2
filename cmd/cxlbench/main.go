// Command cxlbench regenerates the tables and figures of the CXL-SHM paper's
// evaluation (§6) on the simulated device. Each subcommand corresponds to
// one table or figure; `cxlbench all` runs everything.
//
// Usage:
//
//	cxlbench [-scale F] table1|fig6|fig7|recovery|fig8|fig9|fig10a|fig10b|fig10c|fig10d|all
//
// -scale multiplies iteration counts (default 1.0 ≈ seconds per experiment;
// use 5–10 for steadier numbers on a quiet machine).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/bench"
)

func main() {
	scaleFlag := flag.Float64("scale", 1.0, "iteration-count multiplier")
	threads := flag.String("threads", "1,2,4,8", "comma-separated thread/client counts")
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() < 1 {
		usage()
		os.Exit(2)
	}
	scale := bench.Scale{Factor: *scaleFlag}
	counts, err := parseInts(*threads)
	if err != nil {
		fatal(err)
	}

	run := func(name string) {
		start := time.Now()
		fmt.Printf("== %s ==\n", name)
		switch name {
		case "table1":
			rows, err := bench.Table1(scale)
			if err != nil {
				fatal(err)
			}
			bench.PrintTable1(os.Stdout, rows)
		case "fig6":
			rows, err := bench.Fig6(scale, counts)
			if err != nil {
				fatal(err)
			}
			bench.PrintFig6(os.Stdout, rows)
		case "fig7":
			rows, err := bench.Fig7(scale, counts, 400, 30)
			if err != nil {
				fatal(err)
			}
			bench.PrintFig7(os.Stdout, rows)
		case "recovery":
			rows, err := bench.RecoveryBench(scale, []int{1000, 5000, 20000}, 50000)
			if err != nil {
				fatal(err)
			}
			bench.PrintRecovery(os.Stdout, rows)
			segBytes, per, err := bench.SegmentScanBench(scale)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("segment-local scan: %v per %d KiB segment\n", per, segBytes/1024)
		case "blocking":
			rows, err := bench.BlockingBench(scale, 5000)
			if err != nil {
				fatal(err)
			}
			bench.PrintBlocking(os.Stdout, rows)
		case "fig8":
			rows, err := bench.Fig8Pairs(scale, counts)
			if err != nil {
				fatal(err)
			}
			bench.PrintFig8(os.Stdout, rows)
			prows, err := bench.Fig8Payload(scale, []int{64, 512, 4096, 32768, 524288})
			if err != nil {
				fatal(err)
			}
			fmt.Println("-- payload sweep (1 pair) --")
			bench.PrintFig8(os.Stdout, prows)
		case "fig9":
			rows, err := bench.Fig9(scale, counts)
			if err != nil {
				fatal(err)
			}
			bench.PrintFig9(os.Stdout, rows)
		case "fig10a":
			rows, err := bench.Fig10a(scale, counts)
			if err != nil {
				fatal(err)
			}
			bench.PrintFig10(os.Stdout, rows)
		case "fig10b":
			rows, err := bench.Fig10b(scale, 8, []float64{1, 0.5, 1.0 / 3, 0.25, 0.2, 0.1})
			if err != nil {
				fatal(err)
			}
			bench.PrintFig10(os.Stdout, rows)
		case "fig10c":
			rows, err := bench.Fig10c(scale, counts, []float64{0, 0.5, 0.9, 0.99})
			if err != nil {
				fatal(err)
			}
			bench.PrintFig10(os.Stdout, rows)
		case "fig10d":
			rows, err := bench.Fig10d(scale, counts)
			if err != nil {
				fatal(err)
			}
			bench.PrintFig10(os.Stdout, rows)
		default:
			fatal(fmt.Errorf("unknown experiment %q", name))
		}
		fmt.Printf("(%s in %v)\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	if flag.Arg(0) == "all" {
		for _, name := range []string{
			"table1", "fig6", "fig7", "recovery", "blocking",
			"fig8", "fig9", "fig10a", "fig10b", "fig10c", "fig10d",
		} {
			run(name)
		}
		return
	}
	for _, name := range flag.Args() {
		run(name)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `cxlbench — regenerate the CXL-SHM paper's evaluation

usage: cxlbench [-scale F] [-threads 1,2,4,8] <experiment>...

experiments:
  table1    memory-type micro-benchmark (paper Table 1)
  fig6      threadtest/shbench allocator comparison (Figure 6)
  fig7      allocation fast-path cost breakdown (Figure 7)
  recovery  recovery throughput vs GC-based recovery (§6.2.1)
  blocking  survivor latency during recovery: non-blocking vs Lightning (§4.2)
  fig8      CXL-RPC vs SPSC vs pass-by-value RPC (Figure 8)
  fig9      CXL-MapReduce vs value-passing baseline (Figure 9)
  fig10a    KV store comparison across clients (Figure 10a)
  fig10b    KV write/read ratio sweep (Figure 10b)
  fig10c    KV YCSB zipf sweep (Figure 10c)
  fig10d    KV TATP/SmallBank transactions (Figure 10d)
  all       everything above
`)
}

func parseInts(s string) ([]int, error) {
	var out []int
	cur := 0
	seen := false
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			if seen {
				out = append(out, cur)
			}
			cur, seen = 0, false
			continue
		}
		if s[i] < '0' || s[i] > '9' {
			return nil, fmt.Errorf("bad thread list %q", s)
		}
		cur = cur*10 + int(s[i]-'0')
		seen = true
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty thread list")
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cxlbench:", err)
	os.Exit(1)
}
