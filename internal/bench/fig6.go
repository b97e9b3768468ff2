package bench

import (
	"fmt"
	"io"
	"time"

	"repro/internal/alloc"
	"repro/internal/cxl"
	"repro/internal/layout"
	"repro/internal/nativealloc"
	"repro/internal/pmem"
	"repro/internal/shm"
)

// Fig6Row is one (allocator, workload, threads) point of Figure 6.
type Fig6Row struct {
	Allocator string
	Workload  string
	Threads   int
	MOPS      float64
}

// allocPoolConfig sizes a CXL-SHM pool for the allocator benchmarks.
func allocPoolConfig(threads int) layout.GeometryConfig {
	return layout.GeometryConfig{
		MaxClients:   threads + 4,
		NumSegments:  threads*4 + 16,
		SegmentWords: 1 << 15, // 256 KiB
		PageWords:    1 << 11, // 16 KiB
	}
}

// newAllocators builds the Figure 6 contenders. The pmem heap and shm pool
// are sized from the thread count so no allocator hits capacity.
func newAllocators(threads int) ([]alloc.Allocator, error) {
	h, err := pmem.NewHeap(64 << 20)
	if err != nil {
		return nil, err
	}
	// Ralloc runs on Optane in its own evaluation; charge a modelled persist
	// (pwb+pfence) per header update so the DRAM-resident stand-in is not
	// unrealistically fast (DESIGN.md substitution table).
	h.SetPersistCost(150)
	pool, err := shm.NewPool(shm.Config{Geometry: allocPoolConfig(threads)})
	if err != nil {
		return nil, err
	}
	return []alloc.Allocator{
		&alloc.SHM{Pool: pool},
		pmem.Bench{H: h},
		nativealloc.Plain{},
		&nativealloc.Pooled{},
	}, nil
}

// Fig6 runs threadtest and shbench across all allocators for each thread
// count (paper Figure 6).
func Fig6(scale Scale, threadCounts []int) ([]Fig6Row, error) {
	var rows []Fig6Row
	for _, threads := range threadCounts {
		iters := scale.N(200)
		batch := 64
		shIters := scale.N(20_000)

		allocs, err := newAllocators(threads)
		if err != nil {
			return nil, err
		}
		for _, a := range allocs {
			r, err := alloc.Threadtest(a, threads, iters, batch)
			if err != nil {
				return nil, fmt.Errorf("threadtest %s: %w", a.Name(), err)
			}
			rows = append(rows, Fig6Row{a.Name(), "threadtest", threads, r.MOPS()})
		}
		// Fresh allocators so shbench starts from clean heaps.
		allocs, err = newAllocators(threads)
		if err != nil {
			return nil, err
		}
		for _, a := range allocs {
			r, err := alloc.Shbench(a, threads, shIters)
			if err != nil {
				return nil, fmt.Errorf("shbench %s: %w", a.Name(), err)
			}
			rows = append(rows, Fig6Row{a.Name(), "shbench", threads, r.MOPS()})
		}
	}
	return rows, nil
}

// PrintFig6 renders Figure 6 rows.
func PrintFig6(w io.Writer, rows []Fig6Row) {
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = []string{r.Workload, fmt.Sprint(r.Threads), r.Allocator, f2(r.MOPS)}
	}
	PrintTable(w, []string{"Workload", "Threads", "Allocator", "MOPS"}, out)
}

// Fig7Row is one thread count's fast-path cost split (paper Figure 7).
type Fig7Row struct {
	Workload string
	Threads  int
	FlushPct float64
	FencePct float64
	AllocPct float64
}

// Fig7 measures where CXL-SHM's allocation fast path spends time, with the
// CLWB flush and sfence charged at the configured costs (the paper measures
// flush at 27–50% of the path and the fence below 5%).
func Fig7(scale Scale, threadCounts []int, flushNS, fenceNS int) ([]Fig7Row, error) {
	var rows []Fig7Row
	run := func(workload string, threads int) error {
		pool, err := shm.NewPool(shm.Config{
			Geometry:  allocPoolConfig(threads),
			Intercept: cxl.Intercept{Latency: cxlLatency(flushNS, fenceNS)},
		})
		if err != nil {
			return err
		}
		s := &alloc.SHM{Pool: pool, Instrument: true}
		switch workload {
		case "threadtest":
			_, err = alloc.Threadtest(s, threads, scale.N(150), 64)
		default:
			_, err = alloc.Shbench(s, threads, scale.N(10_000))
		}
		if err != nil {
			return err
		}
		var flushOps, fenceOps uint64
		var total time.Duration
		for _, b := range s.Breakdowns {
			flushOps += b.FlushOps()
			fenceOps += b.FenceOps()
			total += b.Total()
		}
		fl, fe, al := shm.BreakdownShares(flushOps, fenceOps, total, flushNS, fenceNS)
		rows = append(rows, Fig7Row{workload, threads, fl, fe, al})
		return nil
	}
	for _, threads := range threadCounts {
		if err := run("threadtest", threads); err != nil {
			return nil, err
		}
		if err := run("shbench", threads); err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// PrintFig7 renders Figure 7 rows.
func PrintFig7(w io.Writer, rows []Fig7Row) {
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = []string{r.Workload, fmt.Sprint(r.Threads),
			f1(r.FlushPct) + "%", f1(r.FencePct) + "%", f1(r.AllocPct) + "%"}
	}
	PrintTable(w, []string{"Workload", "Threads", "Flush", "Fence", "Alloc"}, out)
}
