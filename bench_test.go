package cxlshm_test

// One benchmark per paper table/figure (regenerating its measurement at
// reduced scale) plus micro-benchmarks of the core operations and the
// ablations called out in DESIGN.md §5. For full-scale, human-readable
// regeneration use cmd/cxlbench.

import (
	"fmt"
	"testing"

	cxlshm "repro"
	"repro/internal/alloc"
	"repro/internal/bench"
	"repro/internal/kv"
	"repro/internal/layout"
	"repro/internal/lightning"
	"repro/internal/nativealloc"
	"repro/internal/pmem"
	"repro/internal/recovery"
	"repro/internal/shm"
)

var benchScale = bench.Scale{Factor: 0.1}

func benchPool(b *testing.B) *shm.Pool {
	b.Helper()
	p, err := shm.NewPool(shm.Config{Geometry: layout.GeometryConfig{
		MaxClients: 8, NumSegments: 128, SegmentWords: 1 << 15, PageWords: 1 << 11,
	}})
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// --- micro-benchmarks: the core operations ---

// BenchmarkMallocFree measures the §5.1 allocation fast path (one RootRef
// claim, link, advance, init, era bump) plus the matching release.
func BenchmarkMallocFree(b *testing.B) {
	for _, size := range []int{16, 64, 256, 1024} {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			p := benchPool(b)
			c, err := p.Connect()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				root, _, err := c.Malloc(size, 0)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := c.ReleaseRoot(root); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAlloc measures the §5.1 allocation fast path alone: pure Malloc
// throughput, with accumulated objects released off the clock.
func BenchmarkAlloc(b *testing.B) {
	p := benchPool(b)
	c, err := p.Connect()
	if err != nil {
		b.Fatal(err)
	}
	roots := make([]layout.Addr, 0, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		root, _, err := c.Malloc(64, 0)
		if err != nil {
			b.Fatal(err)
		}
		roots = append(roots, root)
		if len(roots) == cap(roots) {
			b.StopTimer()
			for _, r := range roots {
				if _, err := c.ReleaseRoot(r); err != nil {
					b.Fatal(err)
				}
			}
			roots = roots[:0]
			b.StartTimer()
		}
	}
}

// BenchmarkAttachRelease measures one full era transaction pair (Figure
// 4(c)): the cross-client reference count maintenance CXL-SHM is built on.
func BenchmarkAttachRelease(b *testing.B) {
	p := benchPool(b)
	a, _ := p.Connect()
	c, _ := p.Connect()
	_, block, err := a.Malloc(64, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		root, err := c.AttachRoot(block)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.ReleaseRoot(root); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClone measures the thread-local clone (two-tier counting: no
// atomics, no flush).
func BenchmarkClone(b *testing.B) {
	p := benchPool(b)
	c, _ := p.Connect()
	root, _, err := c.Malloc(64, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.CloneRoot(root)
		if _, err := c.ReleaseRoot(root); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueueTransfer measures one §5.2 exactly-once reference transfer
// (send + receive + slot release).
func BenchmarkQueueTransfer(b *testing.B) {
	p := benchPool(b)
	s, _ := p.Connect()
	r, _ := p.Connect()
	_, q, err := s.CreateQueue(r.ID(), 16)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := r.OpenQueue(q); err != nil {
		b.Fatal(err)
	}
	_, obj, err := s.Malloc(64, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Send(q, obj); err != nil {
			b.Fatal(err)
		}
		root, _, err := r.Receive(q)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := r.ReleaseRoot(root); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table 1 ---

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Table1(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				b.ReportMetric(r.RandMOPS, "rand-MOPS-"+short(r.Type))
			}
		}
	}
}

// --- Figure 6 ---

func BenchmarkFig6Threadtest(b *testing.B) {
	for _, mk := range fig6Allocators(b) {
		b.Run(mk.name, func(b *testing.B) {
			var last alloc.Result
			for i := 0; i < b.N; i++ {
				// Fresh allocator per iteration: each run connects its own
				// clients, and client slots live until recovery.
				b.StopTimer()
				a := mk.make(b)
				b.StartTimer()
				r, err := alloc.Threadtest(a, 4, 50, 64)
				if err != nil {
					b.Fatal(err)
				}
				last = r
			}
			b.ReportMetric(last.MOPS(), "MOPS")
		})
	}
}

func BenchmarkFig6Shbench(b *testing.B) {
	for _, mk := range fig6Allocators(b) {
		b.Run(mk.name, func(b *testing.B) {
			var last alloc.Result
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				a := mk.make(b)
				b.StartTimer()
				r, err := alloc.Shbench(a, 4, 5000)
				if err != nil {
					b.Fatal(err)
				}
				last = r
			}
			b.ReportMetric(last.MOPS(), "MOPS")
		})
	}
}

type namedAlloc struct {
	name string
	make func(b *testing.B) alloc.Allocator
}

func fig6Allocators(b *testing.B) []namedAlloc {
	return []namedAlloc{
		{"CXL-SHM", func(b *testing.B) alloc.Allocator { return &alloc.SHM{Pool: benchPool(b)} }},
		{"ralloc", func(b *testing.B) alloc.Allocator {
			h, err := pmem.NewHeap(64 << 20)
			if err != nil {
				b.Fatal(err)
			}
			h.SetPersistCost(150) // modelled pwb+pfence on Optane (DESIGN.md)
			return pmem.Bench{H: h}
		}},
		{"jemalloc", func(*testing.B) alloc.Allocator { return nativealloc.Plain{} }},
		{"mimalloc", func(*testing.B) alloc.Allocator { return &nativealloc.Pooled{} }},
	}
}

// --- Figure 7 ---

func BenchmarkFig7Breakdown(b *testing.B) {
	var rows []bench.Fig7Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = bench.Fig7(benchScale, []int{4}, 400, 30)
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(rows) > 0 {
		b.ReportMetric(rows[0].FlushPct, "flush-%")
		b.ReportMetric(rows[0].FencePct, "fence-%")
	}
}

// --- §6.2.1 recovery ---

func BenchmarkRecoveryCXLSHM(b *testing.B) {
	const n = 2000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p := benchPool(b)
		victim, _ := p.Connect()
		for k := 0; k < n; k++ {
			if _, _, err := victim.Malloc(48, 0); err != nil {
				b.Fatal(err)
			}
		}
		svc, err := recovery.NewService(p)
		if err != nil {
			b.Fatal(err)
		}
		victim.Crash()
		b.StartTimer()
		if _, err := svc.RecoverClient(victim.ID()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(n), "objs/recovery")
}

func BenchmarkRecoveryPmemGC(b *testing.B) {
	const n = 2000
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		h, err := pmem.NewHeap(64 << 20)
		if err != nil {
			b.Fatal(err)
		}
		ctx, _ := h.NewThread()
		for k := 0; k < n; k++ {
			if _, err := ctx.Alloc(48); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		h.Recover()
	}
	b.ReportMetric(float64(n), "objs/recovery")
}

// BenchmarkSegmentScan times the owner's §5.3 scan of its first segment.
// live: every block allocated and the free lists empty, so the scan's
// membership set stays empty too. mixed: what a scan meets after a recovery —
// 32 blocks live, the rest free, half of those pushed onto client_free by
// another client's final release.
func BenchmarkSegmentScan(b *testing.B) {
	for _, shape := range []string{"live", "mixed"} {
		b.Run(shape, func(b *testing.B) {
			p := benchPool(b)
			c, _ := p.Connect()
			other, _ := p.Connect()
			var roots, shared []layout.Addr
			for i := 0; i < 2000; i++ {
				root, block, err := c.Malloc(64, 0)
				if err != nil {
					b.Fatal(err)
				}
				roots = append(roots, root)
				if shape == "mixed" && i%2 == 0 {
					r, err := other.AttachRoot(block)
					if err != nil {
						b.Fatal(err)
					}
					shared = append(shared, r)
				}
			}
			if shape == "mixed" {
				// The owner lets go first, so that the other client's release
				// of a shared block is the final one.
				for _, r := range roots[32:] {
					if _, err := c.ReleaseRoot(r); err != nil {
						b.Fatal(err)
					}
				}
				for _, r := range shared[16:] {
					if _, err := other.ReleaseRoot(r); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.ScanSegment(0, false)
			}
		})
	}
}

// --- Figure 8 ---

func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Fig8Pairs(benchScale, []int{2})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				b.ReportMetric(r.KOPS, "KOPS-"+short(r.System))
			}
		}
	}
}

func BenchmarkFig8PayloadSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Fig8Payload(benchScale, []int{64, 32768}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 9 ---

func BenchmarkFig9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Fig9(benchScale, []int{2}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 10 ---

func BenchmarkFig10a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Fig10a(benchScale, []int{4})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				b.ReportMetric(r.MOPS, "MOPS-"+short(r.System))
			}
		}
	}
}

func BenchmarkFig10b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Fig10b(benchScale, 4, []float64{1, 0.5, 0.1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10c(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Fig10c(benchScale, []int{4}, []float64{0, 0.99}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10d(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Fig10d(benchScale, []int{4}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- ablations (DESIGN.md §5) ---

// BenchmarkAblationTwoTier quantifies the two-tier reference count: a
// thread-local clone/release against a full era-transaction attach/release
// on the shared header.
func BenchmarkAblationTwoTier(b *testing.B) {
	p := benchPool(b)
	c, _ := p.Connect()
	root, block, err := c.Malloc(64, 0)
	if err != nil {
		b.Fatal(err)
	}
	_ = root
	b.Run("local-clone", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c.CloneRoot(root)
			if _, err := c.ReleaseRoot(root); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("shared-attach", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r2, err := c.AttachRoot(block)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := c.ReleaseRoot(r2); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationFlushCost isolates the Figure 7 flush/fence overhead by
// running the same allocation loop with and without charged flush costs.
func BenchmarkAblationFlushCost(b *testing.B) {
	for _, cfg := range []struct {
		name    string
		flushNS int
	}{{"flush-free", 0}, {"flush-400ns", 400}} {
		b.Run(cfg.name, func(b *testing.B) {
			p, err := cxlshm.NewPool(cxlshm.Config{
				NumSegments: 128, FlushCostNS: cfg.flushNS,
			})
			if err != nil {
				b.Fatal(err)
			}
			c, err := p.Connect()
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ref, err := c.Malloc(64, 0)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := ref.Release(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationLockBaseline contrasts CXL-KV's latch-free put with the
// lock-based Lightning put (the §4.2 straw-man architecture).
func BenchmarkAblationLockBaseline(b *testing.B) {
	val := make([]byte, 32)
	b.Run("cxl-kv", func(b *testing.B) {
		p := benchPool(b)
		c, _ := p.Connect()
		s, err := kv.Create(c, 0, 1024, 32, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.Put(uint64(i%512), val); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("lightning", func(b *testing.B) {
		st, err := lightning.NewStore(1<<22, 2048)
		if err != nil {
			b.Fatal(err)
		}
		c := st.Connect()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := c.Put(uint64(i%512), val); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func short(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-':
			out = append(out, r)
		}
	}
	return string(out)
}
