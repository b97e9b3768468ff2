package bench

import (
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/cxl"
	"repro/internal/kv"
	"repro/internal/layout"
	"repro/internal/lightning"
	"repro/internal/shm"
	"repro/internal/workload"
)

// Fig10Row is one point of the Figure 10 key-value experiments.
type Fig10Row struct {
	Figure   string // "10a".."10d"
	System   string
	Workload string
	Clients  int
	MOPS     float64
}

const kvValueSize = 64

// kvIface is the operation surface all three stores expose to the driver.
type kvIface interface {
	Put(key uint64, val []byte) error
	Get(key uint64, buf []byte) (int, error)
	Delete(key uint64) error
}

// lightningKV adapts a Lightning client to kvIface.
type lightningKV struct{ c *lightning.Client }

func (l lightningKV) Put(key uint64, val []byte) error { return l.c.Put(key, val) }
func (l lightningKV) Get(key uint64, buf []byte) (int, error) {
	v, err := l.c.Get(key)
	if err != nil {
		return 0, err
	}
	return copy(buf, v), nil
}
func (l lightningKV) Delete(key uint64) error { return l.c.Delete(key) }

// kvPool sizes a pool for KV experiments.
func kvPool(clients int) (*shm.Pool, error) {
	return kvPoolLatency(clients, cxl.Latency{})
}

// kvPoolLatency additionally enables the device latency model (used by the
// Figure 10c skew experiment, whose effect is cache locality).
func kvPoolLatency(clients int, lat cxl.Latency) (*shm.Pool, error) {
	return shm.NewPool(shm.Config{
		Geometry: layout.GeometryConfig{
			MaxClients:   clients + 4,
			NumSegments:  8*clients + 64,
			SegmentWords: 1 << 15,
			PageWords:    1 << 11,
		},
		Intercept: cxl.Intercept{Latency: lat},
	})
}

// kvBenchBuckets is the index size shared by every Figure 10 store so the
// bucket-based partitioning is identical across systems.
const kvBenchBuckets = 4096

// runKVClients drives `clients` goroutines, each obtaining its store handle
// from mk and executing its op stream; returns aggregate MOPS. Writes are
// confined to each client's bucket partition (the single-writer rule —
// §6.4); reads may touch the entire key space (shared-everything). The same
// partitioning is applied to every system so workloads are identical.
func runKVClients(clients int, mk func(i int) (kvIface, error),
	ops func(i int) []workload.Op, totalKeys int, reallocWrites bool) (float64, error) {
	handles := make([]kvIface, clients)
	streams := make([][]workload.Op, clients)
	// Per-client write-key pools: the keys whose bucket partition the client
	// owns. Write ops index into this pool, preserving the stream's
	// distribution shape while respecting single-writer.
	writeKeys := make([][]uint64, clients)
	for k := 0; k < totalKeys; k++ {
		p := kv.Partition(uint64(k), kvBenchBuckets, clients)
		writeKeys[p] = append(writeKeys[p], uint64(k))
	}
	for i := 0; i < clients; i++ {
		h, err := mk(i)
		if err != nil {
			return 0, err
		}
		handles[i] = h
		streams[i] = ops(i)
	}
	// Preload every key through its partition owner.
	val := make([]byte, kvValueSize)
	for k := 0; k < totalKeys; k++ {
		owner := kv.Partition(uint64(k), kvBenchBuckets, clients)
		if err := handles[owner].Put(uint64(k), val); err != nil {
			return 0, fmt.Errorf("preload key %d: %w", k, err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	total := 0
	start := time.Now()
	for i := 0; i < clients; i++ {
		total += len(streams[i])
		wg.Add(1)
		go func(h kvIface, ops []workload.Op, own []uint64) {
			defer wg.Done()
			buf := make([]byte, kvValueSize)
			val := make([]byte, kvValueSize)
			for _, op := range ops {
				if op.Kind == workload.OpWrite && len(own) > 0 {
					key := own[op.Key%uint64(len(own))]
					if reallocWrites {
						// The write replaces the record: free the old one
						// and allocate a new one. The write/read-ratio
						// experiment attributes the gap to exactly this —
						// "the writing operations involve memory allocations
						// that execute memory fences" (§6.4).
						if err := h.Delete(key); err != nil &&
							err != kv.ErrNotFound && err != lightning.ErrNotFound {
							errs <- err
							return
						}
					}
					if err := h.Put(key, val); err != nil {
						errs <- err
						return
					}
				} else {
					if _, err := h.Get(op.Key%uint64(totalKeys), buf); err != nil &&
						err != kv.ErrNotFound && err != lightning.ErrNotFound {
						errs <- err
						return
					}
				}
			}
			errs <- nil
		}(handles[i], streams[i], writeKeys[i])
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return mops(total, time.Since(start)), nil
}

// Fig10a compares TBB-KV, CXL-KV, and Lightning across client counts on a
// uniform 1:1 write/read mix.
func Fig10a(scale Scale, clientCounts []int) ([]Fig10Row, error) {
	var rows []Fig10Row
	for _, n := range clientCounts {
		totalKeys := 1000 * n
		opsN := scale.N(20_000)
		mkOps := func(i int) []workload.Op {
			s, _ := workload.NewKVStream(workload.KVConfig{
				Keys: totalKeys, WriteRatio: 0.5, Seed: int64(100 + i),
			})
			return s.Fill(opsN)
		}

		// TBB-KV.
		tbb := kv.NewTBBKV(16)
		m, err := runKVClients(n, func(int) (kvIface, error) { return tbb, nil }, mkOps, totalKeys, false)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig10Row{"10a", "TBB-KV", "uniform 1:1", n, m})

		// CXL-KV.
		pool, err := kvPool(n)
		if err != nil {
			return nil, err
		}
		creator, err := pool.Connect()
		if err != nil {
			return nil, err
		}
		if _, err := kv.Create(creator, 0, kvBenchBuckets, kvValueSize, n); err != nil {
			return nil, err
		}
		m, err = runKVClients(n, func(int) (kvIface, error) {
			c, err := pool.Connect()
			if err != nil {
				return nil, err
			}
			return kv.Open(c, 0)
		}, mkOps, totalKeys, false)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig10Row{"10a", "CXL-KV", "uniform 1:1", n, m})

		// Lightning.
		store, err := lightning.NewStore(1<<24, 1<<15)
		if err != nil {
			return nil, err
		}
		m, err = runKVClients(n, func(int) (kvIface, error) {
			return lightningKV{store.Connect()}, nil
		}, mkOps, totalKeys, false)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig10Row{"10a", "Lightning*", "uniform 1:1", n, m})
	}
	return rows, nil
}

// Fig10b sweeps the write/read ratio for CXL-KV at a fixed client count.
func Fig10b(scale Scale, clients int, writeRatios []float64) ([]Fig10Row, error) {
	var rows []Fig10Row
	totalKeys := 1000 * clients
	for _, ratio := range writeRatios {
		opsN := scale.N(20_000)
		pool, err := kvPool(clients)
		if err != nil {
			return nil, err
		}
		creator, err := pool.Connect()
		if err != nil {
			return nil, err
		}
		if _, err := kv.Create(creator, 0, kvBenchBuckets, kvValueSize, clients); err != nil {
			return nil, err
		}
		m, err := runKVClients(clients, func(int) (kvIface, error) {
			c, err := pool.Connect()
			if err != nil {
				return nil, err
			}
			return kv.Open(c, 0)
		}, func(i int) []workload.Op {
			s, _ := workload.NewKVStream(workload.KVConfig{
				Keys: totalKeys, WriteRatio: ratio, Seed: int64(200 + i),
			})
			return s.Fill(opsN)
		}, totalKeys, true)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig10Row{"10b", "CXL-KV", fmt.Sprintf("W=%.2f", ratio), clients, m})
	}
	return rows, nil
}

// Fig10c sweeps YCSB zipf skew for CXL-KV across client counts.
func Fig10c(scale Scale, clientCounts []int, zipfs []float64) ([]Fig10Row, error) {
	var rows []Fig10Row
	for _, n := range clientCounts {
		totalKeys := 1000 * n
		for _, z := range zipfs {
			opsN := scale.N(20_000)
			// Skew pays off through cache locality (§6.4): model the CXL
			// access latency with the per-client line cache, so hot records
			// hit the modelled cache and cold ones pay the miss.
			pool, err := kvPoolLatency(n, cxl.Latency{MissNS: 300, CASNS: 300})
			if err != nil {
				return nil, err
			}
			creator, err := pool.Connect()
			if err != nil {
				return nil, err
			}
			if _, err := kv.Create(creator, 0, kvBenchBuckets, kvValueSize, n); err != nil {
				return nil, err
			}
			m, err := runKVClients(n, func(int) (kvIface, error) {
				c, err := pool.Connect()
				if err != nil {
					return nil, err
				}
				return kv.Open(c, 0)
			}, func(i int) []workload.Op {
				s, _ := workload.NewKVStream(workload.KVConfig{
					Keys: totalKeys, WriteRatio: 0.1, Zipf: z, Seed: int64(300 + i),
				})
				return s.Fill(opsN)
			}, totalKeys, false)
			if err != nil {
				return nil, err
			}
			rows = append(rows, Fig10Row{"10c", "CXL-KV", fmt.Sprintf("zipf=%.2f", z), n, m})
		}
	}
	return rows, nil
}

// Fig10d runs the TATP and SmallBank read-write mixes on CXL-KV and TBB-KV.
func Fig10d(scale Scale, clientCounts []int) ([]Fig10Row, error) {
	var rows []Fig10Row
	const subsPerClient = 500
	mkTATP := func(i int) []workload.Op {
		s, _ := workload.NewTATP(subsPerClient, int64(400+i))
		var ops []workload.Op
		n := scale.N(5_000)
		for t := 0; t < n; t++ {
			ops = append(ops, s.Next().Ops()...)
		}
		return ops
	}
	mkSB := func(i int) []workload.Op {
		s, _ := workload.NewSmallBank(subsPerClient, int64(500+i))
		var ops []workload.Op
		n := scale.N(5_000)
		for t := 0; t < n; t++ {
			ops = append(ops, s.Next().Ops()...)
		}
		return ops
	}
	for _, n := range clientCounts {
		for _, wl := range []struct {
			name string
			mk   func(int) []workload.Op
			keys int
		}{
			{"TATP", mkTATP, subsPerClient * 4},
			{"SmallBank", mkSB, subsPerClient * 2},
		} {
			pool, err := kvPool(n)
			if err != nil {
				return nil, err
			}
			creator, err := pool.Connect()
			if err != nil {
				return nil, err
			}
			if _, err := kv.Create(creator, 0, kvBenchBuckets, kvValueSize, n); err != nil {
				return nil, err
			}
			m, err := runKVClients(n, func(int) (kvIface, error) {
				c, err := pool.Connect()
				if err != nil {
					return nil, err
				}
				return kv.Open(c, 0)
			}, wl.mk, wl.keys, false)
			if err != nil {
				return nil, err
			}
			rows = append(rows, Fig10Row{"10d", "CXL-KV", wl.name, n, m})

			tbb := kv.NewTBBKV(16)
			m, err = runKVClients(n, func(int) (kvIface, error) { return tbb, nil }, wl.mk, wl.keys, false)
			if err != nil {
				return nil, err
			}
			rows = append(rows, Fig10Row{"10d", "TBB-KV", wl.name, n, m})
		}
	}
	return rows, nil
}

// PrintFig10 renders Figure 10 rows.
func PrintFig10(w io.Writer, rows []Fig10Row) {
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = []string{r.Figure, r.Workload, fmt.Sprint(r.Clients), r.System, f2(r.MOPS)}
	}
	PrintTable(w, []string{"Fig", "Workload", "Clients", "System", "MOPS"}, out)
}
