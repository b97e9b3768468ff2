package bench

import (
	"io"
	"math/rand"
	"time"

	"repro/internal/cxl"
)

// Table1Row is one memory type of paper Table 1.
type Table1Row struct {
	Type      string
	SeqMOPS   float64 // sequential 8-byte loads
	RandMOPS  float64 // random 8-byte loads
	CASMOPS   float64 // random CAS
	LatencyNS float64 // dependent-load (pointer chase) latency
}

// Table1 measures sequential, random, and CAS access rates plus dependent
// load latency for the three memory profiles the paper compares: local
// NUMA, remote NUMA, and CXL-attached. The simulated device charges the
// paper's measured latencies; what the experiment verifies is the *shape* —
// seq ≫ rand ≫ CAS within each type, local < remote < CXL latency, CAS flat
// across types.
func Table1(scale Scale) ([]Table1Row, error) {
	profiles := []struct {
		name string
		lat  cxl.Latency
	}{
		{"local NUMA", cxl.LatencyLocalNUMA},
		{"remote NUMA", cxl.LatencyRemoteNUMA},
		{"CXL", cxl.LatencyCXL},
	}
	const words = 1 << 16
	// Every measurement is cut into rounds, timed interleaved with the
	// measurements it is compared with, and keeps its fastest round: on a
	// shared box a burst of scheduler noise slows the rounds it lands on, of
	// every measurement alike, and leaves each some rounds it did not touch.
	const rounds = 100
	ops := max(scale.N(400_000)/rounds, 1)
	casOps := max(ops/8, 1)
	hops := scale.N(100_000)
	if hops < 20_000 {
		// The latency measurement needs enough hops to average out
		// scheduler noise regardless of the requested scale.
		hops = 20_000
	}
	hops /= rounds
	rows := make([]Table1Row, len(profiles))
	chases := make([]func(), len(profiles))
	for pi, p := range profiles {
		dev, err := cxl.NewDevice(cxl.Config{Words: words + 16, MaxClients: 4})
		if err != nil {
			return nil, err
		}
		dev.SetIntercept(cxl.Intercept{Latency: p.lat})
		// One handle per measurement, so that each one's modelled cache holds
		// only the lines it touched itself: interleaved with the random loads,
		// a CAS's load would otherwise hit the lines they just cached.
		hSeq, hRand, hCAS, hChase := dev.Open(1), dev.Open(2), dev.Open(3), dev.Open(4)
		rng := rand.New(rand.NewSource(7))

		// Sequential loads; random loads and random CAS (precomputed indices
		// so RNG cost stays out). Each round continues where the last ended.
		idx := make([]cxl.Addr, 4096)
		for i := range idx {
			idx[i] = cxl.Addr(1 + rng.Intn(words))
		}
		var seqAt, rndAt, casAt int
		best := fastest(rounds, func() {
			for end := seqAt + ops; seqAt < end; seqAt++ {
				hSeq.Load(cxl.Addr(1 + seqAt%words))
			}
		}, func() {
			for end := rndAt + ops; rndAt < end; rndAt++ {
				hRand.Load(idx[rndAt&4095])
			}
		}, func() {
			for end := casAt + casOps; casAt < end; casAt++ {
				a := idx[casAt&4095]
				hCAS.CAS(a, hCAS.Load(a), uint64(casAt))
			}
		})
		rows[pi] = Table1Row{
			Type:     p.name,
			SeqMOPS:  mops(ops, best[0]),
			RandMOPS: mops(ops, best[1]),
			CASMOPS:  mops(casOps, best[2]),
		}

		// Dependent-load latency: pointer chase through a random cycle whose
		// nodes are spread over far more cache lines than the modelled cache
		// holds, so every hop is a miss. Timed below, across profiles.
		const nodes, stride = 4096, 16
		perm := rng.Perm(nodes)
		addrOf := func(i int) cxl.Addr { return cxl.Addr(1 + i*stride) }
		for i := 0; i < nodes; i++ {
			dev.Store(addrOf(perm[i]), uint64(addrOf(perm[(i+1)%nodes])))
		}
		cur := addrOf(perm[0])
		chases[pi] = func() {
			for i := 0; i < hops; i++ {
				cur = cxl.Addr(hChase.Load(cur))
			}
		}
	}
	for pi, d := range fastest(rounds, chases...) {
		rows[pi].LatencyNS = float64(d.Nanoseconds()) / float64(hops)
	}
	return rows, nil
}

// PrintTable1 renders Table 1.
func PrintTable1(w io.Writer, rows []Table1Row) {
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = []string{r.Type, f2(r.SeqMOPS), f2(r.RandMOPS), f2(r.CASMOPS), f1(r.LatencyNS) + " ns"}
	}
	PrintTable(w, []string{"Type", "Seq MOPS", "Rand MOPS", "RandCAS MOPS", "Latency"}, out)
}

func mops(ops int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(ops) / d.Seconds() / 1e6
}

// fastest runs every f of fs once per round, in turn, for rounds rounds and
// returns each one's shortest round.
func fastest(rounds int, fs ...func()) []time.Duration {
	best := make([]time.Duration, len(fs))
	for r := 0; r < rounds; r++ {
		for i, f := range fs {
			start := time.Now()
			f()
			if d := time.Since(start); r == 0 || d < best[i] {
				best[i] = d
			}
		}
	}
	return best
}
