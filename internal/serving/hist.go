package serving

import "math/bits"

// LatencyHist is a log-linear latency histogram (HDR-style): 32 linear
// sub-buckets per power-of-two octave over a 256 ns resolution floor, so
// every recorded value lands in a bucket within ~3% of its true value up
// to minutes of latency. Unsynchronized — each driver goroutine owns one
// and they are Merge'd after the run.
type LatencyHist struct {
	Buckets [histBuckets]uint64 `json:"-"`
	Count   uint64              `json:"count"`
	MaxNS   int64               `json:"max_ns"`
	SumNS   int64               `json:"sum_ns"`
}

const (
	histSubBits   = 5 // 32 sub-buckets per octave
	histSub       = 1 << histSubBits
	histUnitShift = 8 // 256 ns resolution floor
	histOctaves   = 28
	histBuckets   = histSub * (histOctaves + 2)
)

// bucketIdx maps a latency in nanoseconds to its bucket.
func bucketIdx(ns int64) int {
	u := uint64(ns) >> histUnitShift
	if u < histSub {
		return int(u)
	}
	k := bits.Len64(u) - 1 // floor(log2 u), ≥ histSubBits
	o := k - histSubBits
	if o > histOctaves {
		return histBuckets - 1
	}
	return o*histSub + int(u>>uint(o))
}

// bucketLowNS is the inclusive lower bound of bucket idx, in nanoseconds.
func bucketLowNS(idx int) int64 {
	if idx < histSub {
		return int64(idx) << histUnitShift
	}
	o := idx/histSub - 1
	s := idx % histSub
	return int64(histSub+s) << uint(o+histUnitShift)
}

// Record adds one latency observation.
func (h *LatencyHist) Record(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.Buckets[bucketIdx(ns)]++
	h.Count++
	h.SumNS += ns
	if ns > h.MaxNS {
		h.MaxNS = ns
	}
}

// Merge adds o's observations into h.
func (h *LatencyHist) Merge(o *LatencyHist) {
	for i := range h.Buckets {
		h.Buckets[i] += o.Buckets[i]
	}
	h.Count += o.Count
	h.SumNS += o.SumNS
	if o.MaxNS > h.MaxNS {
		h.MaxNS = o.MaxNS
	}
}

// Percentile returns the latency at quantile q ∈ [0,1] (bucket upper
// midpoint; 0 when empty).
func (h *LatencyHist) Percentile(q float64) int64 {
	if h.Count == 0 {
		return 0
	}
	want := uint64(q * float64(h.Count))
	if want >= h.Count {
		want = h.Count - 1
	}
	var cum uint64
	for i, c := range h.Buckets {
		cum += c
		if cum > want {
			// Representative value: the bucket's midpoint, capped by the
			// recorded max so tiny histograms don't over-report.
			lo := bucketLowNS(i)
			hi := bucketLowNS(i + 1)
			mid := lo + (hi-lo)/2
			if mid > h.MaxNS {
				mid = h.MaxNS
			}
			return mid
		}
	}
	return h.MaxNS
}
