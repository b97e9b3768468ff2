package obs

// HistogramSnapshot is one aggregated histogram. Buckets[i] counts
// observations below BucketUpper(i) and at or above BucketUpper(i-1);
// quantile bounds are bucket upper bounds (so they overestimate by at most
// 2x, the log2 bucket width).
type HistogramSnapshot struct {
	Count   uint64   `json:"count"`
	Buckets []uint64 `json:"buckets,omitempty"`
	P50NS   uint64   `json:"p50_ns,omitempty"`
	P99NS   uint64   `json:"p99_ns,omitempty"`
	MaxNS   uint64   `json:"max_ns,omitempty"`
}

// Quantile returns the upper bound of the bucket holding quantile q (0..1).
func (h HistogramSnapshot) Quantile(q float64) uint64 {
	if h.Count == 0 {
		return 0
	}
	want := uint64(q * float64(h.Count))
	if want >= h.Count {
		want = h.Count - 1
	}
	var seen uint64
	for i, c := range h.Buckets {
		seen += c
		if seen > want {
			return BucketUpper(i)
		}
	}
	return BucketUpper(len(h.Buckets) - 1)
}

// Snapshot is a point-in-time aggregate of every counter and histogram.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// SnapshotOf renders a counter vector and histogram bucket vectors (one
// telemetry block, or the sum of several) under their stable export names.
func SnapshotOf(ctrs *[NumCounters]uint64, histos *[NumHistos][HistBuckets]uint64) Snapshot {
	s := Snapshot{
		Counters:   make(map[string]uint64, NumCounters),
		Histograms: make(map[string]HistogramSnapshot, NumHistos),
	}
	for c := Counter(0); c < NumCounters; c++ {
		s.Counters[c.Name()] = ctrs[c]
	}
	for h := Histo(0); h < NumHistos; h++ {
		s.Histograms[h.Name()] = MakeHistogramSnapshot(histos[h])
	}
	return s
}

// MakeHistogramSnapshot finishes a raw bucket vector into an exportable
// histogram (count, quantiles).
func MakeHistogramSnapshot(buckets [HistBuckets]uint64) HistogramSnapshot {
	var hs HistogramSnapshot
	for i, c := range buckets {
		hs.Count += c
		if c > 0 {
			hs.MaxNS = BucketUpper(i)
		}
	}
	if hs.Count == 0 {
		return hs
	}
	hs.Buckets = append(hs.Buckets, buckets[:]...)
	hs.P50NS = hs.Quantile(0.50)
	hs.P99NS = hs.Quantile(0.99)
	return hs
}

// Sub returns the delta snapshot s - prev (counter-wise and bucket-wise),
// for reporting what one experiment contributed on top of a running total.
func (s Snapshot) Sub(prev Snapshot) Snapshot {
	out := Snapshot{
		Counters:   make(map[string]uint64, len(s.Counters)),
		Histograms: make(map[string]HistogramSnapshot, len(s.Histograms)),
	}
	for k, v := range s.Counters {
		d := v - prev.Counters[k]
		if d > v { // underflow: prev had more (disjoint snapshots); clamp
			d = 0
		}
		out.Counters[k] = d
	}
	for k, h := range s.Histograms {
		p := prev.Histograms[k]
		var buckets [HistBuckets]uint64
		for i := range h.Buckets {
			v := h.Buckets[i]
			if i < len(p.Buckets) {
				if d := v - p.Buckets[i]; d <= v {
					v = d
				} else {
					v = 0
				}
			}
			if i < HistBuckets {
				buckets[i] = v
			}
		}
		out.Histograms[k] = MakeHistogramSnapshot(buckets)
	}
	return out
}
