package main

import (
	"errors"
	"math"
	"slices"
	"testing"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	asc := func(n int) []int64 {
		v := make([]int64, n)
		for i := range v {
			v[i] = int64(i + 1)
		}
		return v
	}
	for _, tc := range []struct {
		n       int
		q       float64
		want    int64
		refused bool
	}{
		{1000, 0.99, 990, false}, // exactly ten samples beyond
		{999, 0.99, 0, true},     // nine beyond
		{21, 0.50, 11, false},
		{19, 0.50, 0, true},
		{100, 0.99, 0, true},
	} {
		got, err := percentile(asc(tc.n), tc.q)
		if tc.refused {
			if !errors.Is(err, errFewSamples) {
				t.Errorf("p%g of %d samples: got %d, %v; want refusal", tc.q*100, tc.n, got, err)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("p%g of %d samples: got %d, %v; want %d", tc.q*100, tc.n, got, err, tc.want)
		}
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q3 := quartiles(v)
	if q1 != 2.75 || q3 != 8.25 || median(v) != 5.5 {
		t.Fatalf("quartiles = %v, %v, median %v; want 2.75, 8.25, 5.5", q1, q3, median(v))
	}
	if got := spread(v); math.Abs(got-1) > 1e-12 {
		t.Fatalf("spread = %v, want 1", got)
	}
}

// TestCalibrationRemovesDips feeds the calibration a machine that loses 40%
// of its speed for five slices out of every twenty (and a reference kernel
// with 3% noise of its own): the raw slice series is wide, the calibrated
// one within 5%, and the calibrated median within 2% of the truth.
func TestCalibrationRemovesDips(t *testing.T) {
	const (
		slices   = 120
		nominal  = 10_000.0
		trueRate = 100_000.0
	)
	r := newRNG(7, 1)
	noise := func(amp float64) float64 { return 1 + amp*(2*r.float()-1) }
	speed := func(i int) float64 { // machine speed around sample/slice i
		if i%20 >= 8 && i%20 < 13 {
			return 0.6
		}
		return 1
	}
	refs := make([]float64, slices+1)
	for i := range refs {
		refs[i] = nominal / speed(i) * noise(0.03)
	}
	raw := make([]float64, slices)
	for i := range raw {
		raw[i] = trueRate * speed(i) * noise(0.02)
	}
	f := sliceFactors(refs, contiguous(slices), nominal)
	cal := make([]float64, slices)
	for i := range cal {
		cal[i] = raw[i] / f[i]
	}
	if s := spread(raw); s < 0.2 {
		t.Fatalf("raw spread %.3f: the synthetic dips are not showing", s)
	}
	if s := spread(cal); s >= 0.05 {
		t.Errorf("calibrated spread %.3f, want < 0.05", s)
	}
	if m := median(cal); math.Abs(m-trueRate)/trueRate > 0.02 {
		t.Errorf("calibrated median %.0f, want %.0f within 2%%", m, trueRate)
	}
}

func TestSliceFactorsWindow(t *testing.T) {
	// One outlier sample must not move any slice's factor.
	refs := []float64{10, 10, 10, 50, 10, 10, 10, 10}
	for i, f := range sliceFactors(refs, contiguous(7), 10) {
		if f != 1 {
			t.Errorf("slice %d: factor %v, want 1", i, f)
		}
	}
	// Two set-ups of two slices each: samples 0,1,2 and 3,4,5. The last
	// slice's window reaches back over the seam to slice 1.
	refs = []float64{10, 10, 10, 20, 20, 20}
	got := sliceFactors(refs, []int{0, 1, 3, 4}, 10)
	if want := []float64{1, 2.0 / 3, 2.0 / 3, 0.5}; !slices.Equal(got, want) {
		t.Errorf("factors across a seam = %v, want %v", got, want)
	}
}

// contiguous is the before-index of n slices measured on one set-up.
func contiguous(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// opHash folds everything a seed generates for the four workloads.
func opHash(seed int64) uint64 {
	var h streamHash
	for _, mix := range []kvMix{
		{keys: 1000, buckets: 64, theta: 0.99, putFrac: 0.05},
		{keys: 1000, buckets: 64, putFrac: 0.5, insertOf: 5, scanEvery: 64},
	} {
		var z *zipf
		if mix.theta > 0 {
			z = newZipf(mix.keys, mix.theta)
		}
		for c := 0; c < 2; c++ {
			ops := make([]kvOp, 512)
			newKVGen(mix, z, newRNG(seed, uint64(c)+1), c, 2).fill(ops)
			for _, op := range ops {
				h.add(uint64(op.kind), op.key)
			}
		}
	}
	txns := make([]allocTxn, 64)
	fillTxns(newRNG(seed, 1), txns)
	for _, tx := range txns {
		for _, s := range tx.sizes {
			h.add(uint64(s))
		}
		h.add(uint64(tx.send))
	}
	sizes := make([]uint16, 64)
	fillVictim(newRNG(seed, 1), sizes)
	for _, s := range sizes {
		h.add(uint64(s))
	}
	return h.h
}

func TestSeedFixesOpSequence(t *testing.T) {
	if a, b := opHash(1), opHash(1); a != b {
		t.Fatalf("same seed, different op sequences: %#x vs %#x", a, b)
	}
	if a, b := opHash(1), opHash(2); a == b {
		t.Fatalf("seeds 1 and 2 generate the same op sequence (%#x)", a)
	}
}

func TestKVGenMix(t *testing.T) {
	mix := kvMix{keys: 1000, buckets: 64, putFrac: 0.5, insertOf: 5, scanEvery: 64}
	ops := make([]kvOp, 64*100)
	g := newKVGen(mix, nil, newRNG(3, 2), 1, 2)
	g.fill(ops)
	count := map[uint8]int{}
	for _, op := range ops {
		count[op.kind]++
		if op.kind == opInsert && (op.key < 1000 || op.key%2 != 1) {
			t.Fatalf("caller 1 of 2 inserted key %d: want a fresh odd key", op.key)
		}
	}
	if count[opScan] != 100 {
		t.Errorf("%d scans in %d ops, want every 64th", count[opScan], len(ops))
	}
	if w := float64(count[opPut]+count[opInsert]) / float64(len(ops)-100); math.Abs(w-0.5) > 0.03 {
		t.Errorf("write share %.3f, want 0.5", w)
	}
	if uint64(count[opInsert]) != g.fresh {
		t.Errorf("generator says %d fresh keys, stream has %d inserts", g.fresh, count[opInsert])
	}
}

func TestValForIsPerKey(t *testing.T) {
	a, b, c := make([]byte, 64), make([]byte, 64), make([]byte, 64)
	valFor(42, a)
	valFor(42, b)
	valFor(43, c)
	if string(a) != string(b) || string(a) == string(c) {
		t.Fatal("valFor must depend on the key and nothing else")
	}
}
