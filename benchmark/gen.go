package main

import (
	"encoding/binary"
	"hash/fnv"
	"math"
)

// Seeded input generation. Everything the workloads feed the system is made
// here from -seed; the system under test only ever sees the generated ops.

// rng is xorshift64*: tiny, fast, and — unlike a library generator — its
// output for a seed is fixed by this file alone.
type rng struct{ s uint64 }

func newRNG(seed int64, stream uint64) *rng {
	// splitmix64 over (seed, stream) so neighbouring seeds and streams start
	// far apart and the state is never zero.
	z := uint64(seed)*0x9e3779b97f4a7c15 + stream*0xbf58476d1ce4e5b9 + 0x94d049bb133111eb
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return &rng{s: z}
}

func (r *rng) next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545f4914f6cdd1d
}

// float returns a uniform value in [0,1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// intn returns a uniform value in [0,n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// zipf draws ranks in [0,n) with the YCSB/Gray bounded zipfian of constant
// theta, then scatters them over the key space so the hot keys do not share
// buckets or a partition.
type zipf struct {
	n                 int
	theta, alpha, eta float64
	zetan, halfPowTh  float64
}

func newZipf(n int, theta float64) *zipf {
	z := &zipf{n: n, theta: theta}
	for i := 1; i <= n; i++ {
		z.zetan += 1 / math.Pow(float64(i), theta)
	}
	zeta2 := 1 + 1/math.Pow(2, theta)
	z.alpha = 1 / (1 - theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta2/z.zetan)
	z.halfPowTh = 1 + math.Pow(0.5, theta)
	return z
}

func (z *zipf) key(r *rng) uint64 {
	u := r.float()
	uz := u * z.zetan
	var rank int
	switch {
	case uz < 1:
		rank = 0
	case uz < z.halfPowTh:
		rank = 1
	default:
		rank = int(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
		if rank >= z.n {
			rank = z.n - 1
		}
	}
	return (uint64(rank) * 0x9e3779b97f4a7c15) % uint64(z.n)
}

// valFor fills buf with key's deterministic value: every write of a key
// stores the same bytes, so any read — even one racing a writer — can be
// checked.
func valFor(key uint64, buf []byte) {
	x := key*0xd6e8feb86659fd93 + 0x5851f42d4c957f2d
	for i := 0; i < len(buf); i += 8 {
		x ^= x >> 32
		x *= 0xd6e8feb86659fd93
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], x)
		copy(buf[i:], w[:])
	}
}

// kvOp is one generated key-value operation.
type kvOp struct {
	kind uint8
	key  uint64 // GET/PUT/INSERT: the key; SCAN: the start bucket
}

const (
	opGet uint8 = iota
	opPut
	opInsert
	opScan
)

// kvMix shapes a key-value op stream.
type kvMix struct {
	keys      int     // preloaded key space [0,keys)
	buckets   int     // scan start range
	theta     float64 // zipfian constant; 0 = uniform
	putFrac   float64 // share of non-scan ops that write
	insertOf  int     // 1 in insertOf writes inserts a fresh key (0: never)
	scanEvery int     // every scanEvery-th op is a scan (0: never)
}

// kvGen produces one caller's op stream. Fresh keys are drawn from a range
// private to the caller, above the preloaded space, so an insert is always
// an insert and two callers never create the same key.
type kvGen struct {
	mix     kvMix
	r       *rng
	z       *zipf
	caller  int
	callers int
	n       uint64 // ops generated
	fresh   uint64 // fresh keys handed out
}

func newKVGen(mix kvMix, z *zipf, r *rng, caller, callers int) *kvGen {
	return &kvGen{mix: mix, r: r, z: z, caller: caller, callers: callers}
}

func (g *kvGen) fill(ops []kvOp) {
	for i := range ops {
		g.n++
		if g.mix.scanEvery > 0 && g.n%uint64(g.mix.scanEvery) == 0 {
			ops[i] = kvOp{opScan, uint64(g.r.intn(g.mix.buckets))}
			continue
		}
		write := g.r.float() < g.mix.putFrac
		if write && g.mix.insertOf > 0 && g.r.intn(g.mix.insertOf) == 0 {
			key := uint64(g.mix.keys) + g.fresh*uint64(g.callers) + uint64(g.caller)
			g.fresh++
			ops[i] = kvOp{opInsert, key}
			continue
		}
		var key uint64
		if g.z != nil {
			key = g.z.key(g.r)
		} else {
			key = uint64(g.r.intn(g.mix.keys))
		}
		if write {
			ops[i] = kvOp{opPut, key}
		} else {
			ops[i] = kvOp{opGet, key}
		}
	}
}

// allocTxn is one shm-churn transaction: the sizes of its eight objects
// (sizes[0] and sizes[1] carry one embedded reference each) and which object
// is handed to the second client.
type allocTxn struct {
	sizes [8]uint16
	send  uint8
}

// churnSizes spans the size classes from the smallest (16 B) to 4 KiB.
var churnSizes = [...]uint16{16, 32, 48, 64, 96, 128, 192, 256, 384, 512, 768, 1024, 1536, 2048, 3072, 4096}

func fillTxns(r *rng, txns []allocTxn) {
	for i := range txns {
		for j := range txns[i].sizes {
			txns[i].sizes[j] = churnSizes[r.intn(len(churnSizes))]
		}
		txns[i].send = uint8(r.intn(8))
	}
}

// fillVictim draws the sizes of the small objects one crash-recover victim
// builds, in allocation order. The huge runs and the shared subset are fixed
// by position (see recover.go).
func fillVictim(r *rng, sizes []uint16) {
	for i := range sizes {
		sizes[i] = churnSizes[r.intn(len(churnSizes))]
	}
}

// streamHash folds generated inputs into one number, so a test can assert
// that a seed fixes the op sequence.
type streamHash struct{ h uint64 }

func (s *streamHash) add(vals ...uint64) {
	f := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], s.h)
	f.Write(b[:])
	for _, v := range vals {
		binary.LittleEndian.PutUint64(b[:], v)
		f.Write(b[:])
	}
	s.h = f.Sum64()
}
