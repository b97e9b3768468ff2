// Package mapreduce implements CXL-MapReduce, the paper's end-to-end
// pass-by-reference application (§6.3.2, Figure 9): a Phoenix-style
// shared-memory MapReduce where map and reduce phases share the same RDSM
// region — splits and intermediate results are shared objects and only
// references move between coordinator and executors.
//
// The baseline ("Phoenix*" in our benches, see DESIGN.md's substitution
// table) is the same topology with pass-by-value plumbing: every split and
// every intermediate result is copied between coordinator and executors,
// the cost structure of MapReduce without shared memory.
//
// Two workloads, as in the paper: word count and kmeans.
package mapreduce

import (
	"math"
	"sync"

	"repro/internal/layout"
	"repro/internal/shm"
)

// hashWord is the word identity both implementations share, so results are
// directly comparable.
func hashWord(w string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(w); i++ {
		h ^= uint64(w[i])
		h *= 1099511628211
	}
	return h
}

// countWords is the shared map function: word-frequency of a text chunk.
func countWords(chunk string) map[uint64]int64 {
	counts := make(map[uint64]int64, 256)
	start := -1
	for i := 0; i <= len(chunk); i++ {
		isSpace := i == len(chunk) || chunk[i] == ' ' || chunk[i] == '\n' || chunk[i] == '\t'
		if isSpace {
			if start >= 0 {
				counts[hashWord(chunk[start:i])]++
				start = -1
			}
		} else if start < 0 {
			start = i
		}
	}
	return counts
}

// splitText cuts text into n word-aligned chunks.
func splitText(text string, n int) []string {
	if n < 1 {
		n = 1
	}
	var chunks []string
	step := len(text) / n
	if step < 1 {
		step = 1
	}
	for off := 0; off < len(text); {
		end := off + step
		if end >= len(text) {
			end = len(text)
		} else {
			for end < len(text) && text[end] != ' ' && text[end] != '\n' {
				end++
			}
		}
		chunks = append(chunks, text[off:end])
		off = end
	}
	return chunks
}

// mergeCounts folds src into dst.
func mergeCounts(dst, src map[uint64]int64) {
	for k, v := range src {
		dst[k] += v
	}
}

// --- pass-by-value baseline (Phoenix*) ---

// WordCountValue runs word count with executors workers, copying splits in
// and intermediate count tables out (pass-by-value).
func WordCountValue(text string, executors int) map[uint64]int64 {
	chunks := splitText(text, executors*4)
	in := make(chan []byte, len(chunks))
	out := make(chan map[uint64]int64, len(chunks))
	var wg sync.WaitGroup
	for e := 0; e < executors; e++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for chunk := range in {
				local := countWords(string(chunk)) // copy-in: []byte -> string
				// Copy-out: rebuild the table as a fresh value.
				res := make(map[uint64]int64, len(local))
				for k, v := range local {
					res[k] = v
				}
				out <- res
			}
		}()
	}
	for _, c := range chunks {
		in <- []byte(c) // the pass-by-value copy of the split
	}
	close(in)
	go func() { wg.Wait(); close(out) }()
	total := make(map[uint64]int64)
	for res := range out {
		mergeCounts(total, res)
	}
	return total
}

// --- pass-by-reference (CXL-MapReduce) ---

// wcResultEncode writes a count table into a shared object: word 0 = pair
// count, then (hash, count) pairs.
func wcResultEncode(c *shm.Client, counts map[uint64]int64) (root, block layout.Addr, err error) {
	n := len(counts)
	root, block, err = c.Malloc((1+2*n)*layout.WordBytes, 0)
	if err != nil {
		return 0, 0, err
	}
	c.StoreWord(block, 0, uint64(n))
	i := 1
	for k, v := range counts {
		c.StoreWord(block, i, k)
		c.StoreWord(block, i+1, uint64(v))
		i += 2
	}
	return root, block, nil
}

// wcResultMergeInPlace folds a shared result object into dst without
// copying the object (reads in place).
func wcResultMergeInPlace(c *shm.Client, block layout.Addr, dst map[uint64]int64) {
	n := int(c.LoadWord(block, 0))
	for i := 0; i < n; i++ {
		k := c.LoadWord(block, 1+2*i)
		v := int64(c.LoadWord(block, 2+2*i))
		dst[k] += v
	}
}

// WordCountCXL runs word count over the shared pool: the coordinator stores
// splits as shared objects and passes references to executor clients; each
// executor reads its split in place and returns its count table as a shared
// object reference, which the coordinator folds in place.
func WordCountCXL(p *shm.Pool, text string, executors int) (map[uint64]int64, error) {
	j, err := newJob(p)
	if err != nil {
		return nil, err
	}
	if err := j.start(p, executors, func(_ int, x *executor) (mapper, error) {
		c := x.c
		return func(split layout.Addr) (root, res layout.Addr, err error) {
			buf := make([]byte, c.LoadWord(split, 0))
			c.ReadData(split, layout.WordBytes, buf)
			return wcResultEncode(c, countWords(string(buf)))
		}, nil
	}); err != nil {
		return nil, j.close(err)
	}
	// Hand the splits out round-robin: word 0 = byte count, then the bytes.
	c := j.coord.c
	chunks := splitText(text, executors*4)
	for i, chunk := range chunks {
		root, split, err := c.Malloc(layout.WordBytes+len(chunk), 0)
		if err == nil {
			c.StoreWord(split, 0, uint64(len(chunk)))
			c.WriteData(split, layout.WordBytes, []byte(chunk))
			err = j.send(c, j.execs[i%executors].work, root, split)
		}
		if err != nil {
			return nil, j.close(err)
		}
	}
	total := make(map[uint64]int64)
	err = j.gather(len(chunks), func(res layout.Addr) { wcResultMergeInPlace(c, res, total) })
	if err := j.close(err); err != nil {
		return nil, err
	}
	return total, nil
}

// --- kmeans ---

// KMeansValue runs iters Lloyd iterations with pass-by-value plumbing: each
// iteration copies every executor's point range and the centers in, and the
// partial sums out.
func KMeansValue(points []float64, dim, k, iters, executors int) []float64 {
	n := len(points) / dim
	centers := initialCenters(points, dim, k)
	for it := 0; it < iters; it++ {
		type partial struct {
			sums   []float64
			counts []int64
		}
		out := make(chan partial, executors)
		per := (n + executors - 1) / executors
		for e := 0; e < executors; e++ {
			lo, hi := e*per, (e+1)*per
			if hi > n {
				hi = n
			}
			if lo >= hi {
				out <- partial{make([]float64, k*dim), make([]int64, k)}
				continue
			}
			// Pass-by-value: copy the range and the centers.
			rangeCopy := append([]float64(nil), points[lo*dim:hi*dim]...)
			centersCopy := append([]float64(nil), centers...)
			go func() {
				sums := make([]float64, k*dim)
				counts := make([]int64, k)
				assignRange(rangeCopy, centersCopy, dim, k, sums, counts)
				// Copy-out of the partials.
				out <- partial{append([]float64(nil), sums...), append([]int64(nil), counts...)}
			}()
		}
		sums := make([]float64, k*dim)
		counts := make([]int64, k)
		for e := 0; e < executors; e++ {
			p := <-out
			for i := range sums {
				sums[i] += p.sums[i]
			}
			for i := range counts {
				counts[i] += p.counts[i]
			}
		}
		centers = newCenters(sums, counts, centers, dim, k)
	}
	return centers
}

func initialCenters(points []float64, dim, k int) []float64 {
	centers := make([]float64, k*dim)
	copy(centers, points[:min(len(points), k*dim)])
	return centers
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// assignRange accumulates cluster sums/counts for a point range.
func assignRange(pts, centers []float64, dim, k int, sums []float64, counts []int64) {
	n := len(pts) / dim
	for p := 0; p < n; p++ {
		best, bestD := 0, math.MaxFloat64
		for c := 0; c < k; c++ {
			d := 0.0
			for j := 0; j < dim; j++ {
				diff := pts[p*dim+j] - centers[c*dim+j]
				d += diff * diff
			}
			if d < bestD {
				best, bestD = c, d
			}
		}
		for j := 0; j < dim; j++ {
			sums[best*dim+j] += pts[p*dim+j]
		}
		counts[best]++
	}
}

func newCenters(sums []float64, counts []int64, old []float64, dim, k int) []float64 {
	centers := make([]float64, k*dim)
	for c := 0; c < k; c++ {
		if counts[c] == 0 {
			copy(centers[c*dim:(c+1)*dim], old[c*dim:(c+1)*dim])
			continue
		}
		for j := 0; j < dim; j++ {
			centers[c*dim+j] = sums[c*dim+j] / float64(counts[c])
		}
	}
	return centers
}
