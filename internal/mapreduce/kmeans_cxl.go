package mapreduce

import (
	"fmt"
	"math"

	"repro/internal/layout"
	"repro/internal/shm"
)

// KMeansCXL runs iters Lloyd iterations over the shared pool: each
// executor's point range is stored in shared memory once and attached once
// by its executor, which loads it once; only the (tiny) centers object and
// partial-sum object references move per iteration. This is the
// pass-by-reference advantage Figure 9 quantifies — the value baseline
// re-copies the ranges every iteration.
func KMeansCXL(p *shm.Pool, points []float64, dim, k, iters, executors int) ([]float64, error) {
	j, err := newJob(p)
	if err != nil {
		return nil, err
	}
	// Store each executor's range as a shared object: word 0 = point count,
	// then count*dim float64 bit patterns.
	c := j.coord.c
	n := len(points) / dim
	per := (n + executors - 1) / executors
	ranges := make([]layout.Addr, executors)
	for e := range ranges {
		lo, hi := min(e*per, n), min((e+1)*per, n)
		if ranges[e], err = j.coord.hold(c.Malloc((1+(hi-lo)*dim)*layout.WordBytes, 0)); err != nil {
			return nil, j.close(fmt.Errorf("mapreduce: range %d: %w", e, err))
		}
		c.StoreWord(ranges[e], 0, uint64(hi-lo))
		for i, v := range points[lo*dim : hi*dim] {
			c.StoreWord(ranges[e], 1+i, math.Float64bits(v))
		}
	}
	if err := j.start(p, executors, func(e int, x *executor) (mapper, error) {
		ec := x.c
		rr, err := ec.AttachRoot(ranges[e])
		if err != nil {
			return nil, err
		}
		x.roots = append(x.roots, rr)
		pts := make([]float64, int(ec.LoadWord(ranges[e], 0))*dim)
		for i := range pts {
			pts[i] = math.Float64frombits(ec.LoadWord(ranges[e], 1+i))
		}
		centers := make([]float64, k*dim)
		sums := make([]float64, k*dim)
		counts := make([]int64, k)
		return func(centersObj layout.Addr) (root, part layout.Addr, err error) {
			for i := range centers {
				centers[i] = math.Float64frombits(ec.LoadWord(centersObj, i))
			}
			clear(sums)
			clear(counts)
			assignRange(pts, centers, dim, k, sums, counts)
			// Partial object: k*dim sums then k counts.
			if root, part, err = ec.Malloc((k*dim+k)*layout.WordBytes, 0); err != nil {
				return 0, 0, err
			}
			for i, s := range sums {
				ec.StoreWord(part, i, math.Float64bits(s))
			}
			for i, cn := range counts {
				ec.StoreWord(part, k*dim+i, uint64(cn))
			}
			return root, part, nil
		}, nil
	}); err != nil {
		return nil, j.close(err)
	}

	centers := initialCenters(points, dim, k)
	for it := 0; it < iters; it++ {
		// Broadcast the centers: one shared object per executor.
		for _, x := range j.execs {
			root, obj, err := c.Malloc(k*dim*layout.WordBytes, 0)
			if err == nil {
				for i, cv := range centers {
					c.StoreWord(obj, i, math.Float64bits(cv))
				}
				err = j.send(c, x.work, root, obj)
			}
			if err != nil {
				return nil, j.close(err)
			}
		}
		sums := make([]float64, k*dim)
		counts := make([]int64, k)
		if err := j.gather(executors, func(part layout.Addr) {
			for i := range sums {
				sums[i] += math.Float64frombits(c.LoadWord(part, i))
			}
			for i := range counts {
				counts[i] += int64(c.LoadWord(part, k*dim+i))
			}
		}); err != nil {
			return nil, j.close(err)
		}
		centers = newCenters(sums, counts, centers, dim, k)
	}
	if err := j.close(nil); err != nil {
		return nil, err
	}
	return centers, nil
}
