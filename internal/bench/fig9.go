package bench

import (
	"fmt"
	"io"
	"time"

	"repro/internal/layout"
	"repro/internal/mapreduce"
	"repro/internal/shm"
	"repro/internal/workload"
)

// Fig9Row is one (system, workload, executors) point of Figure 9.
type Fig9Row struct {
	System    string // "CXL-MR" or "Phoenix*"
	Workload  string // "wordcount" or "kmeans"
	Executors int
	Elapsed   time.Duration
}

// Fig9 runs CXL-MapReduce against the pass-by-value baseline on word count
// and kmeans for each executor count (paper Figure 9).
func Fig9(scale Scale, executorCounts []int) ([]Fig9Row, error) {
	textBytes := scale.N(1 << 20) // paper: 1 GB; scaled
	text := workload.Text(textBytes, 5000, 42)
	nPoints := scale.N(20_000) // paper: 500k × 8-dim, 1k clusters; scaled
	const dim, k, iters = 8, 16, 3
	pts := workload.Points(nPoints, dim, k, 42)

	var rows []Fig9Row
	for _, ex := range executorCounts {
		pool, err := mrPool(ex)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if _, err := mapreduce.WordCountCXL(pool, text, ex); err != nil {
			return nil, err
		}
		rows = append(rows, Fig9Row{"CXL-MR", "wordcount", ex, time.Since(start)})

		start = time.Now()
		mapreduce.WordCountValue(text, ex)
		rows = append(rows, Fig9Row{"Phoenix*", "wordcount", ex, time.Since(start)})

		pool, err = mrPool(ex)
		if err != nil {
			return nil, err
		}
		start = time.Now()
		if _, err := mapreduce.KMeansCXL(pool, pts, dim, k, iters, ex); err != nil {
			return nil, err
		}
		rows = append(rows, Fig9Row{"CXL-MR", "kmeans", ex, time.Since(start)})

		start = time.Now()
		mapreduce.KMeansValue(pts, dim, k, iters, ex)
		rows = append(rows, Fig9Row{"Phoenix*", "kmeans", ex, time.Since(start)})
	}
	return rows, nil
}

func mrPool(executors int) (*shm.Pool, error) {
	return shm.NewPool(shm.Config{Geometry: layout.GeometryConfig{
		MaxClients:   executors + 6,
		NumSegments:  4*executors + 64,
		SegmentWords: 1 << 16,
		PageWords:    1 << 12,
		MaxQueues:    4*executors + 8,
	}})
}

// PrintFig9 renders Figure 9 rows.
func PrintFig9(w io.Writer, rows []Fig9Row) {
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = []string{r.Workload, fmt.Sprint(r.Executors), r.System,
			r.Elapsed.Round(time.Microsecond).String()}
	}
	PrintTable(w, []string{"Workload", "Executors", "System", "Time"}, out)
}
