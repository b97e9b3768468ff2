package mapreduce

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/layout"
	"repro/internal/shm"
	"repro/internal/workload"
)

func newPool(t *testing.T) *shm.Pool { return newPoolSegments(t, 64) }

func newPoolSegments(t *testing.T, segments int) *shm.Pool {
	t.Helper()
	p, err := shm.NewPool(shm.Config{Geometry: layout.GeometryConfig{
		MaxClients: 16, NumSegments: segments, SegmentWords: 1 << 14, PageWords: 1 << 10,
	}})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func referenceCounts(text string) map[uint64]int64 {
	return countWords(text)
}

func TestSplitTextPreservesWords(t *testing.T) {
	text := "alpha beta gamma delta epsilon zeta eta theta"
	for _, n := range []int{1, 2, 3, 8, 100} {
		chunks := splitText(text, n)
		joined := ""
		for i, c := range chunks {
			if i > 0 {
				joined += " "
			}
			joined += c
		}
		want := referenceCounts(text)
		got := referenceCounts(joined)
		if len(got) != len(want) {
			t.Fatalf("n=%d: vocabulary changed", n)
		}
		for k, v := range want {
			if got[k] != v {
				t.Fatalf("n=%d: count mismatch", n)
			}
		}
	}
}

func TestWordCountValueMatchesReference(t *testing.T) {
	text := workload.Text(20000, 200, 1)
	want := referenceCounts(text)
	got := WordCountValue(text, 4)
	if len(got) != len(want) {
		t.Fatalf("vocab %d, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("count mismatch for %d: %d vs %d", k, got[k], v)
		}
	}
}

func TestWordCountCXLMatchesReference(t *testing.T) {
	p := newPool(t)
	text := workload.Text(20000, 200, 2)
	want := referenceCounts(text)
	got, err := WordCountCXL(p, text, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("vocab %d, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("count mismatch for %d: %d vs %d", k, got[k], v)
		}
	}
	// No leaks: all splits, results, and queues reclaimed (executors closed;
	// run recovery-free validation after registry sweep).
	p.SweepQueueRegistry()
	res := check.Validate(p)
	// Executors exited via Close (marked dead) — their segments may be
	// awaiting recovery; allocated objects should nevertheless be zero
	// because the workload released everything explicitly.
	if res.AllocatedObjects != 0 {
		for _, is := range res.Issues {
			t.Logf("validate: %s", is)
		}
		t.Fatalf("wordcount leaked %d objects", res.AllocatedObjects)
	}
}

// TestJobStopsWhenEitherSideFails runs word count on pools too small for it,
// in 128 KiB segments, where every split is a huge object. With 2 executors
// and 8 segments the coordinator cannot store its second 512 KiB split (5
// segments each). With 1 executor and 6 segments the coordinator's segment,
// its 4 splits of 30 000 distinct words (1 segment each) and the executor's
// segment all fit, but a split's count table (4 segments) never does. Either
// way WordCountCXL must return the allocation failure within seconds, name
// the side that failed, and leave no goroutine behind.
func TestJobStopsWhenEitherSideFails(t *testing.T) {
	const digits = "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
	distinct := make([]byte, 0, 4*120000)
	for i := 0; i < 120000; i++ {
		distinct = append(distinct, digits[i/62/62], digits[i/62%62], digits[i%62], ' ')
	}
	for _, tc := range []struct {
		side                string
		executors, segments int
		text                string
	}{
		{"coordinator", 2, 8, workload.Text(4<<20, 200, 3)},
		{"executor", 1, 6, string(distinct)},
	} {
		t.Run(fmt.Sprintf("%s-%dseg", tc.side, tc.segments), func(t *testing.T) {
			base := runtime.NumGoroutine()
			p := newPoolSegments(t, tc.segments)
			done := make(chan error, 1)
			go func() {
				_, err := WordCountCXL(p, tc.text, tc.executors)
				done <- err
			}()
			select {
			case err := <-done:
				if !errors.Is(err, shm.ErrOutOfMemory) {
					t.Fatalf("WordCountCXL: %v, want %v", err, shm.ErrOutOfMemory)
				}
				if got := strings.Contains(err.Error(), "executor"); got != (tc.side == "executor") {
					t.Fatalf("error %q: want the %s side's failure", err, tc.side)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("WordCountCXL did not return within 5 s")
			}
			for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines still running after the job, %d before", runtime.NumGoroutine(), base)
				}
			}
		})
	}
}

func TestKMeansValueConverges(t *testing.T) {
	pts := workload.Points(600, 4, 3, 7)
	centers := KMeansValue(pts, 4, 3, 10, 2)
	if len(centers) != 12 {
		t.Fatalf("centers len %d", len(centers))
	}
	assertLowInertia(t, pts, centers, 4, 3)
}

func TestKMeansCXLMatchesValueBaseline(t *testing.T) {
	p := newPool(t)
	pts := workload.Points(600, 4, 3, 7)
	want := KMeansValue(pts, 4, 3, 10, 2)
	got, err := KMeansCXL(p, pts, 4, 3, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(want[i]-got[i]) > 1e-6 {
			t.Fatalf("center %d: %v vs %v", i, got[i], want[i])
		}
	}
	p.SweepQueueRegistry()
	res := check.Validate(p)
	if res.AllocatedObjects != 0 {
		for _, is := range res.Issues {
			t.Logf("validate: %s", is)
		}
		t.Fatalf("kmeans leaked %d objects", res.AllocatedObjects)
	}
}

func TestKMeansExecutorCountInvariance(t *testing.T) {
	pts := workload.Points(500, 3, 4, 9)
	a := KMeansValue(pts, 3, 4, 5, 1)
	b := KMeansValue(pts, 3, 4, 5, 4)
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-6 {
			t.Fatalf("executor count changed the result at %d", i)
		}
	}
}

func assertLowInertia(t *testing.T, pts, centers []float64, dim, k int) {
	t.Helper()
	n := len(pts) / dim
	var inertia float64
	for p := 0; p < n; p++ {
		best := math.MaxFloat64
		for c := 0; c < k; c++ {
			d := 0.0
			for j := 0; j < dim; j++ {
				diff := pts[p*dim+j] - centers[c*dim+j]
				d += diff * diff
			}
			if d < best {
				best = d
			}
		}
		inertia += best
	}
	// Points are generated with σ=5 around true centers: per-point squared
	// distance should be around dim*25; allow generous slack for cluster
	// merges with k < true k.
	if avg := inertia / float64(n); avg > 50000 {
		t.Fatalf("kmeans did not converge: avg inertia %v", avg)
	}
}
