package serving

import (
	"testing"
	"time"

	"repro/internal/kv"
	"repro/internal/layout"
	"repro/internal/netrpc"
	"repro/internal/shm"
)

// TestReadsRunOffTheWriterLock: GET and SCAN answer while the worker's
// writer lock is held, and a PUT that finds it held is counted, with its
// wait, in WorkerStats.
func TestReadsRunOffTheWriterLock(t *testing.T) {
	p, err := shm.NewPool(shm.Config{Geometry: layout.GeometryConfig{
		MaxClients: 8, NumSegments: 32, SegmentWords: 1 << 13, PageWords: 1 << 9,
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer p.CloseDevice()
	c, err := p.Connect()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	st, err := kv.Create(c, 0, 64, 32, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Put(3, []byte("three")); err != nil {
		t.Fatal(err)
	}
	w, err := StartWorker(p, WorkerConfig{Partitions: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Stop()
	dial := func() *Conn {
		conn, err := DialWorker(w.Addr(), netrpc.Config{ReadTimeout: 5 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		return conn
	}
	reads, writes := dial(), dial()

	w.mu.Lock()
	done := make(chan error, 1)
	go func() {
		if _, found, err := reads.Get(3); err != nil || !found {
			done <- err
			return
		}
		_, err := reads.Scan(0, 8)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			w.mu.Unlock()
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		w.mu.Unlock()
		t.Fatal("GET/SCAN waited on the writer lock")
	}

	ops := w.ops.Load()
	put := make(chan error, 1)
	go func() { put <- writes.Put(3, []byte("THREE")) }()
	for w.ops.Load() == ops {
		time.Sleep(100 * time.Microsecond)
	}
	const held = 20 * time.Millisecond
	time.Sleep(held)
	w.mu.Unlock()
	if err := <-put; err != nil {
		t.Fatal(err)
	}
	stats, err := reads.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.LockWaits < 1 || time.Duration(stats.LockWaitNS) < held/2 {
		t.Fatalf("lock waits %d totalling %v, want the PUT's wait of about %v",
			stats.LockWaits, time.Duration(stats.LockWaitNS), held)
	}
}
