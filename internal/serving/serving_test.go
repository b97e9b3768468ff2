package serving_test

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/kv"
	"repro/internal/netrpc"
	"repro/internal/recovery"
	"repro/internal/serving"
	"repro/internal/shm"
)

func newServingPool(t *testing.T, cfg serving.ChaosConfig) *shm.Pool {
	t.Helper()
	p, err := shm.NewPool(shm.Config{Geometry: serving.SizeGeometry(cfg)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.CloseDevice() })
	return p
}

// startStore creates the kv index and two workers owning partitions 0/1.
func startStore(t *testing.T, p *shm.Pool, keys, valSize int) (w0, w1 *serving.Worker) {
	t.Helper()
	c, err := p.Connect()
	if err != nil {
		t.Fatal(err)
	}
	st, err := kv.Create(c, 0, 1024, valSize, 2)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, valSize)
	for k := 0; k < keys; k++ {
		for i := range buf {
			buf[i] = byte(k + i)
		}
		if err := st.Put(uint64(k), buf); err != nil {
			t.Fatal(err)
		}
	}
	// The creator stays open (and unenforcing: it holds no partition
	// lease) so this test needs no recovery service.
	t.Cleanup(func() { st.Close(); c.Close() })
	mk := func(part int) *serving.Worker {
		w, err := serving.StartWorker(p, serving.WorkerConfig{
			Partitions: []int{part},
			Net:        netrpc.Config{ReadTimeout: 5 * time.Second, WriteTimeout: 5 * time.Second},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { w.Stop() })
		return w
	}
	return mk(0), mk(1)
}

func TestServingRoundTrip(t *testing.T) {
	cfg := serving.ChaosConfig{Workers: 2, Keys: 500, ValSize: 32}
	p := newServingPool(t, cfg)
	w0, _ := startStore(t, p, 500, 32)

	conn, err := serving.DialWorker(w0.Addr(), netrpc.Config{ReadTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	if cid, err := conn.Ping(); err != nil || cid != w0.CID() {
		t.Fatalf("ping: cid=%d err=%v, want %d", cid, err, w0.CID())
	}

	val, found, err := conn.Get(7)
	if err != nil || !found {
		t.Fatalf("get 7: found=%v err=%v", found, err)
	}
	if len(val) != 32 || val[0] != 7 || val[1] != 8 {
		t.Fatalf("get 7: bad value %v", val[:4])
	}
	if _, found, err = conn.Get(999999); err != nil || found {
		t.Fatalf("get missing: found=%v err=%v", found, err)
	}

	n, err := conn.Scan(0, 100)
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	if n != 100 {
		t.Fatalf("scan returned %d records, want 100", n)
	}

	st, err := conn.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.CID != w0.CID() || st.Buckets != 1024 || st.Writers != 2 || st.ValSize != 32 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestServingWriteOwnership pins the single-writer rule through the wire:
// a put for a partition the worker does not own comes back as a
// *netrpc.ServerError, not a success and not a dropped connection.
func TestServingWriteOwnership(t *testing.T) {
	cfg := serving.ChaosConfig{Workers: 2, Keys: 100, ValSize: 32}
	p := newServingPool(t, cfg)
	w0, w1 := startStore(t, p, 100, 32)

	conn0, err := serving.DialWorker(w0.Addr(), netrpc.Config{ReadTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer conn0.Close()

	// Find one key in each partition.
	key0, key1 := uint64(0), uint64(0)
	for k := uint64(0); ; k++ {
		if kv.Partition(k, 1024, 2) == 0 {
			key0 = k
			break
		}
	}
	for k := uint64(0); ; k++ {
		if kv.Partition(k, 1024, 2) == 1 {
			key1 = k
			break
		}
	}

	val := make([]byte, 32)
	if err := conn0.Put(key0, val); err != nil {
		t.Fatalf("put own partition: %v", err)
	}
	err = conn0.Put(key1, val)
	var se *netrpc.ServerError
	if !errors.As(err, &se) {
		t.Fatalf("put foreign partition: err=%v, want *netrpc.ServerError", err)
	}
	// The connection must survive the refused write.
	if _, err := conn0.Ping(); err != nil {
		t.Fatalf("connection dead after refused write: %v", err)
	}

	// Takeover moves ownership once partition 1's writer can no longer
	// write: refused as pending while worker 1 lives, granted after it is
	// stopped and recovered. The same put then succeeds.
	if err := conn0.Takeover(1); !errors.Is(err, serving.ErrTakeoverPending) {
		t.Fatalf("takeover from a live writer: %v, want ErrTakeoverPending", err)
	}
	cid1 := w1.CID()
	if err := w1.Stop(); err != nil {
		t.Fatal(err)
	}
	svc, err := recovery.NewService(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.RecoverClient(cid1); err != nil {
		t.Fatal(err)
	}
	if err := conn0.Takeover(1); err != nil {
		t.Fatalf("takeover: %v", err)
	}
	if err := conn0.Put(key1, val); err != nil {
		t.Fatalf("put after takeover: %v", err)
	}
	// A partition the store does not have is a plain error, not a retry.
	if err := conn0.Takeover(2); err == nil || errors.Is(err, serving.ErrTakeoverPending) {
		t.Fatalf("takeover of a partition the store lacks: %v, want a non-retriable error", err)
	}
}

// TestServingBackToBackPuts pins the handler side of netrpc's buffer
// reuse: the second PUT arrives in the bytes the first one came in, so the
// store must have copied the first value before its handler returned.
func TestServingBackToBackPuts(t *testing.T) {
	cfg := serving.ChaosConfig{Workers: 2, Keys: 100, ValSize: 32}
	p := newServingPool(t, cfg)
	w0, _ := startStore(t, p, 0, 32)
	conn, err := serving.DialWorker(w0.Addr(), netrpc.Config{ReadTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	var keys [2]uint64 // two keys of worker 0's partition
	for k, n := uint64(1000), 0; n < len(keys); k++ {
		if kv.Partition(k, 1024, 2) == 0 {
			keys[n] = k
			n++
		}
	}
	vals := [2][]byte{bytes.Repeat([]byte{0x11}, 32), bytes.Repeat([]byte{0xEE}, 32)}
	for i, k := range keys {
		if err := conn.Put(k, vals[i]); err != nil {
			t.Fatalf("put %d: %v", k, err)
		}
	}
	for i, k := range keys {
		got, found, err := conn.Get(k)
		if err != nil || !found || !bytes.Equal(got, vals[i]) {
			t.Fatalf("get %d after back-to-back puts: %x found=%v err=%v, want %x", k, got, found, err, vals[i])
		}
	}
}

// TestFencedWorkerRefusesWrites is the acknowledged-but-dropped write: a
// worker fenced while it keeps serving (a paused process the monitor gave up
// on, resumed) has every store swallowed by the device. A PUT through the
// zombie must come back as an error — update and insert alike — and the
// survivor that takes its partition over must still read the old value. In
// the slot-reuse case the zombie tries nothing until it has been recovered
// and a new client leases its slot: the fence must outlive the lease.
func TestFencedWorkerRefusesWrites(t *testing.T) {
	for _, reuse := range []bool{false, true} {
		for _, backend := range []string{"heap", "mmap"} {
			name := "fenced/" + backend
			if reuse {
				name = "slot-reuse/" + backend
			}
			t.Run(name, func(t *testing.T) { fencedWorkerStory(t, backend, reuse) })
		}
	}
}

func fencedWorkerStory(t *testing.T, backend string, reuse bool) {
	cfg := serving.ChaosConfig{Workers: 2, Keys: 100, ValSize: 32}
	pcfg := shm.Config{Geometry: serving.SizeGeometry(cfg), Backend: backend}
	if backend == "mmap" {
		pcfg.File = filepath.Join(t.TempDir(), "pool.cxl")
	}
	p, err := shm.NewPool(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.CloseDevice() })
	w0, w1 := startStore(t, p, 100, 32)
	net := netrpc.Config{ReadTimeout: 5 * time.Second}
	zombie, err := serving.DialWorker(w0.Addr(), net)
	if err != nil {
		t.Fatal(err)
	}
	defer zombie.Close()
	survivor, err := serving.DialWorker(w1.Addr(), net)
	if err != nil {
		t.Fatal(err)
	}
	defer survivor.Close()

	var old, fresh uint64 // a preloaded and a never-written key of partition 0
	for k := uint64(0); kv.Partition(k, 1024, 2) != 0; k++ {
		old = k + 1
	}
	for fresh = 5000; kv.Partition(fresh, 1024, 2) != 0; fresh++ {
	}
	want, _, err := survivor.Get(old)
	if err != nil {
		t.Fatal(err)
	}
	want = bytes.Clone(want)

	// Fenced but still the partition's recorded writer: the ownership check
	// passes, only the fence can refuse the write.
	fenced := func(what string, err error) {
		t.Helper()
		var se *netrpc.ServerError
		if !errors.As(err, &se) || !strings.Contains(se.Msg, shm.ErrFenced.Error()) {
			t.Fatalf("%s through the fenced worker: err=%v, want %q", what, err, shm.ErrFenced)
		}
	}
	val := bytes.Repeat([]byte{0xAB}, 32)
	puts := func() {
		for _, k := range []uint64{old, fresh} {
			fenced(fmt.Sprintf("put %d", k), zombie.Put(k, val))
		}
	}
	if err := p.MarkClientDead(w0.CID()); err != nil {
		t.Fatal(err)
	}
	if !reuse {
		puts()
	}
	// The fenced writer's partition moves only after its recovery.
	if err := survivor.Takeover(0); !errors.Is(err, serving.ErrTakeoverPending) {
		t.Fatalf("takeover before recovery: %v, want ErrTakeoverPending", err)
	}
	svc, err := recovery.NewService(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.RecoverClient(w0.CID()); err != nil {
		t.Fatal(err)
	}
	if reuse {
		c, err := p.Connect()
		if err != nil {
			t.Fatal(err)
		}
		if c.ID() != w0.CID() {
			t.Fatalf("the new lessee took slot %d, want the fenced worker's %d", c.ID(), w0.CID())
		}
		puts()
	}
	if err := survivor.Takeover(0); err != nil {
		t.Fatalf("takeover: %v", err)
	}
	if got, found, err := survivor.Get(old); err != nil || !found || !bytes.Equal(got, want) {
		t.Fatalf("survivor reads key %d: %x found=%v err=%v, want the old value %x", old, got, found, err, want)
	}
	if _, found, err := survivor.Get(fresh); err != nil || found {
		t.Fatalf("survivor reads key %d: found=%v err=%v, want not found", fresh, found, err)
	}
	// A fenced worker stops answering altogether: its reads would be stale.
	_, _, err = zombie.Get(old)
	fenced("get", err)
	select {
	case <-w0.QuitRequested():
	default:
		t.Fatal("the fenced worker does not ask to quit")
	}
}

// TestServingTornReads: one connection rewrites a key of worker 0's
// partition in place, alternating two values that differ in every byte,
// while GETs on the same worker — served off its writer lock, beside its
// PUTs — and a kv reader on another client read the key. Every read must
// return one of the two values, never a mix. The writer goes on past its
// 5000 PUTs until every reader has read, for at most half a minute, and the
// in-process reader sleeps every 64th read: with one P, a goroutine that
// never blocks leaves the network poller to the runtime's 10 ms monitor, and
// every hop of a PUT would wait for it.
func TestServingTornReads(t *testing.T) {
	const valSize = 256
	cfg := serving.ChaosConfig{Workers: 2, Keys: 100, ValSize: valSize}
	p := newServingPool(t, cfg)
	w0, _ := startStore(t, p, 100, valSize)
	var key uint64
	for kv.Partition(key, 1024, 2) != 0 {
		key++
	}
	a, b := bytes.Repeat([]byte{0xAA}, valSize), bytes.Repeat([]byte{0x55}, valSize)
	dial := func() *serving.Conn {
		conn, err := serving.DialWorker(w0.Addr(), netrpc.Config{ReadTimeout: 5 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		return conn
	}
	writer := dial()
	if err := writer.Put(key, a); err != nil {
		t.Fatal(err)
	}
	c, err := p.Connect()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	st, err := kv.Open(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	var stop atomic.Bool
	var wg sync.WaitGroup
	var reads [3]atomic.Int64
	errs := make(chan error, 3)
	reader := func(r int, who string, get func() ([]byte, error)) {
		defer wg.Done()
		for ; !stop.Load(); reads[r].Add(1) {
			val, err := get()
			if err != nil {
				errs <- fmt.Errorf("%s: %v", who, err)
				return
			}
			if !bytes.Equal(val, a) && !bytes.Equal(val, b) {
				errs <- fmt.Errorf("%s read a torn value: % x", who, val)
				return
			}
		}
	}
	wg.Add(3)
	for i := 0; i < 2; i++ {
		conn := dial()
		go reader(i, "a GET on the writing worker", func() ([]byte, error) {
			val, found, err := conn.Get(key)
			if err == nil && !found {
				err = errors.New("key not found")
			}
			return val, err
		})
	}
	buf := make([]byte, valSize)
	go reader(2, "another client's kv Get", func() ([]byte, error) {
		if reads[2].Load()%64 == 63 {
			time.Sleep(time.Microsecond)
		}
		_, err := st.Get(key, buf)
		return buf, err
	})
	allRead := func() bool {
		return reads[0].Load() > 0 && reads[1].Load() > 0 && reads[2].Load() > 0
	}
	deadline := time.Now().Add(30 * time.Second)
	for i := 0; len(errs) == 0; i++ {
		if i >= 5000 && (allRead() || time.Now().After(deadline)) {
			break
		}
		val := a
		if i%2 == 0 {
			val = b
		}
		if err := writer.Put(key, val); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if !allRead() {
		t.Errorf("a reader returned no value: %d, %d and %d reads", reads[0].Load(), reads[1].Load(), reads[2].Load())
	}
}
