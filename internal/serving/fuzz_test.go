package serving

import (
	"testing"

	"repro/internal/check"
	"repro/internal/kv"
	"repro/internal/layout"
	"repro/internal/shm"
)

// FuzzDispatch feeds arbitrary (function, payload) pairs to a worker's
// handler — the bytes a hostile or confused peer can put in a well-framed
// request — on a small heap pool holding a few keys: every request ends in
// a response or an error, never a panic, and the pool validates clean.
func FuzzDispatch(f *testing.F) {
	req := func(words ...uint64) []byte {
		b := make([]byte, 8*len(words))
		for i, w := range words {
			putU64(b[8*i:], w)
		}
		return b
	}
	f.Add(FnPing, []byte(nil))
	f.Add(FnGet, req(3))
	f.Add(FnGet, req(3)[:5])
	f.Add(FnPut, append(req(3), "a value"...))
	f.Add(FnPut, append(req(1<<40), make([]byte, 100)...))
	f.Add(FnScan, req(0, 8))
	f.Add(FnScan, req(1<<63, 1<<63))
	f.Add(FnTakeover, req(1))
	f.Add(FnTakeover, req(1<<62))
	f.Add(FnStats, []byte(nil))
	f.Add(FnQuit, []byte("ignored"))
	f.Add(uint64(99), []byte(nil))

	f.Fuzz(func(t *testing.T, fn uint64, payload []byte) {
		cfg := ChaosConfig{Workers: 2, Keys: 16, ValSize: 32}
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
		st, err := kv.Create(c, 0, 64, cfg.ValSize, cfg.Workers)
		if err != nil {
			t.Fatal(err)
		}
		val := make([]byte, cfg.ValSize)
		for k := uint64(0); k < uint64(cfg.Keys); k++ {
			valFor(k, val)
			if err := st.Put(k, val); err != nil {
				t.Fatal(err)
			}
		}
		w, err := StartWorker(p, WorkerConfig{Partitions: []int{0}})
		if err != nil {
			t.Fatal(err)
		}
		// handle is dispatch under the worker's mutex, which the heartbeat
		// goroutine shares.
		resp, err := w.handle(fn, payload)
		if err != nil && resp != nil {
			t.Fatalf("fn %d: both a %d-byte response and the error %v", fn, len(resp), err)
		}
		if err := w.Stop(); err != nil {
			t.Fatal(err)
		}
		st.Close()
		c.Close()
		if res := check.Validate(p); !res.Clean() {
			t.Fatalf("fn %d payload %x: pool not clean: %v", fn, payload, res.Issues)
		}
	})
}
