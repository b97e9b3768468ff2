package recovery_test

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/layout"
	"repro/internal/recovery"
	"repro/internal/shm"
)

// TestZombieStaysFencedAfterSlotReuse: a client declared dead stays fenced
// after recovery hands its slot to a new lessee. The old incarnation z — a
// process paused past the grace period — wakes once the new client n holds
// its cid, and writes into another client's live object, allocates, writes
// into n's object, heartbeats and closes. None of it may reach the pool (PAPER
// §3.2: a failed client "cannot modify the shared memory pool after its
// recovery has started"), and n must go on undisturbed.
func TestZombieStaysFencedAfterSlotReuse(t *testing.T) {
	for _, backend := range []string{"heap", "mmap"} {
		t.Run(backend, func(t *testing.T) {
			// Three slots: o, z and the recovery executor, so the next
			// Connect can only take z's.
			p, err := shm.NewPool(shm.Config{
				Backend: backend,
				Geometry: layout.GeometryConfig{
					MaxClients: 3, NumSegments: 16, SegmentWords: 1 << 13,
					PageWords: 1 << 9, MaxQueues: 8,
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer p.CloseDevice()
			o := connect(t, p)
			z := connect(t, p)
			svc, err := recovery.NewService(p)
			if err != nil {
				t.Fatal(err)
			}
			want := []byte("o's bytes, written before the fence")
			_, ob, err := o.Malloc(len(want), 0)
			if err != nil {
				t.Fatal(err)
			}
			o.WriteData(ob, 0, want)

			if err := p.MarkClientDead(z.ID()); err != nil {
				t.Fatal(err)
			}
			if _, err := svc.RecoverClient(z.ID()); err != nil {
				t.Fatal(err)
			}
			n := connect(t, p)
			if n.ID() != z.ID() {
				t.Fatalf("the new lessee took slot %d, want the zombie's %d", n.ID(), z.ID())
			}
			geo := p.Geometry()
			beat := p.Device().Load(geo.ClientHeartbeatAddr(n.ID()))

			z.WriteData(ob, 0, []byte("ZOMBIE WROTE THIS AFTER FENCE..."))
			got := make([]byte, len(want))
			o.ReadData(ob, 0, got)
			if !bytes.Equal(got, want) {
				t.Fatalf("the zombie's write landed in o's block: %q", got)
			}
			for i := 0; i < 50; i++ {
				if _, _, err := z.Malloc(64, 0); !errors.Is(err, shm.ErrFenced) {
					t.Fatalf("zombie malloc %d after slot reuse: err=%v, want ErrFenced", i, err)
				}
			}
			if !z.Fenced() {
				t.Fatal("the zombie reports itself unfenced after its slot was re-leased")
			}
			if n.Fenced() {
				t.Fatal("the new lessee starts fenced")
			}

			// The new lessee's writes land; the zombie's into the same
			// object, into the slot's heartbeat and its Close do not.
			nr, nb, err := n.Malloc(64, 0)
			if err != nil {
				t.Fatalf("new lessee malloc: %v", err)
			}
			n.StoreWord(nb, 0, 0x1ea5e)
			z.StoreWord(nb, 0, 0xdead)
			if got := n.LoadWord(nb, 0); got != 0x1ea5e {
				t.Fatalf("new lessee's word is %#x after the zombie's store, want 0x1ea5e", got)
			}
			z.Heartbeat()
			if got := p.Device().Load(geo.ClientHeartbeatAddr(n.ID())); got != beat {
				t.Fatalf("the zombie's heartbeat moved the new lessee's from %d to %d", beat, got)
			}
			if err := z.Close(); err != nil {
				t.Fatalf("zombie close: %v", err)
			}
			if st := p.ClientStatus(n.ID()); st != layout.ClientAlive || n.Fenced() {
				t.Fatalf("the zombie's Close reached the new lessee: status %d, fenced %v", st, n.Fenced())
			}
			if _, err := n.ReleaseRoot(nr); err != nil {
				t.Fatal(err)
			}
			mustClean(t, p, backend)
		})
	}
}
