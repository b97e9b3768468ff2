package main

import (
	"path/filepath"
	"testing"

	"repro/internal/cxl"
	"repro/internal/faultinject"
	"repro/internal/kv"
	"repro/internal/layout"
	"repro/internal/recovery"
	"repro/internal/shm"
)

// A stale image whose recovery executor was cut mid-pass: the executor's
// slot stayed ALIVE and holds the recovery claim of the victim, whose cid is
// lower. -open must recover the executor before the victim (whose claim is
// stealable only then), read every key back and audit the pool clean.
func TestOpenRecoversClaimHolderFirst(t *testing.T) {
	const keys = 50
	path := filepath.Join(t.TempDir(), "stale.cxl")
	sw := faultinject.NewAccessSweeper()
	pool, err := shm.NewPool(shm.Config{Geometry: layout.GeometryConfig{
		MaxClients: 8, NumSegments: 64, SegmentWords: 1 << 14, PageWords: 1 << 10,
	}, File: path, Intercept: cxl.Intercept{Access: sw.Hook}})
	if err != nil {
		t.Fatal(err)
	}
	victim, err := pool.Connect()
	if err != nil {
		t.Fatal(err)
	}
	s, err := kv.Create(victim, 0, 1024, 32, 1)
	if err != nil {
		t.Fatal(err)
	}
	val := make([]byte, 32)
	for k := 0; k < keys; k++ {
		val[0], val[1] = byte(k), byte(k>>8)
		if err := s.Put(uint64(k), val); err != nil {
			t.Fatal(err)
		}
	}
	svc, err := recovery.NewService(pool)
	if err != nil {
		t.Fatal(err)
	}
	exec := svc.Executor()
	if exec.ID() <= victim.ID() {
		t.Fatalf("executor cid %d, victim %d: want the victim's below", exec.ID(), victim.ID())
	}
	if err := pool.MarkClientDead(victim.ID()); err != nil {
		t.Fatal(err)
	}
	sw.Arm(20)
	crash := faultinject.Run(func() { _, _ = svc.RecoverClient(victim.ID()) })
	sw.Disarm()
	if crash == nil {
		t.Fatal("the recovery pass finished before its 20th write")
	}
	claim := pool.Device().Load(pool.Geometry().ClientClaimAddr(victim.ID()))
	if holder, _ := layout.UnpackLease(claim); holder != exec.ID() {
		t.Fatalf("victim's claim word %#x, want one held by executor %d", claim, exec.ID())
	}
	if s := pool.ClientStatus(exec.ID()); s != layout.ClientAlive {
		t.Fatalf("executor status %d, want ALIVE", s)
	}
	if err := pool.Device().Sync(); err != nil {
		t.Fatal(err)
	}
	if err := pool.CloseDevice(); err != nil {
		t.Fatal(err)
	}
	if err := doOpen(path); err != nil {
		t.Fatal(err)
	}
}
