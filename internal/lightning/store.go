package lightning

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cxl"
)

// Store is the Lightning-style object store: a shared directory of objects
// guarded by per-bucket spinlocks, a lock-based buddy allocator, and a
// per-client undo log. Its recovery is blocking: detecting a dead client
// stops the world (a global write lock), rolls back the client's in-flight
// operation, and releases its locks — every other client waits.
type Store struct {
	// paused/active implement the blocking stop-the-world recovery: every
	// operation registers in active; recovery sets paused, waits for active
	// to drain, and only then repairs — exactly the behaviour the paper
	// contrasts with CXL-SHM's non-blocking recovery. A client spinning on
	// a dead client's bucket lock parks itself when paused so recovery can
	// break the lock.
	paused atomic.Bool
	active atomic.Int64

	b       *buddy
	buckets []bucket
	mask    uint64

	// dev holds the object payloads: like the real Lightning, values live
	// in shared memory (simulated device), so data accesses pay the same
	// per-word costs as CXL-SHM's.
	dev *cxl.Device

	clients   []*Client
	clientsMu sync.Mutex
}

// devBase offsets payload addresses so buddy offset 0 maps to a valid
// device word.
const devBase = cxl.Addr(8)

// devAddr converts a buddy byte offset to a device word address.
func devAddr(off uint32) cxl.Addr { return devBase + cxl.Addr(off)/cxl.WordBytes }

type bucket struct {
	// lock holds the owning client ID (0 = unlocked). A crashed client
	// leaves it set, blocking everyone who hashes there until recovery.
	lock atomic.Int32
	// key and state are read by the lock-free probe. Every write holds the
	// bucket lock (or stops the world), and so does every read of off/size.
	key   atomic.Uint64
	state atomic.Uint32
	off   uint32
	size  int32
}

// bucketData is a bucket's directory payload, as the undo log snapshots it.
type bucketData struct {
	key   uint64
	state uint32
	off   uint32
	size  int32
}

func (bk *bucket) data() bucketData {
	return bucketData{key: bk.key.Load(), state: bk.state.Load(), off: bk.off, size: bk.size}
}

// set publishes d, state last: a probe that sees the new state sees the key.
func (bk *bucket) set(d bucketData) {
	bk.off, bk.size = d.off, d.size
	bk.key.Store(d.key)
	bk.state.Store(d.state)
}

// Bucket states. A deleted bucket stays in its probe chains — keys inserted
// past it while it was occupied are only found by probing through it — and
// only a never-used bucket ends a chain.
const (
	bucketEmpty uint32 = iota
	bucketUsed
	bucketDeleted
)

// Errors.
var (
	ErrCrashed  = errors.New("lightning: client has crashed")
	ErrNotFound = errors.New("lightning: key not found")
	ErrFull     = errors.New("lightning: directory full")
)

// NewStore creates a store with a 2^n-byte arena and the given directory
// capacity (rounded up to a power of two).
func NewStore(arenaBytes, capacity int) (*Store, error) {
	b, err := newBuddy(arenaBytes, 64)
	if err != nil {
		return nil, err
	}
	cap2 := 1
	for cap2 < capacity {
		cap2 <<= 1
	}
	dev, err := cxl.NewDevice(cxl.Config{
		Words:      arenaBytes/cxl.WordBytes + int(devBase) + 8,
		MaxClients: 4096,
	})
	if err != nil {
		return nil, err
	}
	return &Store{
		b:       b,
		buckets: make([]bucket, cap2),
		mask:    uint64(cap2 - 1),
		dev:     dev,
	}, nil
}

// Client is one process attached to the store.
type Client struct {
	s       *Store
	id      int32
	h       *cxl.Handle
	crashed atomic.Bool
	// undo is the client's single-entry undo log: enough for recovery to
	// roll back the operation in flight when the client died.
	undo undoEntry
}

type undoEntry struct {
	valid   bool
	bucket  int
	prev    bucketData // directory state to restore
	newOff  uint32     // allocation to roll back (0xFFFFFFFF = none)
	newUsed bool
}

const noAlloc = ^uint32(0)

// Connect attaches a new client.
func (s *Store) Connect() *Client {
	s.clientsMu.Lock()
	defer s.clientsMu.Unlock()
	c := &Client{s: s, id: int32(len(s.clients) + 1)}
	c.h = s.dev.Open(int(c.id))
	s.clients = append(s.clients, c)
	return c
}

func hash(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	return k
}

// begin registers an operation; it parks while a recovery is stopping the
// world.
func (c *Client) begin() {
	for {
		if !c.s.paused.Load() {
			c.s.active.Add(1)
			if !c.s.paused.Load() {
				return
			}
			c.s.active.Add(-1)
		}
		runtime.Gosched()
	}
}

func (c *Client) end() { c.s.active.Add(-1) }

// lockBucket spins until the bucket lock is acquired — indefinitely if a
// dead client holds it (the §4.2 problem); only a stop-the-world Recover
// breaks such locks, and the spinner parks while that recovery runs.
func (c *Client) lockBucket(i int) {
	for !c.s.buckets[i].lock.CompareAndSwap(0, c.id) {
		if c.s.paused.Load() {
			c.end()
			c.begin()
		}
		runtime.Gosched()
	}
}

func (c *Client) unlockBucket(i int) {
	c.s.buckets[i].lock.CompareAndSwap(c.id, 0)
}

// findBucket locates the bucket holding key (linear probing). With
// forInsert it returns, when key is absent, the first free bucket of key's
// chain — a hole is claimed only after the probe has passed every bucket
// that could hold key, the never-used one that ends the chain. -1 means
// not found (or, for an insert, a full directory). Caller holds no locks;
// the probe is optimistic and re-checked under the bucket lock.
func (s *Store) findBucket(key uint64, forInsert bool) int {
	start := hash(key) & s.mask
	hole := -1
	for d := uint64(0); d <= s.mask; d++ {
		i := int((start + d) & s.mask)
		bk := &s.buckets[i]
		switch bk.state.Load() {
		case bucketUsed:
			if bk.key.Load() == key {
				return i
			}
			continue
		case bucketDeleted:
			if hole < 0 {
				hole = i
			}
			continue
		}
		if forInsert && hole < 0 {
			hole = i
		}
		break
	}
	if !forInsert {
		return -1
	}
	return hole
}

// Put stores val under key (insert or overwrite).
func (c *Client) Put(key uint64, val []byte) error {
	if c.crashed.Load() {
		return ErrCrashed
	}
	c.begin()
	defer c.end()

	var i int
	for {
		i = c.s.findBucket(key, true)
		if i < 0 {
			return ErrFull
		}
		c.lockBucket(i)
		// Under the lock bucket i cannot change; a repeated probe that
		// still picks it proves key is there, or absent with i its hole.
		if c.s.findBucket(key, true) == i {
			break
		}
		c.unlockBucket(i) // a concurrent insert or delete moved the chain: probe again
	}
	defer c.unlockBucket(i)
	bk := &c.s.buckets[i]

	off, err := c.s.b.alloc(len(val))
	if err != nil {
		return err
	}
	// Log the in-flight operation before mutating the directory.
	c.undo = undoEntry{valid: true, bucket: i, prev: bk.data(), newOff: off, newUsed: true}

	c.h.WriteBytes(devAddr(off), 0, val)
	oldUsed, oldOff := bk.state.Load() == bucketUsed, bk.off
	bk.set(bucketData{key: key, state: bucketUsed, off: off, size: int32(len(val))})
	if oldUsed {
		if err := c.s.b.freeBlock(oldOff); err != nil {
			return err
		}
	}
	c.undo.valid = false
	return nil
}

// Get returns a copy of the value under key.
func (c *Client) Get(key uint64) ([]byte, error) {
	if c.crashed.Load() {
		return nil, ErrCrashed
	}
	c.begin()
	defer c.end()
	i := c.s.findBucket(key, false)
	if i < 0 {
		return nil, ErrNotFound
	}
	c.lockBucket(i)
	defer c.unlockBucket(i)
	bk := &c.s.buckets[i]
	if bk.state.Load() != bucketUsed || bk.key.Load() != key {
		return nil, ErrNotFound
	}
	out := make([]byte, bk.size)
	c.h.ReadBytes(devAddr(bk.off), 0, out)
	return out, nil
}

// Delete removes key.
func (c *Client) Delete(key uint64) error {
	if c.crashed.Load() {
		return ErrCrashed
	}
	c.begin()
	defer c.end()
	i := c.s.findBucket(key, false)
	if i < 0 {
		return ErrNotFound
	}
	c.lockBucket(i)
	defer c.unlockBucket(i)
	bk := &c.s.buckets[i]
	if bk.state.Load() != bucketUsed || bk.key.Load() != key {
		return ErrNotFound
	}
	c.undo = undoEntry{valid: true, bucket: i, prev: bk.data(), newOff: noAlloc}
	off := bk.off
	bk.state.Store(bucketDeleted)
	if err := c.s.b.freeBlock(off); err != nil {
		return err
	}
	c.undo.valid = false
	return nil
}

// CrashHoldingLock simulates the failure mode the paper's §4.2 straw-man
// analysis dissects: the client acquires key's bucket lock, logs an
// operation, and dies. Every other client touching that bucket now spins
// until Recover releases the lock.
func (c *Client) CrashHoldingLock(key uint64) error {
	if c.crashed.Load() {
		return ErrCrashed
	}
	c.begin()
	i := c.s.findBucket(key, true)
	if i < 0 {
		c.end()
		return ErrFull
	}
	c.lockBucket(i)
	c.undo = undoEntry{valid: true, bucket: i, prev: c.s.buckets[i].data(), newOff: noAlloc}
	c.crashed.Store(true)
	c.end() // the goroutine is gone; the held bucket lock models the stuck state
	return nil
}

// Crash marks the client dead without holding any lock.
func (c *Client) Crash() { c.crashed.Store(true) }

// Recover performs Lightning's blocking recovery: stop the world, roll back
// every dead client's in-flight operation, release its locks. Returns how
// long the world was stopped.
func (s *Store) Recover() time.Duration {
	start := time.Now()
	// Stop the world: no new operations, wait for in-flight ones to drain.
	s.paused.Store(true)
	defer s.paused.Store(false)
	for s.active.Load() > 0 {
		runtime.Gosched()
	}

	s.clientsMu.Lock()
	clients := append([]*Client(nil), s.clients...)
	s.clientsMu.Unlock()

	for _, c := range clients {
		if !c.crashed.Load() {
			continue
		}
		if c.undo.valid {
			prev := c.undo.prev
			if prev.state == bucketEmpty {
				// Inserts that probed while the dead client held the
				// bucket went past it: it must not end their chains.
				prev.state = bucketDeleted
			}
			bk := &s.buckets[c.undo.bucket]
			bk.set(prev)
			bk.lock.Store(0)
			if c.undo.newOff != noAlloc {
				// Allocation that never became visible: roll it back.
				_ = s.b.freeBlock(c.undo.newOff)
			}
			c.undo.valid = false
		}
		// Release every lock the dead client still holds.
		for i := range s.buckets {
			s.buckets[i].lock.CompareAndSwap(c.id, 0)
		}
	}
	return time.Since(start)
}

// Len counts stored objects (diagnostics).
func (s *Store) Len() int {
	n := 0
	for i := range s.buckets {
		if s.buckets[i].state.Load() == bucketUsed {
			n++
		}
	}
	return n
}

// String describes the store.
func (s *Store) String() string {
	return fmt.Sprintf("lightning{objects=%d, free=%dB}", s.Len(), s.b.freeBytes())
}
