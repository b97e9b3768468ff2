// Package kv implements the paper's shared-everything distributed key-value
// store (CXL-KV, §6.4) and its baselines.
//
// CXL-KV is a fixed-size latch-free hash index whose buckets are embedded
// references to key-value records; collisions chain records through each
// record's embedded next pointer. The three CXL-SHM capabilities §6.4 lists
// make it possible: frequent fine-grained shareable allocation, atomic
// in-place updates, and machine-independent pointers embeddable in other
// objects.
//
// Concurrency model: single-writer-multi-reader per partition. Keys are
// partitioned across writers by hash; readers from any client read the
// entire index directly. Writer failover (takeover of a dead writer's
// partition) is pure metadata — no data movement (§6.4's repartitioning
// claim).
package kv

import (
	"errors"
	"fmt"

	"repro/internal/layout"
	"repro/internal/shm"
)

// Store errors.
var (
	ErrNotFound   = errors.New("kv: key not found")
	ErrValueSize  = errors.New("kv: value exceeds the store's fixed value size")
	ErrNotOwner   = errors.New("kv: client does not own this key's partition")
	ErrChainBroke = errors.New("kv: chain traversal aborted (concurrent reclaim)")
)

// Index object data layout (word offsets within the data area):
//
//	[0 .. buckets)              bucket heads (embedded references)
//	[buckets+0]                 bucket count
//	[buckets+1]                 fixed value size in bytes
//	[buckets+2]                 number of writer partitions
//	[buckets+3]                 reserved (0)
//	[buckets+4 .. +4+writers)   writer lease words (owner client ID)
//
// Record object layout:
//
//	embed[0] = next record      (embedded reference)
//	word 1   = key
//	word 2.. = value bytes
const (
	recNextIdx   = 0
	recKeyWord   = 1
	recValueWord = 2
)

// Store is one client's handle onto a shared CXL-KV index.
type Store struct {
	c       *shm.Client
	index   layout.Addr
	root    layout.Addr // this client's counted reference to the index
	buckets int
	valSize int
	writers int
	// scratch is the reusable copy buffer of Update and of View's fallback
	// (backends without direct byte access).
	scratch []byte
}

// Create allocates a new index and publishes it at named-root slot rootSlot.
func Create(c *shm.Client, rootSlot, buckets, valueSize, writers int) (*Store, error) {
	if buckets < 1 || valueSize < 1 || writers < 1 {
		return nil, fmt.Errorf("kv: bad parameters buckets=%d valueSize=%d writers=%d",
			buckets, valueSize, writers)
	}
	dataBytes := (buckets + 4 + writers) * layout.WordBytes
	root, index, err := c.Malloc(dataBytes, buckets)
	if err != nil {
		return nil, err
	}
	c.StoreWord(index, buckets+0, uint64(buckets))
	c.StoreWord(index, buckets+1, uint64(valueSize))
	c.StoreWord(index, buckets+2, uint64(writers))
	c.StoreWord(index, buckets+3, 0)
	if err := c.PublishRoot(rootSlot, index); err != nil {
		return nil, err
	}
	return &Store{c: c, index: index, root: root,
		buckets: buckets, valSize: valueSize, writers: writers}, nil
}

// Open attaches to the index published at named-root slot rootSlot.
func Open(c *shm.Client, rootSlot int) (*Store, error) {
	root, index, err := c.OpenRoot(rootSlot)
	if err != nil {
		return nil, err
	}
	s := &Store{c: c, index: index, root: root}
	// The bucket count lives right after the embed area, whose size equals
	// the bucket count — read it from the object's meta instead.
	m := c.MetaOf(index)
	s.buckets = int(m.EmbedCnt)
	s.valSize = int(c.LoadWord(index, s.buckets+1))
	s.writers = int(c.LoadWord(index, s.buckets+2))
	return s, nil
}

// Close releases this client's reference to the index.
func (s *Store) Close() error {
	if s.root == 0 {
		return nil
	}
	_, err := s.c.ReleaseRoot(s.root)
	s.root = 0
	return err
}

// IndexAddr returns the shared index address (diagnostics).
func (s *Store) IndexAddr() layout.Addr { return s.index }

// ValueSize returns the store's fixed value size.
func (s *Store) ValueSize() int { return s.valSize }

// Writers returns the partition count.
func (s *Store) Writers() int { return s.writers }

func hash64(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	k *= 0xc4ceb9fe1a85ec53
	k ^= k >> 33
	return k
}

func (s *Store) bucketOf(key uint64) int { return int(hash64(key) % uint64(s.buckets)) }

// Partition computes the writer partition for key given the store shape.
// Partitioning is by bucket so an entire collision chain — including the
// bucket head's embedded reference — has exactly one writer (the
// single-writer-multi-reader rule of §4.3 applies to every reference word).
func Partition(key uint64, buckets, writers int) int {
	return int(hash64(key)%uint64(buckets)) % writers
}

// PartitionOf returns which writer partition owns key.
func (s *Store) PartitionOf(key uint64) int {
	return Partition(key, s.buckets, s.writers)
}

// A lease word records its writer's cid in the low 16 bits and the writer's
// slot-lease generation above them: a steal can then tell the writer that
// took the lease from a later lessee of the same slot.
func packLease(cid int, gen uint64) uint64 { return gen<<16 | uint64(cid) }

func unpackLease(w uint64) (cid int, gen uint64) { return int(w & 0xffff), w >> 16 }

// AcquirePartition records this client as partition p's writer (lease word).
// Returns false if another writer holds it; pass steal to take over a dead
// writer's partition — the §6.4 metadata-only repartitioning. A steal, too,
// is refused until the recorded writer can no longer write (stealable).
func (s *Store) AcquirePartition(p int, steal bool) bool {
	if p < 0 || p >= s.writers {
		return false
	}
	leaseIdx := s.buckets + 4 + p
	mine := packLease(s.c.ID(), s.c.Generation())
	// Bounded load+CAS retry: a concurrent acquirer (or a recovery pass
	// rewriting index words) between the load and the CAS is a reload, not
	// a refusal.
	for attempt := 0; attempt < 8; attempt++ {
		cur := s.c.LoadWord(s.index, leaseIdx)
		if cur != 0 && cur != mine && (!steal || !s.stealable(cur)) {
			return false
		}
		if s.c.CASWord(s.index, leaseIdx, cur, mine) {
			return true
		}
	}
	return false
}

// stealable reports whether the writer recorded in lease word w can write no
// more: its slot is FREE or RECOVERED, or leased under another generation.
// A live writer may be in the middle of a PUT that passed checkOwner, and a
// dead one's redo entry owns the word it died writing until recovery
// resolves it (a replay after the steal would overwrite the new writer's
// link). One or two loads, once per failover.
func (s *Store) stealable(w uint64) bool {
	cid, gen := unpackLease(w)
	pool := s.c.Pool()
	if cid < 1 || cid > pool.Geometry().MaxClients {
		return true
	}
	switch pool.ClientStatus(cid) {
	case layout.ClientSlotFree, layout.ClientRecovered:
		return true
	}
	return pool.SlotGeneration(cid) != gen
}

// PartitionOwner returns the cid recorded in partition p's lease word.
func (s *Store) PartitionOwner(p int) int {
	if p < 0 || p >= s.writers {
		return 0 // no such partition (p can come off the wire): nobody owns it
	}
	cid, _ := unpackLease(s.c.LoadWord(s.index, s.buckets+4+p))
	return cid
}

// checkOwner enforces the single-writer rule when leases are in use: if the
// key's partition has a recorded writer and it is not this client, the
// mutation is refused. Partitions with no lease (0) are unenforced — small
// tests and single-writer tools need no lease ceremony.
func (s *Store) checkOwner(key uint64) error {
	owner := s.PartitionOwner(s.PartitionOf(key))
	if owner != 0 && owner != s.c.ID() {
		return ErrNotOwner
	}
	return nil
}

// Put inserts or updates key. Updates are in-place (one of the §6.4
// enablers); inserts allocate a record and head-link it with one embedded
// reference change. The caller must be the key's partition writer
// (single-writer rule); when partition leases are acquired, this is
// enforced.
func (s *Store) Put(key uint64, val []byte) error {
	if len(val) > s.valSize {
		return ErrValueSize
	}
	if err := s.checkOwner(key); err != nil {
		return err
	}
	b := s.bucketOf(key)
	// Walk the chain for an existing record.
	if rec := s.find(key, b); rec != 0 {
		s.c.WriteData(rec, (recValueWord)*layout.WordBytes, val)
		return s.done(nil)
	}
	// Insert at head.
	recBytes := (recValueWord)*layout.WordBytes + s.valSize
	root, rec, err := s.c.Malloc(recBytes, 1)
	if err != nil {
		return err
	}
	s.c.StoreWord(rec, recKeyWord, key)
	s.c.WriteData(rec, recValueWord*layout.WordBytes, val)
	head, err := s.c.LoadEmbed(s.index, b)
	if err != nil {
		return err
	}
	if head != 0 {
		if err := s.c.SetEmbed(rec, recNextIdx, head); err != nil {
			return err
		}
	}
	if err := s.c.ChangeEmbed(s.index, b, rec); err != nil {
		return err
	}
	// The bucket now holds the counted reference; drop ours.
	_, err = s.c.ReleaseRoot(root)
	return s.done(err)
}

// done is a mutation's last step: the device drops a fenced client's stores
// silently, so a write is done only if the fence was open after its last one.
func (s *Store) done(err error) error {
	if err == nil && s.c.Fenced() {
		return shm.ErrFenced
	}
	return err
}

// find walks bucket b for key, returning the record address or 0. Reads are
// raw loads (no reference counting — §5.2's "further reading ... does not
// need to modify the reference count").
func (s *Store) find(key uint64, b int) layout.Addr {
	rec, err := s.c.LoadEmbed(s.index, b)
	if err != nil {
		return 0
	}
	for hops := 0; rec != 0 && hops <= s.buckets+1024; hops++ {
		if s.c.LoadWord(rec, recKeyWord) == key {
			return rec
		}
		rec = s.c.LoadWord(rec, recNextIdx)
	}
	return 0
}

// Get copies key's value into buf (which must be at least ValueSize bytes)
// and returns the number of bytes copied. Readers run from any client with
// no locks. A delete reclaims its record immediately, so a reader racing it
// validates after the copy — the record is still allocated and still holds
// key — and retries the walk, up to three times, before ErrChainBroke.
func (s *Store) Get(key uint64, buf []byte) (int, error) {
	b := s.bucketOf(key)
	for attempt := 0; attempt < 3; attempt++ {
		rec := s.find(key, b)
		if rec == 0 {
			return 0, ErrNotFound
		}
		n := s.valSize
		if n > len(buf) {
			n = len(buf)
		}
		s.c.ReadData(rec, recValueWord*layout.WordBytes, buf[:n])
		// Validate: record still allocated and still ours.
		if s.c.MetaOf(rec).Allocated() && s.c.LoadWord(rec, recKeyWord) == key {
			return n, nil
		}
	}
	return 0, ErrChainBroke
}

// View calls f with a zero-copy read view of key's value bytes — the
// record's device words aliased directly, no Go-heap copy (paper §3.1:
// data-plane reads are plain loads on the mapped memory). The view is
// valid only inside f; f must not retain it, must not write through it,
// and — like any optimistic lock-free read — may run more than once or
// observe a value that a concurrent delete then invalidates, in which
// case its result is discarded and the read retried. Backends without
// direct byte access fall back to a copy into a reused scratch buffer, same
// contract.
func (s *Store) View(key uint64, f func(val []byte) error) error {
	b := s.bucketOf(key)
	for attempt := 0; attempt < 3; attempt++ {
		rec := s.find(key, b)
		if rec == 0 {
			return ErrNotFound
		}
		l, err := s.c.AcquireLease(rec)
		switch err {
		case nil:
		case shm.ErrNoDirectAccess:
			return s.viewCopy(key, b, f)
		case shm.ErrStaleReference:
			continue // reclaimed between find and lease; retry the walk
		default:
			return err // ErrLeaseAliased: nested view of the same record
		}
		off := recValueWord * layout.WordBytes
		ferr := f(l.Bytes()[off : off+s.valSize])
		// Validate after, exactly like Get: still allocated, still this key.
		ok := s.c.MetaOf(rec).Allocated() && s.c.LoadWord(rec, recKeyWord) == key
		s.c.ReleaseLease(l)
		if ok {
			return ferr
		}
	}
	return ErrChainBroke
}

// Update calls f with key's value bytes in a reused buffer and applies
// whatever f writes in place — the §6.4 atomic in-place update. The bytes go
// back through the client's fenceable Handle, as Put's do (a byte lease would
// write around the RAS fence). The caller must be the key's partition writer
// (enforced when leases are in use); the single-writer rule is what makes the
// record stable under f, so no validation or retry is needed. The buffer is
// valid only inside f.
func (s *Store) Update(key uint64, f func(val []byte) error) error {
	if err := s.checkOwner(key); err != nil {
		return err
	}
	rec := s.find(key, s.bucketOf(key))
	if rec == 0 {
		return ErrNotFound
	}
	buf := s.scratchBuf()
	s.c.ReadData(rec, recValueWord*layout.WordBytes, buf)
	if err := f(buf); err != nil {
		return err
	}
	s.c.WriteData(rec, recValueWord*layout.WordBytes, buf)
	return s.done(nil)
}

// scratchBuf returns the store's reusable fallback copy buffer.
func (s *Store) scratchBuf() []byte {
	if s.scratch == nil {
		s.scratch = make([]byte, s.valSize)
	}
	return s.scratch
}

// viewCopy is View's fallback when the backend cannot alias memory: copy
// into the scratch buffer with Get's validate-after scheme, then call f.
func (s *Store) viewCopy(key uint64, b int, f func(val []byte) error) error {
	buf := s.scratchBuf()
	for attempt := 0; attempt < 3; attempt++ {
		rec := s.find(key, b)
		if rec == 0 {
			return ErrNotFound
		}
		s.c.ReadData(rec, recValueWord*layout.WordBytes, buf)
		if s.c.MetaOf(rec).Allocated() && s.c.LoadWord(rec, recKeyWord) == key {
			return f(buf)
		}
	}
	return ErrChainBroke
}

// Delete removes key. Unlinking is one embedded-reference change on the
// predecessor (bucket head or previous record); the record's reference
// count reaching zero reclaims it and the cascade rebalances the successor
// count automatically.
func (s *Store) Delete(key uint64) error {
	if err := s.checkOwner(key); err != nil {
		return err
	}
	b := s.bucketOf(key)
	rec, err := s.c.LoadEmbed(s.index, b)
	if err != nil {
		return err
	}
	if rec == 0 {
		return ErrNotFound
	}
	if s.c.LoadWord(rec, recKeyWord) == key {
		return s.unlink(s.index, b, rec)
	}
	prev := rec
	rec = s.c.LoadWord(rec, recNextIdx)
	for hops := 0; rec != 0 && hops <= s.buckets+1024; hops++ {
		if s.c.LoadWord(rec, recKeyWord) == key {
			return s.unlink(prev, recNextIdx, rec)
		}
		prev = rec
		rec = s.c.LoadWord(rec, recNextIdx)
	}
	return ErrNotFound
}

// unlink removes rec, whose predecessor's embedded reference idx points at
// it. The record is reclaimed immediately; readers validate after reading.
func (s *Store) unlink(holder layout.Addr, idx int, rec layout.Addr) error {
	next := s.c.LoadWord(rec, recNextIdx)
	if next == 0 {
		return s.done(s.c.ClearEmbed(holder, idx))
	}
	return s.done(s.c.ChangeEmbed(holder, idx, next))
}

// Range calls f for every record (order unspecified) until f returns
// false. The value slice is reused between calls; copy it to keep it. Like
// Get, the walk is lock-free.
func (s *Store) Range(f func(key uint64, val []byte) bool) {
	buf := make([]byte, s.valSize)
	for b := 0; b < s.buckets; b++ {
		rec, _ := s.c.LoadEmbed(s.index, b)
		for hops := 0; rec != 0 && hops <= s.buckets+1024; hops++ {
			key := s.c.LoadWord(rec, recKeyWord)
			s.c.ReadData(rec, recValueWord*layout.WordBytes, buf)
			if s.c.MetaOf(rec).Allocated() { // validate before surfacing
				if !f(key, buf) {
					return
				}
			}
			rec = s.c.LoadWord(rec, recNextIdx)
		}
	}
}

// RangeBuckets walks the records of count consecutive buckets starting at
// bucket start (wrapping around the table), calling f until it returns
// false. It is the batch-scan primitive of the serving tier: a bounded
// window of the index walked lock-free, with the same validate-before-
// surfacing rule as Range. The value slice is reused between calls.
// Returns how many records f accepted.
func (s *Store) RangeBuckets(start, count int, f func(key uint64, val []byte) bool) int {
	if s.buckets == 0 || count <= 0 {
		return 0
	}
	if count > s.buckets {
		count = s.buckets
	}
	seen := 0
	buf := make([]byte, s.valSize)
	for i := 0; i < count; i++ {
		b := (start + i) % s.buckets
		rec, _ := s.c.LoadEmbed(s.index, b)
		for hops := 0; rec != 0 && hops <= s.buckets+1024; hops++ {
			key := s.c.LoadWord(rec, recKeyWord)
			s.c.ReadData(rec, recValueWord*layout.WordBytes, buf)
			if s.c.MetaOf(rec).Allocated() {
				if !f(key, buf) {
					return seen + 1
				}
				seen++
			}
			rec = s.c.LoadWord(rec, recNextIdx)
		}
	}
	return seen
}

// Buckets returns the index's bucket count (serving needs it to size scan
// windows and compute partitions on the driver side).
func (s *Store) Buckets() int { return s.buckets }

// Len counts records (diagnostic full walk).
func (s *Store) Len() int {
	n := 0
	for b := 0; b < s.buckets; b++ {
		rec, _ := s.c.LoadEmbed(s.index, b)
		for rec != 0 {
			n++
			rec = s.c.LoadWord(rec, recNextIdx)
		}
	}
	return n
}
