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
	"runtime"

	"repro/internal/layout"
	"repro/internal/shm"
)

// Store errors.
var (
	ErrNotFound   = errors.New("kv: key not found")
	ErrValueSize  = errors.New("kv: value exceeds the store's fixed value size")
	ErrNotOwner   = errors.New("kv: client does not own this key's partition")
	ErrChainBroke = errors.New("kv: chain traversal aborted (concurrent reclaim)")
	ErrFormat     = errors.New("kv: index written in another record format")
)

// Index object data layout (word offsets within the data area):
//
//	[0 .. buckets)              bucket heads (embedded references)
//	[buckets+0]                 bucket count
//	[buckets+1]                 fixed value size in bytes
//	[buckets+2]                 number of writer partitions
//	[buckets+3]                 record format (recordFormat)
//	[buckets+4 .. +4+writers)   writer lease words (owner client ID)
//
// Record object layout:
//
//	embed[0] = next record      (embedded reference; its key is smaller)
//	word 1   = key
//	word 2   = version          (seqlock; see below)
//	word 3.. = value bytes
const (
	recNextIdx   = 0
	recKeyWord   = 1
	recVerWord   = 2
	recValueWord = 3
)

// recordFormat is stamped into index word [buckets+3]. Format 0 (the word's
// old reserved value) had no version word and its values start at word 2.
// Format 1 chained records in insertion order, so a walk that stops at the
// first smaller key could miss keys in it. Open refuses both, and any other
// format, rather than misread the index.
const recordFormat = 2

// The version word is a seqlock over the record's key and value, like the
// telemetry block's commit word. Its top 24 bits count completed writes;
// the rest is zero when the record is settled, and names the writer while a
// write is in flight:
//
//	bits 40..63  seq
//	bits 17..39  writer's slot generation / 2 (low 23 bits)
//	bits  1..16  writer's cid
//	bit   0      1 while the writer is mid-update (the word is "odd")
//
// An in-place update loads the word, stores it odd with the writer's tag,
// writes the value, then stores seq+1 with no tag (1 load, 2 stores). A
// delete leaves the word odd with its tag (1 load, 1 store), and an insert
// continues seq from whatever its block last held, storing seq+1 after the
// key and value (1 load, 1 store): a reader that copied a deleted record's
// block while the same key came back into it sees the word move. A reader
// loads the word before and after its copy and keeps the copy only when
// both loads agree and the word is even — or odd but naming a writer that
// can no longer write (dead, or its slot leased again): that writer's value
// is as torn as it left it, until the next write of the key.
const (
	verSeqShift = 40
	verGenBits  = 23
	verTagMask  = 1<<verSeqShift - 1
)

// versionTag is the odd low part of the version word naming the writer
// incarnation (cid, gen).
func versionTag(cid int, gen uint64) uint64 {
	return (gen>>1)&(1<<verGenBits-1)<<17 | uint64(cid)<<1 | 1
}

// nextVersion is the settled word that follows w: seq+1, no writer.
func nextVersion(w uint64) uint64 { return (w>>verSeqShift + 1) << verSeqShift }

// Store is one client's handle onto a shared CXL-KV index.
type Store struct {
	c       *shm.Client
	index   layout.Addr
	root    layout.Addr // this client's counted reference to the index
	buckets int
	valSize int
	writers int
	// tag is this client's odd version-word tag (versionTag).
	tag uint64
	// rd reads through the client's own handle: the store and every
	// NewReader view share one read implementation.
	rd Reader
	// scratch is the reusable copy buffer of View and Update.
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
	c.StoreWord(index, buckets+3, recordFormat)
	if err := c.PublishRoot(rootSlot, index); err != nil {
		return nil, err
	}
	return newStore(c, index, root, buckets, valueSize, writers), nil
}

func newStore(c *shm.Client, index, root layout.Addr, buckets, valSize, writers int) *Store {
	s := &Store{c: c, index: index, root: root,
		buckets: buckets, valSize: valSize, writers: writers,
		tag: versionTag(c.ID(), c.Generation()), scratch: make([]byte, valSize)}
	s.rd = Reader{s: s, r: &c.Reader, idx: c.Span(index)}
	return s
}

// Open attaches to the index published at named-root slot rootSlot. An
// index of another record format is refused with ErrFormat.
func Open(c *shm.Client, rootSlot int) (*Store, error) {
	root, index, err := c.OpenRoot(rootSlot)
	if err != nil {
		return nil, err
	}
	// The bucket count lives right after the embed area, whose size equals
	// the bucket count — read it from the object's meta instead.
	buckets := int(c.MetaOf(index).EmbedCnt)
	if f := c.LoadWord(index, buckets+3); f != recordFormat {
		c.ReleaseRoot(root)
		return nil, fmt.Errorf("%w: root %d holds record format %d, this build reads %d",
			ErrFormat, rootSlot, f, recordFormat)
	}
	return newStore(c, index, root, buckets,
		int(c.LoadWord(index, buckets+1)), int(c.LoadWord(index, buckets+2))), nil
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

// AcquirePartition records this client as partition p's writer (lease word).
// Returns false if another writer holds it; pass steal to take over a dead
// writer's partition — the §6.4 metadata-only repartitioning. A steal, too,
// is refused until the recorded writer can no longer write (stealable).
func (s *Store) AcquirePartition(p int, steal bool) bool {
	if p < 0 || p >= s.writers {
		return false
	}
	leaseIdx := s.buckets + 4 + p
	mine := layout.PackLease(s.c.ID(), s.c.Generation())
	// Bounded load+CAS retry: a concurrent acquirer (or a recovery pass
	// rewriting index words) between the load and the CAS is a reload, not
	// a refusal.
	for attempt := 0; attempt < 8; attempt++ {
		cur := s.rd.idx.Load(leaseIdx)
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
	cid, gen := layout.UnpackLease(w)
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
	cid, _ := layout.UnpackLease(s.rd.idx.Load(s.buckets + 4 + p))
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
// enablers) under the record's version word; inserts allocate a record and
// link it at its key's place in the bucket's descending chain with one move
// transaction (shm.PushEmbed): no reference count changes, so no CAS. The
// caller must be the key's partition writer (single-writer rule); when
// partition leases are acquired, this is enforced.
func (s *Store) Put(key uint64, val []byte) error {
	if len(val) > s.valSize {
		return ErrValueSize
	}
	if err := s.checkOwner(key); err != nil {
		return err
	}
	holder, idx, at, found := s.rd.seek(key, s.bucketOf(key))
	if found {
		s.writeValue(s.c.WriteSpan(at), val)
		return s.done(nil)
	}
	// Insert before at, the first record with a smaller key. A block that
	// held a deleted record still carries the odd version word its delete
	// left (retire); the insert settles it only after the key and value, so a
	// reader still holding the block from the deleted record waits the writes
	// out or sees the word move.
	recBytes := recValueWord*layout.WordBytes + s.valSize
	root, rec, err := s.c.Malloc(recBytes, 1)
	if err != nil {
		return err
	}
	sp := s.c.WriteSpan(rec)
	v := sp.Load(recVerWord)
	sp.Store(recKeyWord, key)
	sp.Write(recValueWord*layout.WordBytes, val)
	sp.Store(recVerWord, nextVersion(v))
	// One move transaction publishes it: the record's next takes at before
	// the predecessor word takes the record, so neither a lock-free reader nor
	// a recovery replay finds the record without the rest of its chain, and
	// the Malloc's counted reference moves into that word.
	return s.done(s.c.PushEmbed(holder, idx, at, root))
}

// writeValue is the in-place update: the version word odd and naming this
// writer, the value, then the word even with its write count advanced. A
// word a dead writer left odd still carries its count, so the new even word
// differs from every word a reader of the older value could hold.
func (s *Store) writeValue(sp shm.WriteSpan, val []byte) {
	v := sp.Load(recVerWord)
	sp.Store(recVerWord, v&^verTagMask|s.tag)
	sp.Write(recValueWord*layout.WordBytes, val)
	sp.Store(recVerWord, nextVersion(v))
}

// done is a mutation's last step: the device drops a fenced client's stores
// silently, so a write is done only if the fence was open after its last one.
func (s *Store) done(err error) error {
	if err == nil && s.c.Fenced() {
		return shm.ErrFenced
	}
	return err
}

// Get copies key's value into buf (which must be at least ValueSize bytes)
// and returns the number of bytes copied, lock-free (Reader.Get).
func (s *Store) Get(key uint64, buf []byte) (int, error) { return s.rd.Get(key, buf) }

// View calls f once with key's value, copied lock-free as Get copies it
// (stable under the record's version word) into a buffer the store owns.
// The buffer is valid only inside f and is the one Update uses, so f must
// not call View or Update on the same store.
func (s *Store) View(key uint64, f func(val []byte) error) error {
	if _, err := s.rd.Get(key, s.scratch); err != nil {
		return err
	}
	return f(s.scratch)
}

// Update calls f with key's value bytes in a reused buffer and applies
// whatever f writes in place — the §6.4 atomic in-place update, under the
// record's version word as Put's. The bytes go back through the client's
// fenceable Handle, as Put's do. The caller must be the key's partition
// writer (enforced when leases are in use); the single-writer rule is what
// makes the record stable under f, so no validation or retry is needed. The
// buffer is valid only inside f.
func (s *Store) Update(key uint64, f func(val []byte) error) error {
	if err := s.checkOwner(key); err != nil {
		return err
	}
	rec := s.rd.find(key, s.bucketOf(key))
	if rec == 0 {
		return ErrNotFound
	}
	sp := s.c.WriteSpan(rec)
	sp.Read(recValueWord*layout.WordBytes, s.scratch)
	if err := f(s.scratch); err != nil {
		return err
	}
	s.writeValue(sp, s.scratch)
	return s.done(nil)
}

// Delete removes key. Unlinking is one embedded-reference change on the
// predecessor (bucket head or previous record); the record's reference
// count reaching zero reclaims it and the cascade rebalances the successor
// count automatically.
func (s *Store) Delete(key uint64) error {
	if err := s.checkOwner(key); err != nil {
		return err
	}
	holder, idx, rec, found := s.rd.seek(key, s.bucketOf(key))
	if !found {
		return ErrNotFound
	}
	return s.unlink(holder.Block(), idx, rec)
}

// unlink removes rec, whose predecessor's embedded reference idx points at
// it. The record is reclaimed immediately; readers validate after reading.
// Its version word is left odd, naming this writer, for good: the block's
// next insert is what settles it.
func (s *Store) unlink(holder layout.Addr, idx int, rec layout.Addr) error {
	sp := s.c.WriteSpan(rec)
	sp.Store(recVerWord, sp.Load(recVerWord)&^verTagMask|s.tag)
	next := sp.Load(recNextIdx)
	if next == 0 {
		return s.done(s.c.ClearEmbed(holder, idx))
	}
	return s.done(s.c.ChangeEmbed(holder, idx, next))
}

// Range calls f for every record (order unspecified) until f returns
// false. The value slice is reused between calls; copy it to keep it. Like
// Get, the walk is lock-free.
func (s *Store) Range(f func(key uint64, val []byte) bool) {
	s.rd.RangeBuckets(0, s.buckets, f)
}

// RangeBuckets walks count consecutive buckets lock-free (Reader.RangeBuckets).
func (s *Store) RangeBuckets(start, count int, f func(key uint64, val []byte) bool) int {
	return s.rd.RangeBuckets(start, count, f)
}

// Reader reads a Store lock-free: the one read implementation of Get (and so
// of View), Range and RangeBuckets. A Store reads through its own client's
// shm.Reader; NewReader gives another goroutine a Reader over a view of its
// own, so reads can run beside the store's writes (the serving worker's
// GET/SCAN beside its PUTs). Like its shm.Reader, a Reader belongs to one
// goroutine at a time.
//
// Reads run no locks, and two protocols keep them from returning what was
// never written. A delete reclaims its record immediately, so a read
// validates after its copy that the record is still allocated and still
// holds the key, and walks again up to three times before ErrChainBroke.
// A write moves the record's version word, so a read keeps its copy only if
// the word read the same, settled, before and after it; otherwise it copies
// again, after yielding while the word names a live writer. No retry count
// bounds that wait: only the writer's liveness does.
type Reader struct {
	s *Store
	r *shm.Reader
	// idx is the index's data area, its bounds read once: the index lives as
	// long as the store's reference, and its buckets (its embedded
	// references) and lease words are loaded through it with no meta load.
	idx shm.Span
}

// NewReader returns a Reader of s through r, a view of the pool s lives in.
func (s *Store) NewReader(r *shm.Reader) *Reader {
	return &Reader{s: s, r: r, idx: r.Span(s.index)}
}

// seek walks bucket b, whose chain runs in strictly descending key order,
// to key's place in it: the record holding key, or the first record whose
// key is smaller. It returns the reference word that names that place —
// embedded reference idx of holder, the bucket itself or a predecessor's
// next — the record the word names (0 past the chain's end), and whether
// that record holds key. Reads are raw loads (no reference counting — §5.2's
// "further reading ... does not need to modify the reference count"),
// through one span, so one meta load, per record examined.
func (rd *Reader) seek(key uint64, b int) (holder shm.Span, idx int, at layout.Addr, found bool) {
	holder, idx = rd.idx, b
	at = rd.idx.Load(b)
	for hops := 0; at != 0 && hops <= rd.s.buckets+1024; hops++ {
		sp := rd.r.Span(at)
		if k := sp.Load(recKeyWord); k <= key {
			return holder, idx, at, k == key
		}
		holder, idx = sp, recNextIdx
		at = sp.Load(recNextIdx)
	}
	return holder, idx, at, false
}

// find returns the address of key's record in bucket b, or 0.
func (rd *Reader) find(key uint64, b int) layout.Addr {
	if _, _, at, found := rd.seek(key, b); found {
		return at
	}
	return 0
}

// Get copies key's value into buf (which must be at least ValueSize bytes)
// and returns the number of bytes copied.
func (rd *Reader) Get(key uint64, buf []byte) (int, error) {
	n := rd.s.valSize
	if n > len(buf) {
		n = len(buf)
	}
	b := rd.s.bucketOf(key)
	for broke := 0; broke < 3; broke++ {
		rec := rd.find(key, b)
		if rec == 0 {
			return 0, ErrNotFound
		}
		if k, _, ok := rd.readRecord(rec, buf[:n]); ok && k == key {
			return n, nil
		}
	}
	return 0, ErrChainBroke
}

// readRecord copies rec's key and value (into buf) once they read stable,
// and reports whether rec was still allocated after the copy. The span it
// returns reads rec's next pointer.
func (rd *Reader) readRecord(rec layout.Addr, buf []byte) (key uint64, sp shm.Span, alive bool) {
	for {
		sp = rd.r.Span(rec)
		v1 := sp.Load(recVerWord)
		key = sp.Load(recKeyWord)
		sp.Read(recValueWord*layout.WordBytes, buf)
		alive, stable := rd.validate(rec, sp, v1)
		if !alive || stable {
			return key, sp, alive
		}
	}
}

// validate is the after-copy half of a read of rec whose version word read
// v1 before the copy: rec must still be allocated (alive) and its version
// word must still read v1 and be settled (stable). A copy that is unstable
// only because a live writer is mid-update yields before reporting it, so
// the caller's next copy comes after the writer has had a chance to finish.
func (rd *Reader) validate(rec layout.Addr, sp shm.Span, v1 uint64) (alive, stable bool) {
	if !rd.r.MetaOf(rec).Allocated() {
		return false, false
	}
	if sp.Load(recVerWord) != v1 {
		return true, false
	}
	if v1&1 == 0 || !rd.writerLive(v1) {
		return true, true
	}
	runtime.Gosched()
	return true, false
}

// writerLive reports whether the writer an odd version word names can still
// write: its slot is ALIVE under the generation in the tag. Two loads, only
// when a read meets an odd word.
func (rd *Reader) writerLive(w uint64) bool {
	cid := int(w >> 1 & 0xffff)
	pool := rd.r.Pool()
	if cid < 1 || cid > pool.Geometry().MaxClients || pool.ClientStatus(cid) != layout.ClientAlive {
		return false
	}
	return pool.SlotGeneration(cid)>>1&(1<<verGenBits-1) == w>>17&(1<<verGenBits-1)
}

// RangeBuckets walks the records of count consecutive buckets starting at
// bucket start (wrapping around the table), calling f until it returns
// false. It is the batch-scan primitive of the serving tier: a bounded
// window of the index walked lock-free. Each record is surfaced only once it
// reads stable and still allocated; one reclaimed under the walk is skipped.
// The value slice is reused between calls. Returns how many records f
// accepted.
func (rd *Reader) RangeBuckets(start, count int, f func(key uint64, val []byte) bool) int {
	s := rd.s
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
		rec := rd.idx.Load(b)
		for hops := 0; rec != 0 && hops <= s.buckets+1024; hops++ {
			key, sp, alive := rd.readRecord(rec, buf)
			if alive {
				if !f(key, buf) {
					return seen + 1
				}
				seen++
			}
			rec = sp.Load(recNextIdx)
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
		rec := s.rd.idx.Load(b)
		for rec != 0 {
			n++
			rec = s.c.LoadWord(rec, recNextIdx)
		}
	}
	return n
}
