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
	"math"
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
//	[buckets+4+writers+b]       bucket b's unlink word (seqlock; see unlink)
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
// first smaller key could miss keys in it. Format 2 had no unlink words, so
// a walk that passed a record reclaimed under it went unnoticed. Open
// refuses them, and any other format, rather than misread the index.
const recordFormat = 3

// The version word is a seqlock over the record's value, like the telemetry
// block's commit word. Its top 24 bits count completed writes; the rest is
// zero when the record is settled, and names the writer while a write is in
// flight:
//
//	bits 40..63  seq
//	bits 17..39  writer's slot generation / 2 (low 23 bits)
//	bits  1..16  writer's cid
//	bit   0      1 while the writer is mid-update (the word is "odd")
//
// An in-place update loads the word, stores it odd with the writer's tag,
// writes the value, then stores seq+1 with no tag (1 load, 2 stores); an
// insert stores 0 before it links the record. A reader loads the word
// before and after its copy and keeps the copy only when both loads agree
// and the word is even — or odd but naming a writer that can no longer
// write (dead, or its slot leased again): that writer's value is as torn as
// it left it, until the next write of the key. A bucket's unlink word is the
// same seqlock over the bucket's chain.
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
	// idx is the index's data area, which Create and unlink store to.
	idx shm.WriteSpan
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
	dataBytes := (2*buckets + 4 + writers) * layout.WordBytes
	root, index, err := c.Malloc(dataBytes, buckets)
	if err != nil {
		return nil, err
	}
	s := newStore(c, index, root, buckets, valueSize, writers)
	s.idx.Store(buckets+0, uint64(buckets))
	s.idx.Store(buckets+1, uint64(valueSize))
	s.idx.Store(buckets+2, uint64(writers))
	s.idx.Store(buckets+3, recordFormat)
	for b := 0; b < buckets; b++ {
		s.idx.Store(s.unlinkIdx(b), 0)
	}
	if err := c.PublishRoot(rootSlot, index); err != nil {
		return nil, err
	}
	return s, nil
}

func newStore(c *shm.Client, index, root layout.Addr, buckets, valSize, writers int) *Store {
	s := &Store{c: c, index: index, root: root,
		buckets: buckets, valSize: valSize, writers: writers, idx: c.WriteSpan(index),
		tag: versionTag(c.ID(), c.Generation()), scratch: make([]byte, valSize)}
	s.rd = Reader{s: s, r: &c.Reader, idx: s.idx.Span}
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

// unlinkIdx is the index word of bucket b's unlink word.
func (s *Store) unlinkIdx(b int) int { return s.buckets + 4 + s.writers + b }

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
	g, ok := slotGen(s.c.Pool(), cid, true)
	return !ok || g != gen
}

// slotGen returns client cid's slot generation while its slot is ALIVE — or,
// with dead, DEAD, its recovery not finished — and ok false otherwise: the
// one liveness test of lease words and of version and unlink word tags. One
// load, two when the status passes.
func slotGen(pool *shm.Pool, cid int, dead bool) (gen uint64, ok bool) {
	if cid < 1 || cid > pool.Geometry().MaxClients {
		return 0, false
	}
	if st := pool.ClientStatus(cid); st != layout.ClientAlive && (!dead || st != layout.ClientDead) {
		return 0, false
	}
	return pool.SlotGeneration(cid), true
}

// tagLive reports whether the writer that the odd word w names is the
// incarnation holding its slot while the slot is ALIVE or, with dead, DEAD:
// one that can still write a version word, or whose unlink recovery may yet
// roll forward.
func tagLive(pool *shm.Pool, w uint64, dead bool) bool {
	cid := int(w >> 1 & 0xffff)
	gen, ok := slotGen(pool, cid, dead)
	return ok && versionTag(cid, gen) == w&verTagMask
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
	holder, idx, at, _, found := s.rd.seek(key, s.bucketOf(key))
	if found {
		s.writeValue(s.c.WriteSpan(at), val)
		return s.done(nil)
	}
	// Insert before at, the first record with a smaller key. A reader still
	// holding the block from an earlier life walks again on its bucket's
	// unlink word, so the record's version word just starts settled.
	recBytes := recValueWord*layout.WordBytes + s.valSize
	root, rec, err := s.c.Malloc(recBytes, 1)
	if err != nil {
		return err
	}
	sp := s.c.WriteSpan(rec)
	sp.Store(recVerWord, 0)
	sp.Store(recKeyWord, key)
	sp.Write(recValueWord*layout.WordBytes, val)
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
	b := s.bucketOf(key)
	holder, idx, _, rec, found := s.rd.seek(key, b)
	if !found {
		return ErrNotFound
	}
	return s.unlink(b, holder.Block(), idx, rec)
}

// unlink removes the record rec spans, in bucket b, whose predecessor's
// embedded reference idx points at it. The record is reclaimed at once,
// inside b's unlink word: the word odd with this writer's tag before the
// unlink transaction, seq+1 after it, as an in-place update brackets its
// value (1 load, 2 stores). A word a dead writer left odd still carries its
// count, so the next unlink's even word differs from any a reader held.
func (s *Store) unlink(b int, holder layout.Addr, idx int, rec shm.Span) error {
	ui := s.unlinkIdx(b)
	u := s.idx.Load(ui)
	s.idx.Store(ui, u&^verTagMask|s.tag)
	var err error
	if next := rec.Load(recNextIdx); next == 0 {
		err = s.c.ClearEmbed(holder, idx)
	} else {
		err = s.c.ChangeEmbed(holder, idx, next)
	}
	s.idx.Store(ui, nextVersion(u))
	return s.done(err)
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
// Reads run no locks, and two seqlocks keep them from returning what was
// never there. A delete reclaims its record at once, inside its bucket's
// unlink word (unlink), so a walk — the copy it ends in, or the miss — stands
// only if that word read the same, settled, before and after it; otherwise
// the read walks again. An in-place write moves the record's version word,
// so a copy stands only if that word read the same, settled, before and
// after it; otherwise the read copies again. A read yields while a word
// names a writer that can still write it: no retry count bounds that wait,
// only the writer's liveness does.
type Reader struct {
	s *Store
	r *shm.Reader
	// idx is the index's data area, its bounds read once: the index lives as
	// long as the store's reference, and its buckets (its embedded
	// references), lease words and unlink words are loaded through it with
	// no meta load.
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
// next — the record the word names (0 past the chain's end) with its span,
// and whether that record holds key. Reads are raw loads (no reference
// counting — §5.2's "further reading ... does not need to modify the
// reference count"), through one span, so one meta load, per record
// examined.
func (rd *Reader) seek(key uint64, b int) (holder shm.Span, idx int, at layout.Addr, sp shm.Span, found bool) {
	holder, idx = rd.idx, b
	at = rd.idx.Load(b)
	for hops := 0; at != 0 && hops <= rd.s.buckets+1024; hops++ {
		sp = rd.r.Span(at)
		if k := sp.Load(recKeyWord); k <= key {
			return holder, idx, at, sp, k == key
		}
		holder, idx = sp, recNextIdx
		at = sp.Load(recNextIdx)
	}
	return holder, idx, at, sp, false
}

// find returns the address of key's record in bucket b, or 0.
func (rd *Reader) find(key uint64, b int) layout.Addr {
	if _, _, at, _, found := rd.seek(key, b); found {
		return at
	}
	return 0
}

// maxWalks bounds a Get's walks: each one past the first follows a delete
// that landed in the key's bucket during the walk before it.
const maxWalks = 64

// Get copies key's value into buf (which must be at least ValueSize bytes)
// and returns the number of bytes copied. A hit and a miss alike stand only
// if the bucket's unlink word read the same, settled, before the walk and
// after it; otherwise Get walks again, up to maxWalks times, then returns
// ErrChainBroke.
func (rd *Reader) Get(key uint64, buf []byte) (int, error) {
	n := min(rd.s.valSize, len(buf))
	b := rd.s.bucketOf(key)
	ui := rd.s.unlinkIdx(b)
	for walk := 0; walk < maxWalks; walk++ {
		u := rd.settled(ui)
		_, _, _, sp, found := rd.seek(key, b)
		if found {
			rd.readRecord(sp, buf[:n])
		}
		switch {
		case rd.idx.Load(ui) != u:
		case found:
			return n, nil
		default:
			return 0, ErrNotFound
		}
	}
	return 0, ErrChainBroke
}

// settled loads unlink word ui, yielding while it names a writer that can
// still unlink: ALIVE, or DEAD with its recovery, which may yet roll the
// unlink forward, not finished.
func (rd *Reader) settled(ui int) uint64 {
	for {
		u := rd.idx.Load(ui)
		if u&1 == 0 || !tagLive(rd.r.Pool(), u, true) {
			return u
		}
		runtime.Gosched()
	}
}

// readRecord copies the value of the record sp spans into buf once it reads
// stable: the version word read the same before and after the copy, and
// settled. While the word names a live writer mid-update, it yields before
// it copies again, so that the writer can finish.
func (rd *Reader) readRecord(sp shm.Span, buf []byte) {
	for {
		v := sp.Load(recVerWord)
		sp.Read(recValueWord*layout.WordBytes, buf)
		switch {
		case sp.Load(recVerWord) != v:
		case v&1 == 0 || !tagLive(rd.r.Pool(), v, false):
			return
		default:
			runtime.Gosched()
		}
	}
}

// RangeBuckets walks the records of count consecutive buckets starting at
// bucket start (wrapping around the table), calling f until it returns
// false. It is the batch-scan primitive of the serving tier: a bounded
// window of the index walked lock-free. A record is surfaced only once its
// copy and its next pointer read under an unchanged, settled unlink word of
// its bucket; when the word moves, the walk goes again from the bucket's
// head to the first key below the last one surfaced, so each record present
// throughout is surfaced once, in descending key order. The value slice is
// reused between calls. Returns how many records f accepted.
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
		ui := s.unlinkIdx(b)
		u := rd.settled(ui)
		rec := rd.idx.Load(b)
		below := uint64(math.MaxUint64) // every key above it is surfaced
		for hops := 0; rec != 0 && hops <= s.buckets+1024; {
			sp := rd.r.Span(rec)
			key := sp.Load(recKeyWord)
			rd.readRecord(sp, buf)
			next := sp.Load(recNextIdx)
			if rd.idx.Load(ui) != u {
				rec, u = rd.rewalk(ui, b, below)
				continue
			}
			if !f(key, buf) {
				return seen + 1
			}
			seen++
			hops++
			below, rec = key-1, next
		}
	}
	return seen
}

// rewalk walks bucket b again to the first record whose key is at most
// below, and returns it with the settled load u of b's unlink word ui taken
// before the walk. A chain's end found there stands only once the word
// confirms it; a record is validated as it is surfaced.
func (rd *Reader) rewalk(ui, b int, below uint64) (at layout.Addr, u uint64) {
	for {
		u = rd.settled(ui)
		if _, _, at, _, _ = rd.seek(below, b); at != 0 || rd.idx.Load(ui) == u {
			return at, u
		}
	}
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
