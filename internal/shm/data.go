package shm

import (
	"fmt"

	"repro/internal/cxl"
	"repro/internal/layout"
)

// Direct data access (paper §3.1 step 5/6: get_addr + loads/stores/CAS).
// Every accessor is bounds-checked against the object's data area (writing
// past an object would clobber the next block's header). Offsets are
// relative to the whole data area, which *includes* the embedded-reference
// words at its start: callers that declared embedded references must not
// overwrite those words through these raw accessors — use the embed
// operations (SetEmbed/ChangeEmbed/...) which keep the counts right.

// Reader is the load side of a client: every data accessor that only reads
// device words. A Client embeds one over its own handle; NewReader makes a
// separate one, with a handle of its own on the same cid, for a goroutine
// that reads while the client's owner writes (the serving tier's lock-free
// GET/SCAN). A Reader, like a Client, belongs to one goroutine at a time;
// it can read, never write.
type Reader struct {
	pool *Pool
	h    *cxl.Handle
}

// NewReader returns a load-only view of the pool through a new handle on
// this client's cid: it reads what the client reads, priced and counted as
// the client's accesses, from another goroutine. Safe to call from any
// goroutine while the client is connected.
func (c *Client) NewReader() *Reader {
	return &Reader{pool: c.pool, h: c.pool.dev.Open(c.cid)}
}

// Pool returns the pool the reader reads.
func (r *Reader) Pool() *Pool { return r.pool }

// DataBytesOf returns the usable data size of an allocated block: its size
// class's capacity, word-rounded, not the length that was allocated (a block
// records only its size in words). A caller that needs the exact length
// carries it itself, as examples/rpc and the MapReduce splits do.
func (r *Reader) DataBytesOf(block layout.Addr) int {
	m := layout.UnpackMeta(r.h.Load(block + layout.MetaOff))
	if !m.Allocated() {
		return 0
	}
	return int(m.BlockWords-layout.BlockHeaderWords) * layout.WordBytes
}

// ReadData copies n=len(p) bytes from the object's data area at byte offset
// off. Accesses outside the object panic.
func (r *Reader) ReadData(block layout.Addr, off int, p []byte) { r.Span(block).Read(off, p) }

// WriteData writes p into the object's data area at byte offset off.
// Accesses outside the object panic.
func (c *Client) WriteData(block layout.Addr, off int, p []byte) { c.WriteSpan(block).Write(off, p) }

// LoadWord atomically reads data word i of the object.
func (r *Reader) LoadWord(block layout.Addr, i int) uint64 { return r.Span(block).Load(i) }

// StoreWord atomically writes data word i of the object.
func (c *Client) StoreWord(block layout.Addr, i int, v uint64) { c.WriteSpan(block).Store(i, v) }

// CASWord atomically compares-and-swaps data word i of the object —
// the RDSM primitive that shared-everything data structures build on.
func (c *Client) CASWord(block layout.Addr, i int, old, new uint64) bool {
	s := c.Span(block)
	s.check(i*layout.WordBytes, layout.WordBytes)
	return c.h.CAS(s.data+layout.Addr(i), old, new)
}

// HeaderOf reads an object's header (for validation and tests).
func (r *Reader) HeaderOf(block layout.Addr) layout.Header {
	return layout.UnpackHeader(r.h.Load(block + layout.HeaderOff))
}

// MetaOf reads an object's meta word (for validation and tests).
func (r *Reader) MetaOf(block layout.Addr) layout.Meta {
	return layout.UnpackMeta(r.h.Load(block + layout.MetaOff))
}

// Span is one object's data area with its bounds read once: the meta load
// is paid when the span is taken, and its accessors check against the size
// seen then. A data structure that touches several words of one record — a
// version word, a key and a value — pays one meta load instead of one per
// access. The bound is the object's size class, which a block keeps while
// it is free and reused, so a span stays in bounds for whoever reads it;
// what it reads is the caller's to validate, as for any lock-free read. The
// span keeps the object's embedded-reference count too, read from the same
// meta word, which bounds PushEmbed's holder while the object is allocated.
type Span struct {
	h      *cxl.Handle
	data   layout.Addr
	limit  int // data-area bytes
	embeds int // embedded references at the start of the data area
}

// Span reads block's meta word and returns the span of its data area.
func (r *Reader) Span(block layout.Addr) Span {
	return spanOf(r.h, block, layout.UnpackMeta(r.h.Load(block+layout.MetaOff)))
}

func spanOf(h *cxl.Handle, block layout.Addr, m layout.Meta) Span {
	return Span{h: h, data: block + layout.DataOff,
		limit: int(m.BlockWords-layout.BlockHeaderWords) * layout.WordBytes, embeds: int(m.EmbedCnt)}
}

// Block returns the address of the block whose data area s spans.
func (s Span) Block() layout.Addr { return s.data - layout.DataOff }

// check panics on an access past the object's data area. Writing past an
// object would clobber the neighbouring block's header — precisely the
// corruption class this system exists to prevent — so, like a wild device
// access, it is treated as a bug, not a recoverable error.
func (s Span) check(off, n int) {
	if off < 0 || n < 0 || off+n > s.limit {
		panic(fmt.Sprintf("shm: data access [%d,%d) outside object of %d bytes at %#x",
			off, off+n, s.limit, s.data-layout.DataOff))
	}
}

// Load atomically reads data word i.
func (s Span) Load(i int) uint64 {
	s.check(i*layout.WordBytes, layout.WordBytes)
	return s.h.Load(s.data + layout.Addr(i))
}

// Read copies len(p) bytes from byte offset off of the data area.
func (s Span) Read(off int, p []byte) {
	s.check(off, len(p))
	s.h.ReadBytes(s.data, off, p)
}

// WriteSpan is a Span of the writing client: the same bounds read once, plus
// stores through the client's fenceable handle.
type WriteSpan struct{ Span }

// WriteSpan returns the writable span of block's data area, from the
// client's block shadow when it holds the block's meta word (a block this
// client allocated) and from the device otherwise.
func (c *Client) WriteSpan(block layout.Addr) WriteSpan {
	return WriteSpan{spanOf(c.h, block, c.metaOf(c.blockRef(block), block))}
}

// Store atomically writes data word i.
func (s WriteSpan) Store(i int, v uint64) {
	s.check(i*layout.WordBytes, layout.WordBytes)
	s.h.Store(s.data+layout.Addr(i), v)
}

// Write stores p at byte offset off of the data area.
func (s WriteSpan) Write(off int, p []byte) {
	s.check(off, len(p))
	s.h.WriteBytes(s.data, off, p)
}
