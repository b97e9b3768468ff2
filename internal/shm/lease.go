package shm

import "repro/internal/layout"

// Byte leases: zero-copy access to an object's data area (paper §3.1,
// step 5/6 — after get_addr, clients touch data with plain loads and
// stores; the allocator API is only the control plane).
//
// A Lease wraps a []byte that aliases the device words backing the
// object's data area directly — no copy in, no copy out. ReadData and
// WriteData stay the portable path; a lease is the fast path for
// payload-sized transfers (the kv store's View/Update, bulk codecs) where
// the copy itself dominates the operation.
//
// Safety contract, enforced where possible and documented where not:
//
//   - The caller must keep the block live for the lease's whole lifetime:
//     hold a counted reference (a RootRef or an embedded reference), or
//     run under an equivalent protocol — the kv store's View validates
//     after reading (still allocated, still the same key) and retries,
//     like its Get. The lease itself is NOT a reference: it pins nothing, and a
//     concurrent free would hand the bytes to the next allocation. This
//     mirrors the hardware reality — get_addr hands out a raw pointer and
//     the reference count is what keeps it meaningful.
//   - At most one live lease per block per client (ErrLeaseAliased):
//     two mutable byte views of the same object invite unordered
//     overlapping writes. Cross-client aliasing is the data structure's
//     concern, exactly as it is for StoreWord.
//   - The window covers the object's data area only — the same bounds
//     ReadData/WriteData enforce — so lease writes can never reach the
//     block's header/meta or a neighbour. Like the raw accessors, the
//     data area includes any declared embedded-reference words at its
//     start; leaseholders must not scribble on those (use SetEmbed).
//   - Lease traffic bypasses the Handle: no latency model, no access
//     counters, no RAS fence check. That is faithful (data-plane loads
//     and stores do not traverse the allocator on real hardware, and a
//     fenced client's cached mappings stay readable) but it means the
//     access-budget tests count a lease as zero device words.
//
// Acquire costs zero device accesses in the steady state: bounds come
// from the block-meta shadow (refcache.go) and the byte window is an
// unsafe view of the backing array (cxl.Device.DataWindow). Wrappers are
// recycled through a freelist so acquire/release allocates nothing after
// warm-up — the property the kv store's zero-alloc read path pins.

// Lease is a live zero-copy byte view of one object's data area.
// It is owned by the acquiring client and is not safe for concurrent use.
type Lease struct {
	c     *Client
	block layout.Addr
	buf   []byte
}

// Bytes returns the leased window. The slice aliases device memory: it is
// valid only until Release, and only while the caller's counted reference
// to the block exists.
func (l *Lease) Bytes() []byte { return l.buf }

// Block returns the leased object's address.
func (l *Lease) Block() layout.Addr { return l.block }

// AcquireLease returns a zero-copy byte lease over the object's data
// area. The caller must hold a counted reference to block and must call
// ReleaseLease before dropping it. Fails with ErrLeaseAliased if this
// client already holds a live lease on the block, ErrStaleReference if
// the block is not allocated, and ErrNoDirectAccess if the backend cannot
// alias its memory (fall back to ReadData/WriteData).
func (c *Client) AcquireLease(block layout.Addr) (*Lease, error) {
	if _, live := c.leases[block]; live {
		return nil, ErrLeaseAliased
	}
	m := c.metaOf(c.blockRef(block), block)
	if !m.Allocated() {
		return nil, ErrStaleReference
	}
	nbytes := int(m.BlockWords-layout.BlockHeaderWords) * layout.WordBytes
	buf := c.pool.DataWindow(block+layout.DataOff, nbytes)
	if buf == nil {
		return nil, ErrNoDirectAccess
	}
	var l *Lease
	if n := len(c.leasePool); n > 0 {
		l = c.leasePool[n-1]
		c.leasePool = c.leasePool[:n-1]
	} else {
		l = new(Lease)
	}
	l.c, l.block, l.buf = c, block, buf
	c.leases[block] = l
	return l, nil
}

// ReleaseLease ends the lease and invalidates its byte window. Releasing
// a lease this client does not hold (double release, or another client's
// lease) is a no-op.
func (c *Client) ReleaseLease(l *Lease) {
	if l == nil || l.c != c || c.leases[l.block] != l {
		return
	}
	delete(c.leases, l.block)
	l.c, l.block, l.buf = nil, 0, nil
	c.leasePool = append(c.leasePool, l)
}

// Leased reports whether this client holds a live lease on block (tests,
// assertions).
func (c *Client) Leased(block layout.Addr) bool {
	_, ok := c.leases[block]
	return ok
}
