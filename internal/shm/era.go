package shm

import (
	"repro/internal/layout"
	"repro/internal/obs"
)

// The era-based non-blocking reference count maintenance algorithm
// (paper §4.3, Figure 4).
//
// A transaction has two phases: ModifyRefCnt — a single CAS on the object
// header {lcid, lera, ref_cnt}, not idempotent, never redone, the commit
// point — and ModifyRef — writing the reference word, idempotent under the
// single-writer-multi-reader rule, replayed by recovery when the client dies
// between the phases. The era matrix (each client's row in its
// ClientLocalState) provides the happens-before evidence recovery needs:
//
//	Condition 1: the last-touched object's header still carries
//	             (lcid==i, lera==Era[i][i]).
//	Condition 2: Era[i][i] <= max over j!=i of Era[j][i].
//
// Both conditions rely on every published (cid, era) pair being unique to a
// single commit, which is why allocation's header init and every commit CAS
// are followed by an era bump. The redo entry is NOT cleared when the
// transaction closes: the closing bump advances Era[cid][cid] past the
// entry's logged era, and recovery treats an entry whose era the client has
// moved past as closed (redo.go) — saving one device store per transaction.
//
// One release is no transaction: the owner's drop of its last reference to a
// block of its own pages (releaseTxnMode) CASes the header to 0 and frees,
// logging nothing, publishing no pair and bumping no era. The owner's
// recovery sweeps every root and scans every ACTIVE segment it owns, and so
// finishes whatever a crash cuts short (DESIGN.md §4c).

// AttachReference attaches the reference at ref to the object at refed:
// refed.ref_cnt++ then *ref = refed (Figure 4(c) verbatim). ref must be a
// reference word owned (written) solely by this client: a RootRef pptr, an
// owned queue slot, or an embedded reference under the single-writer rule.
func (c *Client) AttachReference(ref, refed layout.Addr) error {
	// The first CAS attempt is seeded from the block shadow when this client
	// allocated refed (refcache.go): a stale guess cannot commit (the commit
	// is a full-word compare) and simply falls back to a device load.
	bs := c.blockRef(refed)
	savedW, guessed := c.guessHeader(bs, refed)
	for {
		saved := layout.UnpackHeader(savedW)
		if saved.RefCnt == 0 || saved.RefCnt == layout.MaxRefCount {
			if guessed {
				savedW, guessed = c.h.Load(refed+layout.HeaderOff), false
				continue
			}
			if saved.RefCnt == 0 {
				return ErrStaleReference
			}
			return ErrRefCountOverflow
		}
		c.observeEra(saved.LCID, saved.LEra) // lines 4-6
		c.logRedo(RedoEntry{
			Op: OpAttach, Era: c.era, Ref: ref, Refed: refed, SavedCnt: saved.RefCnt,
		})
		newW := layout.PackHeader(layout.Header{
			LCID: uint16(c.cid), LEra: c.era, RefCnt: saved.RefCnt + 1,
		})
		c.loc[obs.CtrCASAttempt]++
		if c.h.CAS(refed+layout.HeaderOff, savedW, newW) {
			bs.noteHeader(newW)
			break
		}
		c.loc[obs.CtrCASRetry]++
		if c.h.Fenced() {
			return ErrFenced
		}
		savedW, guessed = c.h.Load(refed+layout.HeaderOff), false
	}
	c.h.Store(ref, refed) // ModifyRef
	c.noteRootTarget(ref, refed)
	c.bumpEra() // closes the transaction; the redo entry is now stale by era
	return nil
}

// ReleaseReference releases the reference at ref to the object at refed:
// refed.ref_cnt-- then *ref = NULL, reclaiming the object if the count
// reached zero (§5.3). Reports whether this release freed the object.
func (c *Client) ReleaseReference(ref, refed layout.Addr) (freed bool, err error) {
	newCnt, pending, err := c.releaseTxnMode(ref, refed, false, 0, 0)
	if err != nil {
		return false, err
	}
	if pending {
		c.cascadeFree(refed, false)
	}
	return newCnt == 0, nil
}

// releaseTxnMode runs the decrement transaction and returns the new count.
//
// When the count reaches zero and the object is plain (no embedded
// references), it is reclaimed inline before the transaction closes: a crash
// mid-reclaim leaves the redo entry valid, and recovery — seeing a release
// that hit zero — flags the segment POTENTIAL_LEAKING instead of redoing the
// non-idempotent free (§5.3). When the object carries embedded references,
// the reclaim needs further transactions, so this transaction flags the
// segment itself before closing and the caller runs the cascade afterwards.
//
// A caller that has read refed's header word passes it as hdrW, the first CAS
// guess; goneW is as for reclaimRaw. Zero means not read. elideModify marks
// ref as the pptr of a RootRef slot the caller frees next, shadow included
// (ReleaseRoot).
//
// Such a release of the last reference to a block in one of this client's own
// pages is the owner's drop (dropLastRef): the header CAS to 0 and the free,
// with no redo entry and no era bump. Once an attempt has logged (it saw a
// count above 1 and lost its CAS), the call stays on the logged path.
func (c *Client) releaseTxnMode(ref, refed layout.Addr, elideModify bool, hdrW, goneW uint64) (newCnt uint16, pendingReclaim bool, err error) {
	if c.h.Fenced() {
		return 0, false, ErrFenced
	}
	// Resolved once, for the CAS guess (see AttachReference) down to the reclaim.
	// A block in an owned page is never huge: a huge object owns whole segments.
	op, bs := c.blockOf(refed)
	drop := elideModify && op != nil
	savedW, guessed := hdrW, true
	if hdrW == 0 {
		savedW, guessed = c.guessHeader(bs, refed)
	}
	for {
		saved := layout.UnpackHeader(savedW)
		if saved.RefCnt == 0 {
			if guessed {
				savedW, guessed = c.h.Load(refed+layout.HeaderOff), false
				continue
			}
			return 0, false, ErrStaleReference
		}
		if drop && saved.RefCnt == 1 {
			if c.dropLastRef(refed, savedW) {
				if m := c.metaOf(bs, refed); m.EmbedCnt == 0 {
					c.reclaimRaw(refed, m, op, bs, 0, true)
				} else {
					c.cascadeFree(refed, true)
				}
				return 0, false, nil
			}
		} else {
			drop = false
			c.observeEra(saved.LCID, saved.LEra)
			c.logRedo(RedoEntry{
				Op: OpRelease, Era: c.era, Ref: ref, Refed: refed, SavedCnt: saved.RefCnt,
			})
			newCnt = saved.RefCnt - 1
			newW := layout.PackHeader(layout.Header{
				LCID: uint16(c.cid), LEra: c.era, RefCnt: newCnt,
			})
			c.loc[obs.CtrCASAttempt]++
			if c.h.CAS(refed+layout.HeaderOff, savedW, newW) {
				bs.noteHeader(newW)
				break
			}
			c.loc[obs.CtrCASRetry]++
		}
		if c.h.Fenced() {
			return 0, false, ErrFenced
		}
		savedW, guessed = c.h.Load(refed+layout.HeaderOff), false
	}
	if newCnt != 0 {
		c.h.Store(ref, 0) // ModifyRef
		if !elideModify {
			c.noteRootTarget(ref, 0)
		}
		c.bumpEra() // closes the transaction; the redo entry is now stale by era
		return newCnt, false, nil
	}
	m := c.metaOf(bs, refed)
	// ModifyRef elision (ReleaseRoot only): when the count hit zero, the
	// reference is a RootRef pptr the caller is about to free, and the block
	// reclaims into the owner's pending tier, the pptr store is dead — the
	// slot's word0←0 store makes it unreachable, and the publication burst
	// reuses the word as the free-chain next. Crash-wise nothing is new: a
	// crash before the slot clear leaves an in_use slot over a refcount-zero
	// block, which SweepRootRefSlot already resolves by clearing the slot,
	// and recovery's redo replay performs the elided store itself.
	elide := elideModify && m.EmbedCnt == 0 && op != nil
	if !elide {
		c.h.Store(ref, 0) // ModifyRef
		if !elideModify {
			c.noteRootTarget(ref, 0)
		}
	}
	if m.EmbedCnt == 0 {
		// Plain object: reclaim inside the transaction window. A crash
		// here is covered by the still-valid redo entry (recovery flags
		// the segment, §5.3).
		c.reclaimRaw(refed, m, op, bs, goneW, false)
	} else {
		// Embed-carrying object: the cascade needs its own transactions,
		// so flag the segment before this transaction closes; the caller
		// must run the cascade once we return.
		c.flagSegmentLeaking(refed)
		pendingReclaim = true
	}
	c.bumpEra() // closes the transaction; the redo entry is now stale by era
	return newCnt, pendingReclaim, nil
}

// dropLastRef erases block's header word hdrW by CAS to 0, for a caller that
// holds the block's last reference and whose free follows with no era
// transaction: the owner's drop (releaseTxnMode) and a recovery pass's drop
// of its victim's last references (SweepRootRefSlot). The header's
// (lcid, lera) pair is witnessed first, as a release would: the CAS erases
// it, and a client whose commit it records may still need Condition 2
// (§4.3). Nothing is published, so era uniqueness is untouched. A crash after
// the CAS leaves an allocated block at count 0 under lcid 0, which reads as
// dead: the block's owner's recovery (or, for a recovery pass, the same pass)
// scans its ACTIVE segment and frees it (DESIGN.md §4c). Reports whether the
// CAS took; a lost one means the count moved.
func (c *Client) dropLastRef(block layout.Addr, hdrW uint64) bool {
	hdr := layout.UnpackHeader(hdrW)
	c.observeEra(hdr.LCID, hdr.LEra)
	c.loc[obs.CtrCASAttempt]++
	if c.h.CAS(block+layout.HeaderOff, hdrW, 0) {
		return true
	}
	c.loc[obs.CtrCASRetry]++
	return false
}

// moveRef transfers the counted reference held by the reference word at src
// to the reference word at dst: *dst = target, then *src = NULL, with
// target's reference count untouched — the count keeps counting the same one
// reference throughout. This fuses the attach+release pair of a queue
// receive into a single transaction with no ModifyRefCnt phase at all: no
// header load, no CAS, no saved count. Both stores are idempotent ModifyRefs,
// so recovery simply re-executes the whole move from the redo entry while
// the era gate holds (Era[cid][cid] still at the logged era).
//
// With a displaced target (PushEmbed: the reference dst holds, which the
// caller, dst's only writer, has read), that reference moves too, into
// target's embed 0, stored before dst so that target is never reachable
// without its successor: the two references change words, and neither count
// changes. The entry then carries MoveLink, and recovery replays that store
// only while dst does not yet name target (after that, dst no longer holds
// the displaced reference to copy).
//
// Liveness of target needs no header check: the caller owns the reference at
// src, and a word-owned reference keeps the count above zero until its owner
// clears it — exactly what this transaction does last.
func (c *Client) moveRef(dst, src, target, displaced layout.Addr) error {
	if c.h.Fenced() {
		return ErrFenced
	}
	e := RedoEntry{Op: OpMove, Era: c.era, Ref: dst, Refed: target, Refed2: src}
	if displaced != 0 {
		e.SavedCnt = MoveLink
	}
	c.logRedo(e)
	if displaced != 0 {
		c.h.Store(target+layout.DataOff, displaced) // ModifyRef (target's embed 0)
	}
	c.h.Store(dst, target) // ModifyRef (destination)
	c.noteRootTarget(dst, target)
	c.h.Store(src, 0) // ModifyRef (source)
	c.bumpEra()
	return nil
}

// ChangeReference atomically re-points the embedded reference at ref from
// object a to object b (§5.4): decrement a via CAS, bump the era, increment
// b via CAS, write the reference, bump the era again. The double bump lets
// recovery tell which of the two non-idempotent CASes committed.
func (c *Client) ChangeReference(ref, a, b layout.Addr) error {
	if c.h.Fenced() {
		return ErrFenced
	}
	// The caller must hold a counted reference to b for the duration of the
	// change (§5.2's rule: hold a reference until the remote attachment
	// exists). Verify before phase 1 so a user error is rejected before the
	// first — unrollable — CAS commits.
	if pre := layout.UnpackHeader(c.h.Load(b + layout.HeaderOff)); pre.RefCnt == 0 {
		return ErrStaleReference
	}
	// Phase 1: decrement a.
	var newCntA uint16
	for {
		savedW := c.h.Load(a + layout.HeaderOff)
		saved := layout.UnpackHeader(savedW)
		if saved.RefCnt == 0 {
			return ErrStaleReference
		}
		c.observeEra(saved.LCID, saved.LEra)
		c.logRedo(RedoEntry{
			Op: OpChange, Era: c.era, Ref: ref, Refed: a, SavedCnt: saved.RefCnt, Refed2: b,
		})
		newCntA = saved.RefCnt - 1
		newW := layout.PackHeader(layout.Header{
			LCID: uint16(c.cid), LEra: c.era, RefCnt: newCntA,
		})
		c.loc[obs.CtrCASAttempt]++
		if c.h.CAS(a+layout.HeaderOff, savedW, newW) {
			c.blockRef(a).noteHeader(newW)
			break
		}
		c.loc[obs.CtrCASRetry]++
		if c.h.Fenced() {
			return ErrFenced
		}
	}
	c.bumpEra()

	// Phase 2: increment b.
	for {
		savedW := c.h.Load(b + layout.HeaderOff)
		saved := layout.UnpackHeader(savedW)
		if saved.RefCnt == 0 {
			return ErrStaleReference
		}
		if saved.RefCnt == layout.MaxRefCount {
			return ErrRefCountOverflow
		}
		c.observeEra(saved.LCID, saved.LEra)
		c.relogSavedCnt2(saved.RefCnt)
		newW := layout.PackHeader(layout.Header{
			LCID: uint16(c.cid), LEra: c.era, RefCnt: saved.RefCnt + 1,
		})
		c.loc[obs.CtrCASAttempt]++
		if c.h.CAS(b+layout.HeaderOff, savedW, newW) {
			c.blockRef(b).noteHeader(newW)
			break
		}
		c.loc[obs.CtrCASRetry]++
		if c.h.Fenced() {
			return ErrFenced
		}
	}
	c.h.Store(ref, b) // ModifyRef
	c.noteRootTarget(ref, b)
	c.bumpEra()
	if newCntA == 0 {
		// Flag synchronously after the second bump: recovery era-gates a
		// change entry's flag replay to within two bumps of the logged era,
		// so by the time a later transaction could overwrite this entry the
		// flag must already be on the device.
		c.flagSegmentLeaking(a)
		c.cascadeFree(a, false)
	}
	return nil
}

// CloneRoot increments a RootRef's thread-local count (cloning a CXLRef in
// the same thread, §5.2): no atomic instruction, no flush, no era
// transaction — the slot is single-writer, so the shadow (when present)
// supplies the current count without a device load.
func (c *Client) CloneRoot(root layout.Addr) {
	if rs := c.rootRef(root); rs != nil {
		rs.cnt++
		c.h.Store(root, layout.PackRootRef(true, rs.cnt))
		return
	}
	inUse, cnt := layout.UnpackRootRef(c.h.Load(root))
	if !inUse {
		panic("shm: CloneRoot on a free RootRef slot")
	}
	c.h.Store(root, layout.PackRootRef(true, cnt+1))
}

// resolveRoot returns a RootRef's page, shadow, local count and target: from
// the root shadow when this client claimed the slot (the common case —
// RootRefs are owner-local), else from the device, for a slot inherited from
// a previous incarnation. A count of 0 means the slot is free.
func (c *Client) resolveRoot(root layout.Addr) (op *ownedPage, rs *rootShadow, cnt uint32, target layout.Addr) {
	op, rs = c.rootOf(root)
	if rs != nil {
		return op, rs, rs.cnt, rs.target
	}
	inUse, cnt := layout.UnpackRootRef(c.h.Load(root))
	if !inUse || cnt == 0 {
		return op, nil, 0, 0
	}
	return op, nil, cnt, c.h.Load(root + layout.RootRefPptrOff)
}

// ReleaseRoot decrements a RootRef's thread-local count; when it reaches
// zero the RootRef's counted reference on the object is released — by the
// owner's drop when it is the last reference to a block of this client's
// pages, else via the era transaction — and the slot is freed. Reports
// whether the underlying object was freed.
func (c *Client) ReleaseRoot(root layout.Addr) (objectFreed bool, err error) {
	op, rs, cnt, target := c.resolveRoot(root)
	if cnt == 0 {
		return false, ErrStaleReference
	}
	if cnt > 1 {
		cnt--
		c.h.Store(root, layout.PackRootRef(true, cnt))
		if rs != nil {
			rs.cnt = cnt
		}
		return false, nil
	}
	if target != 0 {
		// The pptr store of the release is elided when the block reclaims
		// into the pending tier (releaseTxnMode, the owner's drop included):
		// the slot clear right below makes the word unreachable before
		// anything can read it.
		newCnt, pending, rerr := c.releaseTxnMode(root+layout.RootRefPptrOff, target, true, 0, 0)
		if rerr != nil {
			return false, rerr
		}
		if pending {
			c.cascadeFree(target, false)
		}
		objectFreed = newCnt == 0
	}
	c.freeRootRefSlot(op, rs, root)
	return objectFreed, nil
}

// AttachRoot takes a new counted reference to an existing object: it
// allocates a RootRef and attaches it with the standard era transaction.
// This is the core of cxl_receive_from and of any cross-client sharing.
func (c *Client) AttachRoot(block layout.Addr) (root layout.Addr, err error) {
	root, err = c.allocRootRef()
	if err != nil {
		return 0, err
	}
	if err := c.AttachReference(root+layout.RootRefPptrOff, block); err != nil {
		c.abortRootRef(root)
		return 0, err
	}
	return root, nil
}

// RootTarget reads the object address a RootRef points to (shadowed for
// slots this client claimed).
func (c *Client) RootTarget(root layout.Addr) layout.Addr {
	if rs := c.rootRef(root); rs != nil {
		return rs.target
	}
	return c.h.Load(root + layout.RootRefPptrOff)
}

// --- embedded references (§5.4) ---

// embedAddr returns the address of embedded reference idx of block.
func (r *Reader) embedAddr(block layout.Addr, idx int) (layout.Addr, error) {
	m := layout.UnpackMeta(r.h.Load(block + layout.MetaOff))
	if idx < 0 || idx >= int(m.EmbedCnt) {
		return 0, ErrBadEmbedIndex
	}
	return block + layout.DataOff + layout.Addr(idx), nil
}

// LoadEmbed reads embedded reference idx of block (0 if unset).
func (r *Reader) LoadEmbed(block layout.Addr, idx int) (layout.Addr, error) {
	ea, err := r.embedAddr(block, idx)
	if err != nil {
		return 0, err
	}
	return r.h.Load(ea), nil
}

// SetEmbed links embedded reference idx of block to target (must currently
// be unset; use ChangeEmbed to re-point). Single-writer: only one client may
// ever modify a given embedded reference.
func (c *Client) SetEmbed(block layout.Addr, idx int, target layout.Addr) error {
	ea, err := c.embedAddr(block, idx)
	if err != nil {
		return err
	}
	if c.h.Load(ea) != 0 {
		return ErrBadEmbedIndex
	}
	return c.AttachReference(ea, target)
}

// ClearEmbed unlinks embedded reference idx of block, releasing the target.
func (c *Client) ClearEmbed(block layout.Addr, idx int) error {
	ea, err := c.embedAddr(block, idx)
	if err != nil {
		return err
	}
	t := c.h.Load(ea)
	if t == 0 {
		return nil
	}
	_, err = c.ReleaseReference(ea, t)
	return err
}

// ChangeEmbed atomically re-points embedded reference idx of block to
// target (§5.4's change function).
func (c *Client) ChangeEmbed(block layout.Addr, idx int, target layout.Addr) error {
	ea, err := c.embedAddr(block, idx)
	if err != nil {
		return err
	}
	cur := c.h.Load(ea)
	if cur == 0 {
		return c.AttachReference(ea, target)
	}
	if cur == target {
		return nil
	}
	return c.ChangeReference(ea, cur, target)
}

// PushEmbed links the object root holds into a list at embedded reference
// idx of the block holder spans — a list's head word or any element's next;
// the kv insert of §6.4 links a record at its key's place in a chain. head,
// the reference that word holds now, goes into the object's embed 0, the
// word takes the object, and root's counted reference moves into that word
// — one move transaction (moveRef, head displaced), no header access, no
// count changed — then root's slot is freed. The holder's embed count comes
// from the span and head from the caller, so neither is loaded again. root
// must be the object's only RootRef clone (local count 1), and the object's
// embed 0 must be unset, as a fresh Malloc with an embedded reference leaves
// it. Single-writer: only this client may write holder's embedded reference
// idx, and head must be what it last read there.
func (c *Client) PushEmbed(holder Span, idx int, head, root layout.Addr) error {
	if idx < 0 || idx >= holder.embeds {
		return ErrBadEmbedIndex
	}
	op, rs, cnt, obj := c.resolveRoot(root)
	if cnt == 0 || obj == 0 {
		return ErrStaleReference
	}
	if cnt != 1 {
		return ErrRootCloned
	}
	if c.metaOf(c.blockRef(obj), obj).EmbedCnt == 0 || c.h.Load(obj+layout.DataOff) != 0 {
		return ErrBadEmbedIndex
	}
	if err := c.moveRef(holder.data+layout.Addr(idx), root+layout.RootRefPptrOff, obj, head); err != nil {
		return err
	}
	c.freeRootRefSlot(op, rs, root)
	return nil
}
