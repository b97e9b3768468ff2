package shm

import "repro/internal/layout"

// Redo log (paper §3.3, §4.3). Each client owns a fixed redo area in its
// ClientLocalState holding at most one in-flight era transaction:
//
//	word 0: valid bit (63) | op (62:56) | low 32 bits of the era at log
//	        time (55:24)
//	        | saved reference count of refed (15:0; a move's MoveLink flag)
//	word 1: ref   — address of the reference word (ModifyRef target)
//	word 2: refed — address of the object whose count is modified
//	                (for change: object A, the one being decremented)
//	word 3: refed2 — for change: object B, the one being incremented
//	word 4: saved reference count of refed2 at the last CAS attempt
//	word 5..7: reserved
//
// The entry is (re)written before every CAS attempt. Packing the op, the
// era, and the saved count into the commit word keeps an attach/release log
// at three stores, a move (linking or not) at four, and a change log at
// five, and — because the commit word is written last — a torn entry is
// never observed as valid with a mismatched era.
//
// Entries are NOT cleared when the transaction closes: the closing era bump
// makes Era[cid][cid] move past the logged era, so recovery can tell a
// stale entry (eraII has advanced past it — the transaction closed) from a
// live one (eraII still at the logged era, or within the bump distance of a
// change) without the extra invalidation store per transaction. Recovery
// still clears the entry before publishing RECOVERED, and Connect clears
// defensively, so an entry can never leak across incarnations.
//
// The entry keeps the era's low 32 bits; recovery widens them against
// Era[cid][cid] (layout.WidenEra), exact for any entry within 2³² eras of
// it. A client whose eras run on with no logged transaction (a malloc bumps,
// an owner's drop logs nothing) would carry an old entry to exactly 2³² eras
// later, where it reads as in flight again, so bumpEra clears an entry once
// the era is 2³¹ past it: no transaction is in flight then (one spans at
// most two bumps), and one store per 2³¹ eras costs nothing. Only the
// owning client writes the area; the recovery service reads it only after
// the owner is RAS-fenced.

// Op identifies the kind of an era transaction.
type Op uint8

// Transaction kinds recorded in the redo log.
const (
	OpNone    Op = 0
	OpAttach  Op = 1
	OpRelease Op = 2
	OpChange  Op = 3
	// OpMove transfers a counted reference between two reference words owned
	// by this client (queue receive: slot → fresh RootRef pptr; kv insert:
	// RootRef pptr → bucket) without touching the object's count — no
	// ModifyRefCnt phase, only idempotent ModifyRef stores, re-executed
	// wholesale by recovery while the era gate holds. Ref is the destination
	// word, Refed the object, Refed2 the source word being cleared. With
	// MoveLink in the saved-count field, the move first links the target it
	// displaces from Ref into the object's embedded reference 0.
	OpMove Op = 4
)

// MoveLink is the saved-count field of an OpMove entry that links the
// displaced destination target into the moved object's embed 0 (PushEmbed
// into a word that names an object; into an empty one it is a plain move).
// A move saves no count, so the field is free to carry the flag.
const MoveLink uint16 = 1

const (
	redoValidBit = uint64(1) << 63
	redoOpShift  = 56
	redoOpMask   = uint64(0x7f)
	redoEraShift = 24
	redoCntMask  = uint64(0xffff)
)

// RedoEntry is the decoded form of a client's redo area. Era is the low half
// of the era at log time (see the file comment).
type RedoEntry struct {
	Op        Op
	Era       uint32
	Ref       layout.Addr
	Refed     layout.Addr
	SavedCnt  uint16
	Refed2    layout.Addr
	SavedCnt2 uint16
}

// packRedoCommit packs the redo commit word (word 0).
func packRedoCommit(op Op, era uint32, savedCnt uint16) uint64 {
	return redoValidBit | uint64(op)<<redoOpShift | uint64(era)<<redoEraShift | uint64(savedCnt)
}

// logRedo records the in-flight transaction (line 8 of Figure 4(c)). The
// address stores precede the commit-word store, so the valid bit, the op,
// the era, and the saved count become visible atomically and last: x86-TSO
// makes one client's stores visible in program order, so a reader that
// loads a valid commit word, then the address words, reads this entry's.
//
// Words 3 and 4 (refed2/saved2) carry the second object of a change
// transaction (for move: the source reference word) and are consumed by
// recovery's replay only when the entry's op says so — attach/release
// entries skip those stores, move entries skip the saved2 store, and any
// stale words left from an older entry are dead data.
func (c *Client) logRedo(e RedoEntry) {
	base := c.geo.ClientRedoBase(c.cid)
	c.h.Store(base+1, e.Ref)
	c.h.Store(base+2, e.Refed)
	if e.Op == OpChange || e.Op == OpMove {
		c.h.Store(base+3, e.Refed2)
	}
	if e.Op == OpChange {
		c.h.Store(base+4, uint64(e.SavedCnt2))
	}
	c.h.Store(base, packRedoCommit(e.Op, e.Era, e.SavedCnt))
	c.logEra = c.era
}

// relogSavedCnt2 refreshes the phase-2 saved count of a change transaction
// on CAS retry, without touching the rest of the entry.
func (c *Client) relogSavedCnt2(cnt uint16) {
	c.h.Store(c.geo.ClientRedoBase(c.cid)+4, uint64(cnt))
}

// clearRedo invalidates the entry. Not part of any transaction close (the
// era distance does that job, see the file comment); called defensively by
// Connect, and by bumpEra 2³¹ eras after the entry was logged.
func (c *Client) clearRedo() {
	c.h.Store(c.geo.ClientRedoBase(c.cid), 0)
}

// ReadRedo reads client cid's redo entry. ok is false when no transaction
// was ever logged (or the entry was cleared). Callers must still compare the
// entry's era against Era[cid][cid] to distinguish an in-flight transaction
// from a long-closed one. Intended for the recovery service (after fencing
// cid) and for tests.
func (p *Pool) ReadRedo(cid int) (RedoEntry, bool) {
	base := p.geo.ClientRedoBase(cid)
	w0 := p.dev.Load(base)
	if w0&redoValidBit == 0 {
		return RedoEntry{}, false
	}
	return RedoEntry{
		Op:        Op(w0 >> redoOpShift & redoOpMask),
		Era:       uint32(w0 >> redoEraShift),
		SavedCnt:  uint16(w0 & redoCntMask),
		Ref:       p.dev.Load(base + 1),
		Refed:     p.dev.Load(base + 2),
		Refed2:    p.dev.Load(base + 3),
		SavedCnt2: uint16(p.dev.Load(base + 4)),
	}, true
}

// ClearRedo invalidates cid's redo entry (recovery hygiene).
func (p *Pool) ClearRedo(cid int) {
	p.dev.Store(p.geo.ClientRedoBase(cid), 0)
}
