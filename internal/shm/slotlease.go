package shm

// Slot leases: the client-lifecycle refactor that decouples attach cost
// from MaxClients. A client slot is leased, not merely claimed: the
// free-slot bitmap (layout.SlotMapBase) lets Connect find a candidate in
// O(1) device reads instead of an O(M) status scan, and the per-slot
// generation word (layout.SlotGenBase) stamps each lease so stale handles
// and half-finished transitions are detectable.
//
// Protocol invariants:
//
//   - The status word is the only authority on a lease. The bitmap is an
//     accelerator that may be wrong either way: a set bit means "probably
//     claimable", and the claim commit point is the status CAS
//     (FREE/RECOVERED → ALIVE), never the bitmap. A set bit over a leased
//     slot costs its next claimer one failed CAS, which clears it. A clear
//     bit over a claimable slot hides the slot until a Connect finds the
//     bitmap empty and falls back to the status scan, which sets the bit of
//     every claimable slot it passes. Nothing else keeps the bitmap, and
//     fsck does not check it.
//   - Generation parity tracks the lease: odd while leased (ALIVE or DEAD),
//     even while claimable (FREE or RECOVERED). Claim bumps even→odd after
//     the status CAS; recovery bumps odd→even before publishing RECOVERED.
//     Both bumps are idempotent (a word already at the target parity is
//     left alone), so every crash window between the status word and the
//     generation word is closed by re-running the transition.
//   - Crash ordering: a claimer that dies between its status CAS and its
//     generation bump leaves ALIVE+even; the monitor fences it and recovery
//     (whose release bump is a no-op on even) publishes RECOVERED+even —
//     consistent. Recovery dying between its generation bump and the
//     RECOVERED store leaves DEAD+even, which the monitor simply recovers
//     again. A slot can therefore never get stuck with a parity its status
//     disallows; internal/check flags any such disagreement as a
//     stale-lease issue.
//   - One recoverer at a time: a recovery pass runs under the DEAD slot's
//     recovery claim (ClaimRecovery), a word in the pool, so the exclusion
//     holds between recovery services in different processes.

import (
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/layout"
)

// SlotExhaustedError is the error Connect returns when no client slot is
// claimable, carrying the slot census so callers (and operators reading the
// message) can tell "pool is full of live clients" from "dead clients are
// piling up faster than recovery drains them". errors.Is(err,
// ErrTooManyClients) still matches it.
type SlotExhaustedError struct {
	Capacity int // MaxClients: total slots in the pool
	Alive    int // slots held by live clients
	Dead     int // slots held by dead clients awaiting recovery
}

func (e *SlotExhaustedError) Error() string {
	return fmt.Sprintf("shm: no free client slot (capacity %d: %d alive, %d dead awaiting recovery)",
		e.Capacity, e.Alive, e.Dead)
}

// Is keeps the sentinel contract: errors.Is(err, ErrTooManyClients).
func (e *SlotExhaustedError) Is(target error) bool { return target == ErrTooManyClients }

// SlotGeneration reads cid's lease-generation word.
func (p *Pool) SlotGeneration(cid int) uint64 {
	return p.dev.Load(p.geo.SlotGenAddr(cid))
}

// claimSlot finds and claims a claimable slot, returning its cid or 0 when
// the pool is exhausted. The bitmap walk costs O(M/64) loads and — when the
// bitmap is fresh — exactly one status CAS, independent of how many slots
// are occupied; each stale bit costs one extra CAS to clear. A walk that
// finds nothing falls back to the status words, which are authoritative:
// one O(M) scan sets the bit of every claimable slot (a bit lost to a crash
// or a race comes back here), and a second walk claims one of them.
func (p *Pool) claimSlot() int {
	if cid := p.claimFromMap(); cid != 0 {
		return cid
	}
	for cid := 1; cid <= p.geo.MaxClients; cid++ {
		if s := p.ClientStatus(cid); s == layout.ClientSlotFree || s == layout.ClientRecovered {
			p.publishSlotBit(cid)
		}
	}
	return p.claimFromMap()
}

// claimFromMap claims the first slot whose bitmap bit is set and whose
// status CAS takes, clearing the bit of every slot it passes or takes.
func (p *Pool) claimFromMap() int {
	geo := p.geo
	for w := 0; w < int(geo.SlotMapWords); w++ {
		a := geo.SlotMapAddr(w)
		for {
			bm := p.dev.Load(a)
			if bm == 0 {
				break
			}
			bit := bm & (^bm + 1) // lowest set bit
			cid := w*64 + bits.TrailingZeros64(bm) + 1
			claimed := cid <= geo.MaxClients && p.tryClaimSlot(cid)
			// Retire the bit, taken or stale (a lost race, or a bit beyond
			// MaxClients). Best effort: losing this CAS leaves a stale set
			// bit, which only costs the next claimer one failed CAS.
			p.dev.CAS(a, bm, bm&^bit)
			if claimed {
				return cid
			}
		}
	}
	return 0
}

// tryClaimSlot attempts the claim commit point on one slot: a status CAS
// from a claimable state to ALIVE.
func (p *Pool) tryClaimSlot(cid int) bool {
	if cid < 1 || cid > p.geo.MaxClients {
		return false
	}
	a := p.geo.ClientStatusAddr(cid)
	s := p.dev.Load(a)
	if s != layout.ClientSlotFree && s != layout.ClientRecovered {
		return false
	}
	return p.dev.CAS(a, s, layout.ClientAlive)
}

// stampLeaseGen moves a freshly claimed slot's generation to odd ("leased")
// and returns the lease generation. Idempotent: an already-odd word (a
// previous claimer died right after its own bump and the slot came back
// through recovery... impossible by the release ordering, but harmless)
// is returned unchanged.
func (p *Pool) stampLeaseGen(cid int) uint64 {
	a := p.geo.SlotGenAddr(cid)
	g := p.dev.Load(a)
	if g%2 == 0 {
		g++
		p.dev.Store(a, g)
	}
	return g
}

// FinishSlotLease completes a recovered client's lease release in the
// crash-safe order: generation to even first (a crash after it leaves a
// DEAD slot with an even generation, which the monitor simply recovers
// again — the bump back is a no-op), then the status word to RECOVERED
// (the commit point that makes the slot claimable), then the bitmap bit
// (accelerator only: a Connect that takes the slot in between leaves a
// stale set bit, which costs the next claimer one failed CAS). Called by
// the recovery service as its final step.
func (p *Pool) FinishSlotLease(cid int) {
	ga := p.geo.SlotGenAddr(cid)
	if g := p.dev.Load(ga); g%2 == 1 {
		p.dev.Store(ga, g+1)
	}
	p.dev.Store(p.geo.ClientStatusAddr(cid), layout.ClientRecovered)
	p.publishSlotBit(cid)
}

// ClaimRecovery takes DEAD client cid's recovery claim for c, the executor
// about to run cid's recovery pass; ReleaseRecovery lets it go once the pass
// has stored RECOVERED, so whoever takes it next reads the slot settled,
// never DEAD from the death just recovered. The claim is client-state word 3:
// 0 when free, else the holder's lease word (layout.PackLease).
//
// The word is read first, so a refusal writes nothing. The claim is taken
// from 0; kept if c holds it already (a pass of c's was cut short by a panic;
// an executor runs one pass at a time); or stolen from a holder whose
// incarnation has been recovered since (its lease generation moved). A holder
// that is merely DEAD is not enough: its interrupted era transaction must be
// replayed before anyone sweeps the victim's roots again, so a dead executor
// is recovered before the clients it claimed. Any other holder is running a
// pass: ErrRecoveryInProgress. With the claim held, cid must still be DEAD;
// if a pass finished meanwhile, the claim is let go and "not dead" returned.
func (c *Client) ClaimRecovery(cid int) error {
	p := c.pool
	if err := p.checkDead(cid); err != nil {
		return err
	}
	a := p.geo.ClientClaimAddr(cid)
	own := c.claimWord()
	for {
		cur := c.h.Load(a)
		if cur == own {
			break
		}
		if cur != 0 && !p.claimStale(cur) {
			return ErrRecoveryInProgress
		}
		if c.h.CAS(a, cur, own) {
			break
		}
		if c.h.Fenced() {
			return ErrFenced
		}
	}
	if err := p.checkDead(cid); err != nil {
		c.ReleaseRecovery(cid)
		return err
	}
	return nil
}

// ReleaseRecovery lets go of cid's recovery claim if c holds it.
func (c *Client) ReleaseRecovery(cid int) {
	c.h.CAS(c.pool.geo.ClientClaimAddr(cid), c.claimWord(), 0)
}

func (c *Client) claimWord() uint64 { return layout.PackLease(c.cid, c.gen) }

// claimStale reports whether claim word w names a holder that can no longer
// be running a pass: its incarnation has been recovered (the slot's lease
// generation moved), or the cid is not a slot at all.
func (p *Pool) claimStale(w uint64) bool {
	holder, gen := layout.UnpackLease(w)
	return holder < 1 || holder > p.geo.MaxClients || p.SlotGeneration(holder) != gen
}

func (p *Pool) checkDead(cid int) error {
	if s := p.ClientStatus(cid); s != layout.ClientDead {
		return fmt.Errorf("shm: client %d not dead (status %d)", cid, s)
	}
	return nil
}

// RecoverDeadSlots runs recoverFn on every DEAD slot, in rounds. A slot whose
// claim a dead executor holds answers ErrRecoveryInProgress until that
// executor is recovered, which may come later in cid order, so those slots
// are tried again while a round recovers anything. It returns the errors of
// the slots it could not recover, each naming its cid.
func (p *Pool) RecoverDeadSlots(recoverFn func(cid int) error) error {
	var retry []int
	for cid := 1; cid <= p.geo.MaxClients; cid++ {
		if p.ClientStatus(cid) == layout.ClientDead {
			retry = append(retry, cid)
		}
	}
	var errs []error
	for len(retry) > 0 {
		round, recovered := retry, false
		retry = nil
		for _, cid := range round {
			switch err := recoverFn(cid); {
			case err == nil:
				recovered = true
			case errors.Is(err, ErrRecoveryInProgress):
				retry = append(retry, cid)
			default:
				errs = append(errs, fmt.Errorf("client %d: %w", cid, err))
			}
		}
		if !recovered {
			for _, cid := range retry {
				errs = append(errs, fmt.Errorf("client %d: %w", cid, ErrRecoveryInProgress))
			}
			break
		}
	}
	return errors.Join(errs...)
}

// SlotUnleased reports whether cid's slot is FREE or RECOVERED: no
// incarnation holds it, so no recovery pass is working on the segments
// still marked with its cid. cid 0 (a never-initialized header) counts too.
func (p *Pool) SlotUnleased(cid int) bool {
	if cid < 1 || cid > p.geo.MaxClients {
		return true
	}
	s := p.ClientStatus(cid)
	return s == layout.ClientRecovered || s == layout.ClientSlotFree
}

// publishSlotBit sets cid's free-slot bitmap bit. It only ever sets bits,
// so it never hides a slot; a bit it sets on a slot claimed meanwhile costs
// that slot's next claimer one failed CAS.
func (p *Pool) publishSlotBit(cid int) {
	a, bit := p.geo.SlotMapBit(cid)
	for {
		bm := p.dev.Load(a)
		if bm&bit != 0 || p.dev.CAS(a, bm, bm|bit) {
			return
		}
	}
}

// slotCensus counts leased slots for SlotExhaustedError and Usage.
func (p *Pool) slotCensus() (alive, dead int) {
	for cid := 1; cid <= p.geo.MaxClients; cid++ {
		switch p.ClientStatus(cid) {
		case layout.ClientAlive:
			alive++
		case layout.ClientDead:
			dead++
		}
	}
	return alive, dead
}
