package shm

import (
	"repro/internal/layout"
	"repro/internal/obs"
)

// Reference transfer over shared single-producer-single-consumer queues
// (paper §5.2, Figure 5).
//
// A queue is an ordinary CXLObj whose embedded references are its slots, so
// in-flight references are owned by the queue object itself: if sender,
// receiver, or both die, the queue's reference count eventually reaches zero
// and the standard embedded-reference cascade releases every in-flight
// reference — no ambiguity about the ownership of a reference "on the wire".
// Ownership of a sent reference transfers atomically at the store that
// advances the tail offset.
//
// Queue object data layout (embedded slots must come first, §5.4):
//
//	data[0 .. cap-1]  slots (embedded references)
//	data[cap+0]       info: sender cid | receiver cid << 16 | registry idx << 32
//	data[cap+1]       head (absolute receive counter)
//	data[cap+2]       tail (absolute send counter)
//
// Queues are registered in the pool's queue registry so the recovery
// service and late-joining receivers can discover them.

// queueShadow caches one queue's fixed geometry plus Vyukov-style cached
// indices. The client's own end (tail for the sender, head for the receiver)
// is exact — it is single-writer and written through on every advance. The
// opposite end may lag behind the device: it is re-read only when the cached
// values make the queue look full (sender) or empty (receiver). A stale-low
// opposite index can only cause a spurious full/empty verdict — never an
// out-of-window slot access — so the re-read-on-miss repair is sufficient.
// Device words stay authoritative; recovery reads only the device.
type queueShadow struct {
	capacity     int
	headA, tailA layout.Addr
	head, tail   uint64
	// knownClean: this client created the queue in this incarnation, so no
	// slot can hold an orphan from a crashed predecessor — the sender-side
	// orphan probe (one load per send) is skipped. Never true for a shadow
	// rebuilt after reconnect: the flag is set only by CreateQueue itself.
	knownClean bool
}

// queueShadowOf returns (building on first use) the shadow for a queue
// block. The indices are seeded from the device, so a reconnecting client
// resumes exactly where its previous incarnation published.
func (c *Client) queueShadowOf(block layout.Addr) *queueShadow {
	if qs := c.queues[block]; qs != nil {
		return qs
	}
	m := layout.UnpackMeta(c.h.Load(block + layout.MetaOff))
	capacity := int(m.EmbedCnt)
	qs := &queueShadow{
		capacity: capacity,
		headA:    queueHeadAddr(block, capacity),
		tailA:    queueTailAddr(block, capacity),
	}
	qs.head = c.h.Load(qs.headA)
	qs.tail = c.h.Load(qs.tailA)
	c.queues[block] = qs
	return qs
}

// dropQueueShadow forgets a cached queue at a legitimate lifecycle boundary
// (the block was just created or opened, so any old cache under the same
// address belongs to a freed, recycled queue).
func (c *Client) dropQueueShadow(block layout.Addr) {
	delete(c.queues, block)
}

// queue data-area offsets relative to the block address.
func queueSlot(block layout.Addr, capacity int, i uint64) layout.Addr {
	return block + layout.DataOff + layout.Addr(i%uint64(capacity))
}
func queueInfoAddr(block layout.Addr, capacity int) layout.Addr {
	return block + layout.DataOff + layout.Addr(capacity)
}
func queueHeadAddr(block layout.Addr, capacity int) layout.Addr {
	return block + layout.DataOff + layout.Addr(capacity) + 1
}
func queueTailAddr(block layout.Addr, capacity int) layout.Addr {
	return block + layout.DataOff + layout.Addr(capacity) + 2
}

// QueueInfo describes a transfer queue's endpoints.
type QueueInfo struct {
	Sender   int
	Receiver int
	RegIdx   int
	Capacity int
}

func packQueueInfo(sender, receiver, reg int) uint64 {
	return uint64(uint16(sender)) | uint64(uint16(receiver))<<16 | uint64(uint32(reg))<<32
}

func unpackQueueInfo(w uint64) (sender, receiver, reg int) {
	return int(uint16(w)), int(uint16(w >> 16)), int(uint32(w >> 32))
}

// CreateQueue allocates and registers a transfer queue from this client to
// receiverCID. It returns the sender's RootRef for the queue object and the
// queue block address (which the receiver needs; discoverable through the
// registry as well).
func (c *Client) CreateQueue(receiverCID, capacity int) (root, block layout.Addr, err error) {
	return c.CreateQueueBetween(c.cid, receiverCID, capacity)
}

// CreateQueueBetween allocates and registers a transfer queue between two
// other clients (e.g. a coordinator wiring up its workers). The creator
// holds the returned RootRef and thereby owns the queue's lifetime; the
// endpoints typically OpenQueue their own references on top.
func (c *Client) CreateQueueBetween(senderCID, receiverCID, capacity int) (root, block layout.Addr, err error) {
	if capacity < 1 {
		capacity = 1
	}
	dataBytes := (capacity + 3) * layout.WordBytes
	root, block, err = c.Malloc(dataBytes, capacity)
	if err != nil {
		return 0, 0, err
	}
	// Mark the block as a queue before registering it: the registry sweep
	// clears entries pointing at non-queue blocks, so the other order would
	// race with the monitor.
	m := layout.UnpackMeta(c.h.Load(block + layout.MetaOff))
	m.Flags |= layout.MetaQueue
	mw := layout.PackMeta(m)
	c.h.Store(block+layout.MetaOff, mw)
	if bs := c.blockRef(block); bs != nil {
		bs.meta = mw
	}

	reg := -1
	for i := 0; i < c.geo.MaxQueues; i++ {
		a := c.geo.QueueRegAddr(i)
		if c.h.Load(a) == 0 && c.h.CAS(a, 0, block) {
			reg = i
			break
		}
	}
	if reg < 0 {
		if _, rerr := c.ReleaseRoot(root); rerr != nil {
			return 0, 0, rerr
		}
		return 0, 0, ErrNoQueueSlot
	}
	c.h.Store(queueInfoAddr(block, capacity), packQueueInfo(senderCID, receiverCID, reg))
	c.h.Store(queueHeadAddr(block, capacity), 0)
	c.h.Store(queueTailAddr(block, capacity), 0)
	c.dropQueueShadow(block)
	if senderCID == c.cid {
		// Creator is the sender: every slot starts zero and stays clean
		// within this incarnation (receives zero slots they consume), so
		// sends can skip the orphan probe.
		c.queueShadowOf(block).knownClean = true
	}
	return root, block, nil
}

// QueueInfoOf reads a queue block's endpoints and capacity.
func (c *Client) QueueInfoOf(block layout.Addr) QueueInfo {
	m := layout.UnpackMeta(c.h.Load(block + layout.MetaOff))
	capacity := int(m.EmbedCnt)
	s, r, reg := unpackQueueInfo(c.h.Load(queueInfoAddr(block, capacity)))
	return QueueInfo{Sender: s, Receiver: r, RegIdx: reg, Capacity: capacity}
}

// FindQueueFrom scans the registry for a queue whose sender is senderCID and
// whose receiver is this client. Returns the block address or 0.
func (c *Client) FindQueueFrom(senderCID int) layout.Addr {
	for i := 0; i < c.geo.MaxQueues; i++ {
		block := c.h.Load(c.geo.QueueRegAddr(i))
		if block == 0 {
			continue
		}
		m := layout.UnpackMeta(c.h.Load(block + layout.MetaOff))
		if !m.Allocated() || m.Flags&layout.MetaQueue == 0 {
			continue
		}
		qi := c.QueueInfoOf(block)
		if qi.Sender == senderCID && qi.Receiver == c.cid {
			return block
		}
	}
	return 0
}

// OpenQueue attaches this client's own counted reference (RootRef) to an
// existing queue block, so the queue object outlives either endpoint alone.
// Receivers must call this before their first Receive.
func (c *Client) OpenQueue(block layout.Addr) (root layout.Addr, err error) {
	c.dropQueueShadow(block)
	return c.AttachRoot(block)
}

// Send transfers a counted reference to target through the queue (paper
// cxl_send_to): attach the queue slot to the object with the standard era
// transaction — incrementing its count — then advance the tail, which is the
// atomic ownership-transfer point.
func (c *Client) Send(block layout.Addr, target layout.Addr) error {
	qs := c.queueShadowOf(block)
	if qs.tail-qs.head >= uint64(qs.capacity) {
		// Apparent full: re-read the receiver's head (the one word another
		// client advances) before giving up.
		qs.head = c.h.Load(qs.headA)
		if qs.tail-qs.head >= uint64(qs.capacity) {
			c.loc[obs.CtrQueueFull]++
			return ErrQueueFull
		}
	}
	slot := queueSlot(block, qs.capacity, qs.tail)
	if err := c.reclaimOrphanSlot(qs, slot); err != nil {
		return err
	}
	if err := c.AttachReference(slot, target); err != nil {
		return err
	}
	c.blockRef(target).noteHeader(0) // the receiver's release rewrites it: guessHeader
	qs.tail++
	c.h.Store(qs.tailA, qs.tail)
	c.loc[obs.CtrQueueSend]++
	return nil
}

// reclaimOrphanSlot drops the reference a crashed sender incarnation left in
// a queue slot it never published: its attach landed but the tail store did
// not, so ownership never transferred and, to the receiver, the send never
// happened. The slot is still at the sender's cursor position (the tail did
// not move), so the next send to it must release the orphan first —
// overwriting the slot word would leave the target's count holding a
// reference no slot records, a permanent leak.
func (c *Client) reclaimOrphanSlot(qs *queueShadow, slot layout.Addr) error {
	if qs.knownClean {
		return nil
	}
	old := c.h.Load(slot)
	if old == 0 {
		return nil
	}
	c.loc[obs.CtrQueueStaleSlot]++
	if _, err := c.ReleaseReference(slot, old); err != nil {
		if err == ErrStaleReference {
			// The target was reclaimed under the orphan (dead-owner scan);
			// just drop the dangling word.
			c.h.Store(slot, 0)
			return nil
		}
		return err
	}
	return nil
}

// Receive takes the next reference from the queue (paper cxl_receive_from):
// move the slot's counted reference onto a fresh RootRef (one CAS-free era
// transaction — the object's count never changes, so the paper's
// attach-then-release pair collapses into two ModifyRef stores), then
// advance the head. Returns the receiver's new RootRef and the object
// address, or ErrQueueEmpty.
func (c *Client) Receive(block layout.Addr) (root, target layout.Addr, err error) {
	qs := c.queueShadowOf(block)
	if qs.head == qs.tail {
		// Apparent empty: re-read the sender's tail before giving up.
		qs.tail = c.h.Load(qs.tailA)
		if qs.head == qs.tail {
			c.loc[obs.CtrQueueEmpty]++
			return 0, 0, ErrQueueEmpty
		}
	}
	slot := queueSlot(block, qs.capacity, qs.head)
	target = c.h.Load(slot)
	if target == 0 {
		// The slot was already released (the previous incarnation died after
		// releasing but before advancing the head, and recovery replayed):
		// step past it. This is not emptiness — count it separately so
		// throughput accounting doesn't mistake recovery debris for an idle
		// queue.
		qs.head++
		c.h.Store(qs.headA, qs.head)
		c.loc[obs.CtrQueueStaleSlot]++
		return 0, 0, ErrQueueEmpty
	}
	root, err = c.allocRootRef()
	if err != nil {
		return 0, 0, err
	}
	if err := c.moveRef(root+layout.RootRefPptrOff, slot, target, 0); err != nil {
		c.abortRootRef(root)
		return 0, 0, err
	}
	qs.head++
	c.h.Store(qs.headA, qs.head)
	c.loc[obs.CtrQueueReceive]++
	return root, target, nil
}

// QueueLen reports how many references are in flight in the queue.
func (c *Client) QueueLen(block layout.Addr) int {
	m := layout.UnpackMeta(c.h.Load(block + layout.MetaOff))
	capacity := int(m.EmbedCnt)
	head := c.h.Load(queueHeadAddr(block, capacity))
	tail := c.h.Load(queueTailAddr(block, capacity))
	return int(tail - head)
}

// QueueDepth is one registered queue seen from the management plane:
// endpoints plus the live head/tail counters, read straight from the
// device with pure loads — so observers on a read-only mapping (cxltop)
// can watch other processes' queues fill and drain.
type QueueDepth struct {
	Block    layout.Addr `json:"block"`
	Sender   int         `json:"sender"`
	Receiver int         `json:"receiver"`
	Capacity int         `json:"capacity"`
	Head     uint64      `json:"head"`
	Tail     uint64      `json:"tail"`
}

// Depth is the number of references currently in flight.
func (q QueueDepth) Depth() int { return int(q.Tail - q.Head) }

// Queues lists every registered, still-live transfer queue with its
// current depth. Registry entries racing a free are skipped.
func (p *Pool) Queues() []QueueDepth {
	var out []QueueDepth
	for i := 0; i < p.geo.MaxQueues; i++ {
		block := p.dev.Load(p.geo.QueueRegAddr(i))
		if block == 0 {
			continue
		}
		m := layout.UnpackMeta(p.dev.Load(block + layout.MetaOff))
		if !m.Allocated() || m.Flags&layout.MetaQueue == 0 {
			continue
		}
		capacity := int(m.EmbedCnt)
		s, r, _ := unpackQueueInfo(p.dev.Load(queueInfoAddr(block, capacity)))
		out = append(out, QueueDepth{
			Block:    block,
			Sender:   s,
			Receiver: r,
			Capacity: capacity,
			Head:     p.dev.Load(queueHeadAddr(block, capacity)),
			Tail:     p.dev.Load(queueTailAddr(block, capacity)),
		})
	}
	return out
}

// SweepQueueRegistry clears registry entries whose block is no longer a
// live queue (freed after both endpoints released it). Run by the monitor.
func (p *Pool) SweepQueueRegistry() int {
	cleared := 0
	for i := 0; i < p.geo.MaxQueues; i++ {
		a := p.geo.QueueRegAddr(i)
		block := p.dev.Load(a)
		if block == 0 {
			continue
		}
		m := layout.UnpackMeta(p.dev.Load(block + layout.MetaOff))
		if m.Allocated() && m.Flags&layout.MetaQueue != 0 {
			continue
		}
		if p.dev.CAS(a, block, 0) {
			cleared++
		}
	}
	return cleared
}
