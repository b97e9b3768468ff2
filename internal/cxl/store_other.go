//go:build !amd64

package cxl

import "sync/atomic"

// storeWord writes v to *p. Off amd64 there is no TSO to lean on, so it is
// an atomic store, sequentially consistent.
func storeWord(p *uint64, v uint64) { atomic.StoreUint64(p, v) }

// storeFast is Handle.Store: storeWord when a is neither 0 nor past h.words
// and h's fence word still reads h.epoch, the slow path otherwise.
func storeFast(h *Handle, a Addr, v uint64) {
	if a != 0 && a < uint64(len(h.words)) && h.fence.Load() == h.epoch {
		storeWord(&h.words[a], v)
		return
	}
	h.storeSlow(a, v)
}
