//go:build !amd64

package cxl

import "sync/atomic"

// storeWord writes v to *p. Off amd64 there is no TSO to lean on, so it is
// an atomic store, sequentially consistent.
func storeWord(p *uint64, v uint64) { atomic.StoreUint64(p, v) }
