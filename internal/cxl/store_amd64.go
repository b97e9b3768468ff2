package cxl

// storeWord writes v to *p with one MOVQ. Under x86-TSO a plain store is a
// release store: it becomes visible after every earlier load and store of
// this thread, and no later store passes it. Being a call into assembly the
// compiler can neither drop nor merge it, unlike a plain Go assignment.
//
//go:noescape
func storeWord(p *uint64, v uint64)

// storeFast is Handle.Store in one assembly routine: when a is neither 0 nor
// past h.words and h's fence word still reads h.epoch, it stores v to
// h.words[a] with one MOVQ, as storeWord does; otherwise it tail-jumps to
// storeSlowPath. Being one call with no Go body, it keeps Store inlinable.
//
//go:noescape
func storeFast(h *Handle, a Addr, v uint64)

// storeSlowPath is storeFast's way out: a null, wild or fenced store, or a
// handle off the fast path.
func storeSlowPath(h *Handle, a Addr, v uint64) { h.storeSlow(a, v) }
