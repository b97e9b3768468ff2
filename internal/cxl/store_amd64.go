package cxl

// storeWord writes v to *p with one MOVQ. Under x86-TSO a plain store is a
// release store: it becomes visible after every earlier load and store of
// this thread, and no later store passes it. Being a call into assembly the
// compiler can neither drop nor merge it, unlike a plain Go assignment.
//
//go:noescape
func storeWord(p *uint64, v uint64)
