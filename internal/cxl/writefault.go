package cxl

// Write-fault middleware: the mutating counterpart of WithAccessHook.
//
// WithAccessHook can observe (and crash at) any access but can never change
// what reaches the device — that is exactly right for fail-stop campaigns
// and exactly wrong for the messier CXL failure modes: a word corrupted in
// flight, a torn multi-word update, a CAS whose success is a lie. The
// write-fault layer puts a decision point on every mutating access:
//
//	store  WriteThrough        store v unchanged
//	       WriteMangle         store the hook's replacement value instead
//	       WriteDrop           swallow the store (the write never lands)
//	cas    WriteThrough        perform the CAS honestly
//	       WriteMangle         CAS with the hook's replacement new-value
//	       WriteDrop           report success WITHOUT touching the word
//	                           (the "stuck" word stays stale)
//	       WriteFailCAS        report failure without attempting
//
// The layer is intercepting: handles are retargeted onto the interface path so client traffic and management-plane traffic alike
// flow through the decision point. A nil/disarmed hook must make the layer
// behave exactly like the bare device — campaigns assert that with the
// fast-path access budgets.

// WriteFault is the hook's verdict for one mutating access.
type WriteFault uint8

// Write-fault verdicts.
const (
	// WriteThrough executes the access unchanged.
	WriteThrough WriteFault = iota
	// WriteMangle substitutes the hook's returned value for the written
	// (store) or swapped-in (CAS) value.
	WriteMangle
	// WriteDrop swallows the effect: a store never lands; a CAS reports
	// success while leaving the word untouched (success-lie).
	WriteDrop
	// WriteFailCAS makes a CAS report failure without attempting it.
	// Meaningless for stores (treated as WriteThrough).
	WriteFailCAS
)

// WriteFaultHook decides the fate of one mutating access before it executes.
// kind is OpStore or OpCAS; v is the value about to be written (the CAS
// new-value). The returned value is used only under WriteMangle. The hook
// may panic (e.g. with faultinject.Crash) to also bring the acting client
// down — a mangled store followed by a crash is a torn multi-word update.
type WriteFaultHook func(kind AccessKind, a Addr, v uint64) (uint64, WriteFault)

type writeFaultMem struct {
	passthrough
	hook WriteFaultHook
}

// WithWriteFaults stacks a write-fault decision point over the backend.
// Loads, fences and flushes pass through untouched; stores and CAS consult
// hook. Handles are retargeted so every writer — clients, recovery,
// validators — is subject to injection.
func WithWriteFaults(hook WriteFaultHook) Middleware {
	return func(m Memory) Memory {
		return &writeFaultMem{passthrough{m}, hook}
	}
}

func (w *writeFaultMem) Store(a Addr, v uint64) {
	if w.hook != nil {
		nv, f := w.hook(OpStore, a, v)
		switch f {
		case WriteMangle:
			v = nv
		case WriteDrop:
			return
		}
	}
	w.inner.Store(a, v)
}

func (w *writeFaultMem) CAS(a Addr, old, new uint64) bool {
	if w.hook != nil {
		nv, f := w.hook(OpCAS, a, new)
		switch f {
		case WriteMangle:
			new = nv
		case WriteDrop:
			return true // success-lie: the word stays stale
		case WriteFailCAS:
			return false
		}
	}
	return w.inner.CAS(a, old, new)
}

func (w *writeFaultMem) Open(cid int) *Handle {
	return w.inner.Open(cid).retarget(w)
}
