package cxl

// Intercept is what observes, prices or corrupts a device's accesses: the
// Table 1 latency model, an access hook for crash campaigns and a write-fault
// hook for corruption campaigns. Its zero value intercepts nothing. It is
// set once per device (SetIntercept), so every client and the management
// plane run through one concrete data path in one fixed order:
//
//   - management-plane Load, Store and CAS: Access (cid 0), then Write;
//   - a Handle's Load, Store and CAS: the RAS-fence check (a fenced write is
//     dropped before either hook sees it), Access (the client's ID), the
//     latency charge, Write, then the access itself.
//
// Latency is charged on the client path only: the management plane
// (recovery service, validators) is exempt, matching real hardware where
// latency lives in the client's interconnect, not in the passive device.
type Intercept struct {
	// Latency, when non-zero, prices every Handle access (see Latency).
	Latency Latency
	// Access, when set, observes every access before it executes.
	Access AccessHook
	// Write, when set, decides the fate of every store and CAS.
	Write WriteFaultHook
}

// SetIntercept installs ic on d. Call it before the first Open and before
// any concurrent access: handles take their path from it when opened.
func (d *Device) SetIntercept(ic Intercept) { d.icpt = ic }

// AccessKind distinguishes the operations an AccessHook observes.
type AccessKind uint8

// Hooked operations.
const (
	OpLoad AccessKind = iota
	OpStore
	OpCAS
	OpFlush
	OpFence
)

func (k AccessKind) String() string {
	switch k {
	case OpLoad:
		return "load"
	case OpStore:
		return "store"
	case OpCAS:
		return "cas"
	case OpFlush:
		return "flush"
	case OpFence:
		return "fence"
	}
	return "?"
}

// AccessHook observes one access before it executes. cid is the client the
// access is issued for, or 0 for management-plane accesses. A hook may
// panic (e.g. with faultinject.Crash) to bring down the current client at
// an exact device-access boundary — the §6.2.2 crash injector as
// configuration instead of code edits.
type AccessHook func(cid int, kind AccessKind, a Addr)

// WriteFault is a WriteFaultHook's verdict for one mutating access.
//
// An AccessHook can observe (and crash at) any access but can never change
// what reaches the device — exactly right for fail-stop campaigns and
// exactly wrong for the messier CXL failure modes: a word corrupted in
// flight, a torn multi-word update, a CAS whose success is a lie:
//
//	store  WriteThrough        store v unchanged
//	       WriteMangle         store the hook's replacement value instead
//	       WriteDrop           swallow the store (the write never lands)
//	cas    WriteThrough        perform the CAS honestly
//	       WriteMangle         CAS with the hook's replacement new-value
//	       WriteDrop           report success WITHOUT touching the word
//	                           (the "stuck" word stays stale)
//	       WriteFailCAS        report failure without attempting
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

// WriteFaultHook decides the fate of one mutating access before it executes,
// whoever issues it — clients, recovery, validators. kind is OpStore or
// OpCAS; v is the value about to be written (the CAS new-value). The
// returned value is used only under WriteMangle. The hook may panic (e.g.
// with faultinject.Crash) to also bring the acting client down — a mangled
// store followed by a crash is a torn multi-word update.
type WriteFaultHook func(kind AccessKind, a Addr, v uint64) (uint64, WriteFault)

// faultStore consults the Write hook about a store of v at a: it returns the
// value to store, or false when the store is dropped.
func (ic *Intercept) faultStore(a Addr, v uint64) (uint64, bool) {
	nv, f := ic.Write(OpStore, a, v)
	switch f {
	case WriteMangle:
		return nv, true
	case WriteDrop:
		return v, false
	}
	return v, true
}

// faultCAS consults the Write hook about a CAS swapping in new at a: it
// returns the new-value to swap in, or false and the result to report
// without attempting the CAS.
func (ic *Intercept) faultCAS(a Addr, new uint64) (uint64, bool, bool) {
	nv, f := ic.Write(OpCAS, a, new)
	switch f {
	case WriteMangle:
		return nv, true, false
	case WriteDrop:
		return new, false, true // success-lie: the word stays stale
	case WriteFailCAS:
		return new, false, false
	}
	return new, true, false
}
