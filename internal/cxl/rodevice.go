package cxl

import "fmt"

// ReadOnlyDevice wraps a Memory whose storage must not be mutated through
// this mapping (an observer's PROT_READ view of a live pool file). Loads,
// fence queries and stats pass through; every mutating
// operation panics with a message naming the operation, because a tool
// that attached read-only and then tries to write is always a bug — and
// better caught here, by name, than as a SIGSEGV from the MMU.
type ReadOnlyDevice struct {
	Memory
}

// ReadOnlyDevice implements Memory.
var _ Memory = (*ReadOnlyDevice)(nil)

// Unwrap exposes the underlying mapping (Bottom, backend identification).
func (r *ReadOnlyDevice) Unwrap() Memory { return r.Memory }

func (r *ReadOnlyDevice) deny(op string) {
	panic(fmt.Sprintf("cxl: %s on a read-only pool mapping (attached with OpenMapDeviceReadOnly; reopen read-write to mutate)", op))
}

// Store panics: the mapping is read-only.
func (r *ReadOnlyDevice) Store(a Addr, v uint64) { r.deny(fmt.Sprintf("Store(%#x)", a)) }

// CAS panics: the mapping is read-only.
func (r *ReadOnlyDevice) CAS(a Addr, old, new uint64) bool {
	r.deny(fmt.Sprintf("CAS(%#x)", a))
	return false
}

// FenceClient panics: fence flags live in the mapped file.
func (r *ReadOnlyDevice) FenceClient(cid int) { r.deny("FenceClient") }

// UnfenceClient panics: fence flags live in the mapped file.
func (r *ReadOnlyDevice) UnfenceClient(cid int) { r.deny("UnfenceClient") }

// Open panics: a Handle is a write path; observers read the pool directly.
func (r *ReadOnlyDevice) Open(cid int) *Handle {
	r.deny("Open")
	return nil
}
