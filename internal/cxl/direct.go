package cxl

import "unsafe"

// Direct data-plane access (paper §3.1: cxl_malloc returns an address and
// clients then use plain loads and stores on the mapped memory — the API is
// only the control plane). A byte window aliases the device's backing words
// with no copy, which is exactly what get_addr hands out on real hardware.
//
// Windows bypass the Handle path: no RAS fencing, no intercept, no access
// counters. That is the hardware-faithful semantics — a fenced
// client's cached mappings stay readable, and data-plane traffic does not
// go through the allocator — but it means windows must only ever cover DATA
// words of blocks the caller holds a reference to, never allocator
// metadata. The shm layer enforces that discipline (lease.go).

// hostLittleEndian reports whether this machine lays out uint64s
// little-endian — the byte order ReadBytes/WriteBytes define for the
// device, "matching how a real CXL device presents memory to x86 hosts".
// On a big-endian host an aliased byte view would present words reversed,
// so direct windows are refused there and callers fall back to the copying
// accessors.
var hostLittleEndian = func() bool {
	x := uint64(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// DataWindow returns a []byte aliasing words [a, a+ceil(nbytes/8)) of the
// device, or nil when no zero-copy view is possible (big-endian host, or an
// out-of-range request). The window stays valid until the device is closed;
// writes through it are plain (non-atomic) byte stores, like real shared
// memory.
func (d *Device) DataWindow(a Addr, nbytes int) []byte {
	if !hostLittleEndian || nbytes < 0 {
		return nil
	}
	nwords := (nbytes + WordBytes - 1) / WordBytes
	if a == 0 || int64(a)+int64(nwords) > int64(len(d.words)) {
		return nil
	}
	if nbytes == 0 {
		return []byte{}
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&d.words[a])), nbytes)
}
