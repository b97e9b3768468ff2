package cxl

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"unsafe"
)

// A file-backed Device keeps its word array, RAS fence epochs and header in
// an mmap'd file. This is the realistic software stand-in for CXL shared
// memory today (Xu et al.: mmap-based shared files are "barely distributed
// and almost persistent"): a pool created by one OS process can be reopened
// — alive, no copy — by another, because the device's failure domain is the
// file, not any process that maps it.
//
// It is the same Device as the heap backend, so the entire data path
// (atomic word access, RAS fencing, Handle fast path, access counting) is
// byte-for-byte the same code; only the storage the slices view differs.
// Two processes mapping the same file share one cache-coherent word array
// and one set of fence epochs, so a recovery service in a fresh process can
// fence and recover the clients of a dead one.
//
// File layout (little-endian):
//
//	byte 0    magic "CXLMMAP1"
//	byte 8    file format version
//	byte 16   pool size in words
//	byte 24   device MaxClients
//	byte 32   header size in bytes
//	byte 64   RAS fence epochs: (MaxClients+1) uint64 words
//	...       (header padded to a page multiple)
//	byte hdr  word array: words × 8 bytes

const (
	mapMagic = 0x3150414d4d4c5843 // "CXLMMAP1" little-endian
	// The version changes whenever the file's words change meaning: since
	// version 2 the fence words are 64-bit epochs.
	mapFormatVersion = 2
	// mapFenceOff is the byte offset of the fence-epoch array.
	mapFenceOff = 64
	// mapPage is the header alignment; mmap offsets are page-granular.
	mapPage = 4096
)

// Compile-time guarantees that the unsafe file views below are sound.
var (
	_ = [1]struct{}{}[unsafe.Sizeof(atomic.Uint64{})-8]
	_ = [1]struct{}{}[mapFenceOff%unsafe.Alignof(atomic.Uint64{})]
)

// mapHeaderBytes computes the (page-aligned) header size for a client count.
func mapHeaderBytes(maxClients int) int {
	n := mapFenceOff + 8*(maxClients+1)
	return (n + mapPage - 1) &^ (mapPage - 1)
}

// CreateMapDevice creates the file at path and formats it as an empty,
// all-zero pool of cfg.Words words. It fails if the file already exists:
// clobbering a live pool is never recoverable, so callers must remove an
// old pool explicitly.
func CreateMapDevice(path string, cfg Config) (*Device, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("cxl: create pool file: %w", err)
	}
	hdr := mapHeaderBytes(cfg.MaxClients)
	size := int64(hdr) + int64(cfg.Words)*WordBytes
	if err := f.Truncate(size); err != nil {
		f.Close()
		os.Remove(path)
		return nil, fmt.Errorf("cxl: size pool file to %d bytes: %w", size, err)
	}
	data, err := mmapFile(f, int(size))
	// The mapping keeps the file contents reachable; the descriptor is not
	// needed past this point (msync works on the address range), and
	// holding it would leak descriptors in pool-per-trial campaigns.
	f.Close()
	if err != nil {
		os.Remove(path)
		return nil, err
	}
	binary.LittleEndian.PutUint64(data[0:], mapMagic)
	binary.LittleEndian.PutUint64(data[8:], mapFormatVersion)
	binary.LittleEndian.PutUint64(data[16:], uint64(cfg.Words))
	binary.LittleEndian.PutUint64(data[24:], uint64(cfg.MaxClients))
	binary.LittleEndian.PutUint64(data[32:], uint64(hdr))
	return newMapDevice(path, data, cfg.Words, cfg.MaxClients, hdr, cfg.CountAccesses), nil
}

// OpenMapDevice maps an existing pool file. The pool comes back exactly as
// the last process left it — including fence epochs and any clients that
// died holding references; attach it with shm.AttachMemory and run
// recovery on the stale clients.
func OpenMapDevice(path string) (*Device, error) {
	return openMapDevice(path, false)
}

// OpenMapDeviceReadOnly maps an existing pool file PROT_READ as a read-only
// device: loads observe the live pool (other processes' stores included)
// but any Store, CAS, FenceClient or Open panics — and even a bug that got
// past those checks would take a SIGSEGV from the MMU, not corrupt the pool.
// This is the attach path for observers (cxltop).
func OpenMapDeviceReadOnly(path string) (*Device, error) {
	return openMapDevice(path, true)
}

func openMapDevice(path string, readOnly bool) (*Device, error) {
	flag := os.O_RDWR
	if readOnly {
		flag = os.O_RDONLY
	}
	f, err := os.OpenFile(path, flag, 0)
	if err != nil {
		return nil, fmt.Errorf("cxl: open pool file: %w", err)
	}
	var hdrBuf [40]byte
	if _, err := f.ReadAt(hdrBuf[:], 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("cxl: %s: read pool header: %w", path, err)
	}
	if got := binary.LittleEndian.Uint64(hdrBuf[0:]); got != mapMagic {
		f.Close()
		return nil, fmt.Errorf("cxl: %s is not a CXL-SHM pool file (magic %#x)", path, got)
	}
	if v := binary.LittleEndian.Uint64(hdrBuf[8:]); v != mapFormatVersion {
		f.Close()
		return nil, fmt.Errorf("cxl: %s: pool file format version %d, this build reads version %d",
			path, v, mapFormatVersion)
	}
	words := binary.LittleEndian.Uint64(hdrBuf[16:])
	maxClients := binary.LittleEndian.Uint64(hdrBuf[24:])
	hdr := binary.LittleEndian.Uint64(hdrBuf[32:])
	if words == 0 || words > 1<<40 || maxClients == 0 || maxClients > 1<<20 {
		f.Close()
		return nil, fmt.Errorf("cxl: %s: implausible pool header (words %d, clients %d)",
			path, words, maxClients)
	}
	if want := mapHeaderBytes(int(maxClients)); hdr != uint64(want) {
		f.Close()
		return nil, fmt.Errorf("cxl: %s: header size %d does not match %d clients (want %d)",
			path, hdr, maxClients, want)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	size := int64(hdr) + int64(words)*WordBytes
	if st.Size() != size {
		f.Close()
		return nil, fmt.Errorf("cxl: %s: file is %d bytes, header computes %d (truncated or corrupt)",
			path, st.Size(), size)
	}
	mapFn := mmapFile
	if readOnly {
		mapFn = mmapFileReadOnly
	}
	data, err := mapFn(f, int(size))
	f.Close()
	if err != nil {
		return nil, err
	}
	d := newMapDevice(path, data, int(words), int(maxClients), int(hdr), false)
	d.readOnly = readOnly
	return d, nil
}

// NewAnonMapDevice creates a Device backed by an unlinked temporary
// file: it behaves exactly like a named pool file (same mapping, same data
// path) but leaves nothing on disk once closed. Used to run the whole
// stack's test suite and fault campaigns over the mmap backend.
func NewAnonMapDevice(cfg Config) (*Device, error) {
	dir := os.TempDir()
	f, err := os.CreateTemp(dir, "cxlshm-*.pool")
	if err != nil {
		return nil, err
	}
	path := f.Name()
	f.Close()
	os.Remove(path)
	md, err := CreateMapDevice(filepath.Join(dir, filepath.Base(path)), cfg)
	if err != nil {
		return nil, err
	}
	// Unlink immediately: the mapping keeps the storage alive.
	os.Remove(md.path)
	return md, nil
}

// newMapDevice builds the device views over the mapping.
func newMapDevice(path string, data []byte, words, maxClients, hdr int, count bool) *Device {
	d := &Device{data: data, path: path}
	w := unsafe.Slice((*uint64)(unsafe.Pointer(&data[hdr])), words)
	fence := unsafe.Slice((*atomic.Uint64)(unsafe.Pointer(&data[mapFenceOff])), maxClients+1)
	d.init(w, fence, count)
	return d
}

// Path returns the backing file's path, or "" for a heap device.
func (d *Device) Path() string { return d.path }

// Sync flushes a file-backed device's dirty pages to the file (msync
// MS_SYNC); on a heap device it does nothing. The OS writes dirty pages
// back eventually anyway; Sync is for tools that want a durability point
// before, say, copying the file.
func (d *Device) Sync() error {
	if d.data == nil {
		return nil
	}
	return msync(d.data)
}

// Close unmaps a file-backed device; on a heap device it does nothing. The
// pool itself lives on in the file — that is the point — but this mapping
// becomes invalid: any later access through this device faults, exactly
// like touching powered-off memory. Handles opened from it must not be used
// afterwards.
func (d *Device) Close() error {
	if d.data == nil {
		return nil
	}
	err := munmap(d.data)
	d.data = nil
	d.words = nil
	d.fence = nil
	return err
}
