package cxl

// Memory is the device abstraction every layer of the system programs
// against. The paper's central premise is that the memory device's failure
// domain is separate from its clients — the pool outlives any process that
// maps it (§2.1, Figure 1) — so the device must be a swappable boundary,
// not a concrete type. Three families implement it:
//
//   - *Device: the heap-backed simulated device (fast, in-process only).
//   - *MapDevice: an mmap'd shared file whose word array, RAS fence flags
//     and header live on disk, so a pool created by one OS process can be
//     reopened — alive, no copy — by another.
//   - middleware built with Wrap: stacking interceptors (latency model,
//     access hooks and write faults for fault campaigns) over any Memory.
//
// All word accesses are atomic and linearizable, exactly as CXL 3.0 memory
// sharing promises. Client code must not use a Memory directly: it opens a
// Handle (Open), the only path on which RAS fencing, the latency model and
// per-client access accounting apply. Direct Memory calls are the device
// management plane — pool formatting, the recovery service, validators —
// which the paper's model exempts from client fencing.
type Memory interface {
	// Words reports the pool size in 8-byte words.
	Words() int
	// Bytes reports the pool size in bytes.
	Bytes() int

	// Load atomically reads the word at a.
	Load(a Addr) uint64
	// Store atomically writes v at a, ignoring client fencing (management
	// plane: recovery and pool initialization).
	Store(a Addr, v uint64)
	// CAS atomically compares-and-swaps the word at a, ignoring fencing.
	CAS(a Addr, old, new uint64) bool

	// Fence orders preceding stores before subsequent ones. Go atomics are
	// sequentially consistent already, so backends treat this as an
	// accounting/interception point; Handle.SFence is the client-path
	// equivalent that also charges modelled latency.
	Fence()
	// Flush models a CLWB of the cache line containing a (CXL 2.0
	// persistence, paper §6.1). Like Fence it is an interception point;
	// Handle.Flush is the accounted client-path version.
	Flush(a Addr)

	// MaxClients bounds the client IDs that can be fenced or opened.
	MaxClients() int
	// FenceClient RAS-fences client cid: every subsequent store or CAS
	// issued through cid's Handle is silently dropped (paper §3.2).
	// Idempotent.
	FenceClient(cid int)
	// UnfenceClient lifts cid's RAS fence (slot reuse by a new client).
	UnfenceClient(cid int)
	// ClientFenced reports whether cid is currently fenced.
	ClientFenced(cid int) bool

	// Open creates the client access path for cid (1..MaxClients).
	Open(cid int) *Handle

	// Stats returns merged access counters: the backend's management-plane
	// accesses plus every Handle's local counters.
	Stats() Stats
	// ResetStats zeroes all access counters.
	ResetStats()

	// Close releases backend resources (unmaps files). The heap backend is
	// garbage-collected memory and Close is a no-op. Accessing a closed
	// mmap backend faults, exactly like touching powered-off memory.
	Close() error
}
