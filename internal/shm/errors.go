// Package shm implements CXL-SHM, the paper's partial-failure-resilient
// memory management system, on top of the simulated CXL device.
//
// It contains the mimalloc-style shared-pool allocator (arena → segments →
// size-class pages → blocks, paper §3.3 and §5.1), the era-based
// non-blocking reference count maintenance algorithm (§4.3), RootRef
// bookkeeping, embedded references (§5.4), the reclamation protocol with
// POTENTIAL_LEAKING segments (§5.3), and the SPSC reference-transfer queues
// (§5.2). The asynchronous monitor and recovery service live in
// internal/recovery; the user-facing smart-pointer API in the root cxlshm
// package.
package shm

import "errors"

var (
	// ErrOutOfMemory is returned when no segment can satisfy an allocation.
	ErrOutOfMemory = errors.New("shm: shared pool exhausted")
	// ErrTooManyClients is returned by Connect when every client slot is taken.
	ErrTooManyClients = errors.New("shm: no free client slot")
	// ErrRefCountOverflow is returned when an object's reference count would
	// exceed the 16-bit header field.
	ErrRefCountOverflow = errors.New("shm: reference count overflow")
	// ErrStaleReference is returned when a transaction observes an object
	// whose reference count is already zero (the caller's reference is not
	// actually counted — a user bug the system detects instead of corrupting).
	ErrStaleReference = errors.New("shm: reference to object with zero reference count")
	// ErrFenced is returned when the calling client has been RAS-fenced
	// (declared failed); its writes no longer reach the pool.
	ErrFenced = errors.New("shm: client is fenced (declared failed)")
	// ErrTooLarge is returned for allocations exceeding the pool's huge
	// object limit.
	ErrTooLarge = errors.New("shm: allocation exceeds maximum object size")
	// ErrQueueFull is returned by Send on a full transfer queue.
	ErrQueueFull = errors.New("shm: transfer queue full")
	// ErrQueueEmpty is returned by Receive on an empty transfer queue.
	ErrQueueEmpty = errors.New("shm: transfer queue empty")
	// ErrNoQueueSlot is returned when the queue registry is full.
	ErrNoQueueSlot = errors.New("shm: queue registry full")
	// ErrRootCloned is returned by PushEmbed for a RootRef with clones: its
	// one counted reference cannot move while other clones share it.
	ErrRootCloned = errors.New("shm: RootRef is cloned; only a sole clone can hand its reference on")
	// ErrRecoveryInProgress is returned by ClaimRecovery (and so by a
	// recovery pass) while another executor's pass over the client runs, or
	// while that executor is dead and not yet recovered itself.
	ErrRecoveryInProgress = errors.New("shm: another executor holds the client's recovery claim")
	// ErrBadEmbedIndex is returned for embedded-reference operations with an
	// index outside the object's declared embedded-reference area.
	ErrBadEmbedIndex = errors.New("shm: embedded reference index out of range")
)
