// Package serving promotes the CXL-SHM pool into a network-facing serving
// tier: N worker OS processes (or in-process workers for tests) attach the
// same pool, each owns one writer partition of a shared kv.Store, and
// serves GET/PUT/SCAN over the internal/netrpc length-prefixed protocol.
// A driver replays internal/workload streams against the workers; a chaos
// orchestrator kills a worker mid-traffic and measures how the survivors
// and the recovery monitor absorb it — the paper's partial-failure story
// (§6.4 metadata-only repartitioning, §7 recovery SLO) exercised through a
// real serving stack instead of a single process.
package serving

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Wire functions. Payload formats (all integers little-endian):
//
//	FnPing     req: -                      resp: [8B cid]
//	FnGet      req: [8B key]               resp: [1B found][value]
//	FnPut      req: [8B key][value]        resp: -
//	FnScan     req: [8B startBucket][8B maxRecords]
//	           resp: [8B count][8B valSize] then count × ([8B key][valSize bytes])
//	FnTakeover req: [8B partition]         resp: -
//	FnStats    req: -                      resp: JSON WorkerStats
//	FnQuit     req: -                      resp: -  (worker then shuts down cleanly)
//
// Failures (unknown key partition ownership, takeover refusal, store
// errors) travel back as netrpc error frames and surface from Conn methods
// as *netrpc.ServerError — except a takeover refused because the partition's
// writer may still write, which Conn.Takeover returns as ErrTakeoverPending.
const (
	FnPing uint64 = iota + 1
	FnGet
	FnPut
	FnScan
	FnTakeover
	FnStats
	FnQuit
)

// maxScanRecords caps one FnScan response so a single frame stays well
// under netrpc's MaxPayload regardless of what the client asks for.
const maxScanRecords = 4096

func u64(b []byte) uint64 { return binary.LittleEndian.Uint64(b) }

func putU64(b []byte, v uint64) { binary.LittleEndian.PutUint64(b, v) }

// ErrTakeoverPending is the retriable FnTakeover refusal: the partition's
// recorded writer is alive, or dead and not yet recovered. Retry once the
// recovery monitor has recovered it.
var ErrTakeoverPending = errors.New("serving: takeover pending: the partition's writer is not yet recovered")

func reqError(fn uint64, want int, got int) error {
	return fmt.Errorf("serving: fn %d: request needs %d bytes, got %d", fn, want, got)
}
