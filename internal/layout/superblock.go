package layout

import "fmt"

// The pool superblock is the self-describing header every attach validates:
// magic, the five geometry parameters, and the layout version. It lives in
// the reserved low words of the pool (see Geometry), so it travels with the
// pool itself — inside a pool file or a live heap device — and a
// process attaching a pool formatted by another process (or another build)
// can reconstruct the exact geometry or fail loudly instead of silently
// attaching with mismatched MaxClients/segment dimensions.
//
// Word assignments (word 0 is the reserved nil address):
//
//	word 1   PoolMagic
//	word 2   SegmentWords
//	word 3   PageWords
//	word 4   NumSegments
//	word 5   MaxClients
//	word 6   MaxQueues
//	word 7   reserved
//	word 8   free-segment hint (runtime state, not superblock)
//	word 9   LayoutVersion
const (
	SuperOffMagic      = Addr(1)
	SuperOffSegWords   = Addr(2)
	SuperOffPageWords  = Addr(3)
	SuperOffNumSegs    = Addr(4)
	SuperOffMaxClients = Addr(5)
	SuperOffMaxQueues  = Addr(6)
	SuperOffVersion    = Addr(9)
)

// LayoutVersion identifies the pool word layout this build formats and
// understands. Bump it whenever the meaning or placement of any shared
// word changes (geometry derivation, metadata packing, redo format...):
// attaching a pool with a different version is memory corruption waiting
// to happen, so every attach path refuses on mismatch.
//
// Version history:
//
//	1  implicit (pre-superblock pools: no version word, word 9 reads 0)
//	2  versioned superblock introduced
//	3  crash-surviving telemetry region appended after the segments area
//	   (per-client metric blocks, recovery timelines, shared event ring)
//	4  quarantine markers (MetaQuarantined block flag, PageKindQuarantined)
//	   written by the repairing fsck, plus repair counters growing the
//	   telemetry metric slots
//	5  repacked redo-log entry (era and saved count fold into the commit
//	   word; 5 words instead of 7) with deferred invalidation, plus
//	   publication-burst counters/histogram growing the telemetry slots
//	6  slot-lease area (free-slot bitmap + per-slot lease-generation
//	   words) inserted between the pool header and the Global Segment
//	   Allocation Vec; every region after word 16 moved
//	7  64-bit eras: a client's own era and every era-matrix word hold a
//	   whole era that never wraps; a header's lera and the redo commit
//	   word keep its low 32 bits
const LayoutVersion = 7

// Superblock is the decoded pool header.
type Superblock struct {
	Magic        uint64
	SegmentWords uint64
	PageWords    uint64
	NumSegments  int
	MaxClients   int
	MaxQueues    int
	Version      uint64
}

// wordLoader reads pool words; cxl.Device satisfies it.
type wordLoader interface{ Load(Addr) uint64 }

// wordStorer writes pool words; cxl.Device satisfies it.
type wordStorer interface{ Store(Addr, uint64) }

// ReadSuperblock decodes the superblock from a live memory backend.
func ReadSuperblock(m wordLoader) Superblock {
	return Superblock{
		Magic:        m.Load(SuperOffMagic),
		SegmentWords: m.Load(SuperOffSegWords),
		PageWords:    m.Load(SuperOffPageWords),
		NumSegments:  int(m.Load(SuperOffNumSegs)),
		MaxClients:   int(m.Load(SuperOffMaxClients)),
		MaxQueues:    int(m.Load(SuperOffMaxQueues)),
		Version:      m.Load(SuperOffVersion),
	}
}

// WriteSuperblock encodes g's superblock into m (pool formatting).
func WriteSuperblock(m wordStorer, g *Geometry) {
	m.Store(SuperOffMagic, PoolMagic)
	m.Store(SuperOffSegWords, g.SegmentWords)
	m.Store(SuperOffPageWords, g.PageWords)
	m.Store(SuperOffNumSegs, uint64(g.NumSegments))
	m.Store(SuperOffMaxClients, uint64(g.MaxClients))
	m.Store(SuperOffMaxQueues, uint64(g.MaxQueues))
	m.Store(SuperOffVersion, LayoutVersion)
}

// Validate checks that the superblock was written by a compatible build:
// right magic, exactly this build's layout version. It reports clear,
// actionable errors — a mismatched pool must never be attached.
func (sb Superblock) Validate() error {
	if sb.Magic != PoolMagic {
		return fmt.Errorf("layout: not a formatted CXL-SHM pool (magic %#x, want %#x)", sb.Magic, PoolMagic)
	}
	if sb.Version != LayoutVersion {
		return fmt.Errorf("layout: pool has layout version %d, this build requires %d — "+
			"re-create the pool or use a matching build", sb.Version, LayoutVersion)
	}
	return nil
}

// Geometry validates the superblock and reconstructs the pool geometry it
// describes. Geometry parameters that cannot produce a valid layout are
// rejected with the underlying geometry error.
func (sb Superblock) Geometry() (*Geometry, error) {
	if err := sb.Validate(); err != nil {
		return nil, err
	}
	geo, err := NewGeometry(GeometryConfig{
		SegmentWords: sb.SegmentWords,
		PageWords:    sb.PageWords,
		NumSegments:  sb.NumSegments,
		MaxClients:   sb.MaxClients,
		MaxQueues:    sb.MaxQueues,
	})
	if err != nil {
		return nil, fmt.Errorf("layout: pool superblock describes an invalid geometry: %w", err)
	}
	return geo, nil
}
