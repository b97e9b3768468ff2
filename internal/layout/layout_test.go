package layout

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestHeaderPackRoundTrip(t *testing.T) {
	f := func(lcid uint16, lera uint32, cnt uint16) bool {
		h := Header{LCID: lcid, LEra: lera, RefCnt: cnt}
		return UnpackHeader(PackHeader(h)) == h
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMetaPackRoundTrip(t *testing.T) {
	f := func(flags uint8, embed uint16, words uint64) bool {
		m := Meta{Flags: flags, EmbedCnt: embed, BlockWords: words & (1<<40 - 1)}
		return UnpackMeta(PackMeta(m)) == m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMetaAllocatedFlag(t *testing.T) {
	m := Meta{Flags: MetaAllocated | MetaQueue, EmbedCnt: 3, BlockWords: 10}
	if !m.Allocated() {
		t.Fatal("MetaAllocated flag not detected")
	}
	m.Flags = MetaHuge
	if m.Allocated() {
		t.Fatal("Allocated() true without MetaAllocated")
	}
}

func TestRootRefPackRoundTrip(t *testing.T) {
	f := func(inUse bool, cnt uint32) bool {
		gotUse, gotCnt := UnpackRootRef(PackRootRef(inUse, cnt))
		return gotUse == inUse && gotCnt == cnt
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSegStatePackRoundTrip(t *testing.T) {
	f := func(cid uint16, ver uint32, flags, state uint8) bool {
		s := SegState{CID: cid, Version: ver, Flags: flags, State: state}
		return UnpackSegState(PackSegState(s)) == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPageMetaPackRoundTrip(t *testing.T) {
	f := func(kind uint8, used uint32, class uint32) bool {
		p := PageMeta{Kind: kind, Used: used & 0xffffff, SizeClass: class}
		return UnpackPageMeta(PackPageMeta(p)) == p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSizeClassesAreSortedAndAligned(t *testing.T) {
	classes := BuildSizeClasses(1 << 12)
	if len(classes) == 0 {
		t.Fatal("no size classes")
	}
	if classes[0].DataBytes != 16 {
		t.Fatalf("smallest class = %d bytes, want 16 (paper §3.3)", classes[0].DataBytes)
	}
	for i, c := range classes {
		if c.Index != i {
			t.Fatalf("class %d has Index %d", i, c.Index)
		}
		if i > 0 && classes[i-1].DataBytes >= c.DataBytes {
			t.Fatalf("classes not strictly ascending at %d", i)
		}
		wantWords := uint64(BlockHeaderWords + (c.DataBytes+7)/8)
		if c.BlockWords != wantWords {
			t.Fatalf("class %d: BlockWords=%d want %d", i, c.BlockWords, wantWords)
		}
		if c.BlockWords > 1<<12 {
			t.Fatalf("class %d exceeds page size", i)
		}
	}
}

func TestClassIndexForFindsSmallestFit(t *testing.T) {
	g, err := NewGeometry(GeometryConfig{})
	if err != nil {
		t.Fatal(err)
	}
	classes := g.Classes
	for want, c := range classes {
		if got := g.ClassIndexFor(c.DataBytes); got != want {
			t.Fatalf("exact size %d: class %d, want %d", c.DataBytes, got, want)
		}
		if got := g.ClassIndexFor(c.DataBytes - 1); got != want {
			t.Fatalf("size %d: class %d, want %d", c.DataBytes-1, got, want)
		}
	}
	last := classes[len(classes)-1]
	if got := g.ClassIndexFor(last.DataBytes + 1); got != -1 {
		t.Fatalf("oversize request got class %d, want -1 (huge path)", got)
	}
	if got := g.ClassIndexFor(0); got != 0 {
		t.Fatalf("zero-byte request got class %d, want 0", got)
	}
}

func TestClassIndexForMatchesLinearScan(t *testing.T) {
	g, err := NewGeometry(GeometryConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	linear := func(n int) int {
		for _, c := range g.Classes {
			if c.DataBytes >= n {
				return c.Index
			}
		}
		return -1
	}
	for i := 0; i < 2000; i++ {
		n := rng.Intn(40000) + 1
		if got, want := g.ClassIndexFor(n), linear(n); got != want {
			t.Fatalf("size %d: table %d, linear %d", n, got, want)
		}
	}
}

// binaryClassSearch is the size-class lookup the table replaced: the smallest
// class whose payload fits dataBytes (below 1 counts as 1), or -1.
func binaryClassSearch(classes []SizeClass, dataBytes int) int {
	if dataBytes <= 0 {
		dataBytes = 1
	}
	lo, hi := 0, len(classes)
	for lo < hi {
		mid := (lo + hi) / 2
		if classes[mid].DataBytes < dataBytes {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(classes) {
		return -1
	}
	return lo
}

// TestClassTableMatchesBinarySearch checks the class table against a binary
// search for every size up to one past the largest class, at every page size
// the repository configures.
func TestClassTableMatchesBinarySearch(t *testing.T) {
	for pw := uint64(1 << 9); pw <= 1<<12; pw <<= 1 {
		g, err := NewGeometry(GeometryConfig{SegmentWords: pw * 16, PageWords: pw})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range g.Classes {
			if c.DataBytes%16 != 0 {
				t.Fatalf("PageWords %d: class %d holds %d B, not a multiple of 16", pw, c.Index, c.DataBytes)
			}
		}
		largest := g.Classes[len(g.Classes)-1].DataBytes
		for n := -1; n <= largest+1; n++ {
			if got, want := g.ClassIndexFor(n), binaryClassSearch(g.Classes, n); got != want {
				t.Fatalf("PageWords %d, %d B: table %d, binary search %d", pw, n, got, want)
			}
		}
	}
}

// TestGeometryRejectsNonPowerOfTwo: the address → segment → page mapping is
// shifts, so a segment or page size that is not a power of two must be
// refused, both when formatting and when attaching through a superblock.
func TestGeometryRejectsNonPowerOfTwo(t *testing.T) {
	bad := []GeometryConfig{
		{SegmentWords: 3 << 12, PageWords: 1 << 10},
		{SegmentWords: 1 << 14, PageWords: 3 << 8},
		{SegmentWords: (1 << 14) + 8, PageWords: 1 << 10},
	}
	for _, cfg := range bad {
		if _, err := NewGeometry(cfg); err == nil || !strings.Contains(err.Error(), "power of two") {
			t.Errorf("NewGeometry(%+v) err = %v, want a power-of-two refusal", cfg, err)
		}
		sb := Superblock{Magic: PoolMagic, Version: LayoutVersion, SegmentWords: cfg.SegmentWords,
			PageWords: cfg.PageWords, NumSegments: 4, MaxClients: 4, MaxQueues: 4}
		if _, err := sb.Geometry(); err == nil || !strings.Contains(err.Error(), "power of two") {
			t.Errorf("Superblock%+v.Geometry() err = %v, want a power-of-two refusal", cfg, err)
		}
	}
}

func TestGeometryRegionsDoNotOverlap(t *testing.T) {
	g, err := NewGeometry(GeometryConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if g.SegVecBase < 8 {
		t.Fatal("segment vec overlaps reserved words")
	}
	if g.ClientVecBase < g.SegVecBase+Addr(2*g.NumSegments) {
		t.Fatal("client vec overlaps segment vec")
	}
	if g.QueueRegBase < g.ClientVecBase+Addr(uint64(g.MaxClients)*g.ClientStateWords) {
		t.Fatal("queue registry overlaps client vec")
	}
	if g.SegmentsBase < g.QueueRegBase+Addr(g.MaxQueues) {
		t.Fatal("segments overlap queue registry")
	}
	if g.TelemetryBase != g.SegmentsBase+Addr(uint64(g.NumSegments)*g.SegmentWords) {
		t.Fatal("telemetry region overlaps segments")
	}
	if g.TotalWords <= uint64(g.TelemetryBase) {
		t.Fatal("TotalWords inconsistent")
	}
}

func TestGeometrySlotLeaseArea(t *testing.T) {
	g, err := NewGeometry(GeometryConfig{MaxClients: 200})
	if err != nil {
		t.Fatal(err)
	}
	// The slot-lease area sits between the reserved pool-header words and
	// the segment vec: bitmap words first, then one generation word per slot.
	if g.SlotMapBase != 16 {
		t.Fatalf("SlotMapBase = %d, want 16 (after the reserved header words)", g.SlotMapBase)
	}
	if want := uint64((200 + 63) / 64); g.SlotMapWords != want {
		t.Fatalf("SlotMapWords = %d, want %d for 200 clients", g.SlotMapWords, want)
	}
	if g.SlotGenBase != g.SlotMapBase+Addr(g.SlotMapWords) {
		t.Fatal("generation words do not follow the bitmap")
	}
	if g.SegVecBase != g.SlotGenBase+Addr(200) {
		t.Fatal("segment vec does not follow the slot-lease area")
	}
	// Bit addressing: client IDs are 1-based, bit positions 0-based.
	if a, bit := g.SlotMapBit(1); a != g.SlotMapBase || bit != 1 {
		t.Fatalf("SlotMapBit(1) = (%d, %#x)", a, bit)
	}
	if a, bit := g.SlotMapBit(64); a != g.SlotMapBase || bit != 1<<63 {
		t.Fatalf("SlotMapBit(64) = (%d, %#x)", a, bit)
	}
	if a, bit := g.SlotMapBit(65); a != g.SlotMapBase+1 || bit != 1 {
		t.Fatalf("SlotMapBit(65) = (%d, %#x)", a, bit)
	}
	if g.SlotGenAddr(1) != g.SlotGenBase || g.SlotGenAddr(200) != g.SlotGenBase+199 {
		t.Fatal("SlotGenAddr does not map 1-based IDs onto the area")
	}
}

func TestGeometryTelemetryRegion(t *testing.T) {
	g, err := NewGeometry(GeometryConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// Sub-areas tile the region in order and stay inside the pool.
	if g.TelTimelineBase(1) != g.TelemetryBase+TelHeaderWords {
		t.Fatal("timeline area does not follow the header")
	}
	if g.TelBlockBase(0) != g.TelTimelineBase(g.MaxClients)+TelTimelineWords {
		t.Fatal("metric blocks do not follow the timelines")
	}
	if g.TelRingRecordBase(0) != g.TelSlotBase(g.MaxClients, 1)+Addr(g.TelSlotWords) {
		t.Fatal("event ring does not follow the metric blocks")
	}
	end := g.TelRingRecordBase(TelRingRecords-1) + TelRecordWords
	if uint64(end) != g.TotalWords {
		t.Fatalf("telemetry region ends at %d, pool has %d words", end, g.TotalWords)
	}
	// Addresses in the telemetry region are not segment addresses.
	if got := g.SegmentIndexOf(g.TelemetryBase); got != -1 {
		t.Fatalf("SegmentIndexOf(TelemetryBase) = %d, want -1", got)
	}
	if g.TelSlotWords%8 != 0 || g.TelBlockWords%8 != 0 {
		t.Fatal("telemetry blocks not cache-line aligned")
	}
}

func TestGeometrySegmentPageMath(t *testing.T) {
	g, err := NewGeometry(GeometryConfig{NumSegments: 4, SegmentWords: 1 << 14, PageWords: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	// Header plus pages must fit within the segment.
	if g.SegHeaderWords+uint64(g.PagesPerSegment)*g.PageWords > g.SegmentWords {
		t.Fatalf("pages overflow segment: hdr=%d pages=%d×%d seg=%d",
			g.SegHeaderWords, g.PagesPerSegment, g.PageWords, g.SegmentWords)
	}
	for s := 0; s < g.NumSegments; s++ {
		base := g.SegmentBase(s)
		if got := g.SegmentIndexOf(base); got != s {
			t.Fatalf("SegmentIndexOf(base of %d) = %d", s, got)
		}
		if got := g.SegmentIndexOf(base + Addr(g.SegmentWords) - 1); got != s {
			t.Fatalf("SegmentIndexOf(last word of %d) = %d", s, got)
		}
		for p := 0; p < g.PagesPerSegment; p++ {
			pb := g.PageBase(s, p)
			if got := g.PageIndexOf(s, pb); got != p {
				t.Fatalf("PageIndexOf(base of %d/%d) = %d", s, p, got)
			}
			if got := g.PageIndexOf(s, pb+Addr(g.PageWords)-1); got != p {
				t.Fatalf("PageIndexOf(last word of %d/%d) = %d", s, p, got)
			}
			if pb+Addr(g.PageWords) > base+Addr(g.SegmentWords) {
				t.Fatalf("page %d/%d overflows its segment", s, p)
			}
			// Page meta must be inside the header region.
			if g.PageMetaAddr(s, p)+PageMetaWords > base+Addr(g.SegHeaderWords) {
				t.Fatalf("page meta %d/%d outside header", s, p)
			}
		}
	}
	if g.PageIndexOf(0, g.SegmentBase(0)) != -1 {
		t.Fatal("segment header address must not map to a page")
	}
	if g.SegmentIndexOf(1) != -1 {
		t.Fatal("global metadata must not map to a segment")
	}
}

func TestGeometryValidation(t *testing.T) {
	if _, err := NewGeometry(GeometryConfig{PageWords: 8}); err == nil {
		t.Fatal("tiny pages must be rejected")
	}
	if _, err := NewGeometry(GeometryConfig{SegmentWords: 1 << 10, PageWords: 1 << 10}); err == nil {
		t.Fatal("segment smaller than two pages must be rejected")
	}
	if _, err := NewGeometry(GeometryConfig{MaxClients: 1 << 17}); err == nil {
		t.Fatal("MaxClients beyond lcid width must be rejected")
	}
}

func TestEraAddrIsWithinOwnRow(t *testing.T) {
	g, err := NewGeometry(GeometryConfig{MaxClients: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 8; i++ {
		base := g.ClientStateBase(i)
		end := base + Addr(g.ClientStateWords)
		for j := 1; j <= 8; j++ {
			a := g.EraAddr(i, j)
			if a < base || a >= end {
				t.Fatalf("Era[%d][%d] at %d outside client state [%d,%d)", i, j, a, base, end)
			}
		}
		if g.ClientRedoBase(i) < base || g.ClientRedoBase(i)+Addr(g.RedoWords) > g.EraAddr(i, 0) {
			t.Fatalf("redo area of client %d overlaps era row", i)
		}
	}
	// Rows of different clients must not overlap.
	if g.EraAddr(1, 8) >= g.ClientStateBase(2) {
		t.Fatal("era row of client 1 overlaps client 2's state")
	}
}

func TestBlocksPerPage(t *testing.T) {
	g, err := NewGeometry(GeometryConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range g.Classes {
		n := g.BlocksPerPage(c)
		if n < 1 {
			t.Fatalf("class %d fits %d blocks per page", c.Index, n)
		}
		if uint64(n)*c.BlockWords > g.PageWords {
			t.Fatalf("class %d: %d blocks overflow page", c.Index, n)
		}
	}
	if g.RootRefsPerPage() != int(g.PageWords)/RootRefWords {
		t.Fatal("RootRefsPerPage mismatch")
	}
}
