package layout

// Size classes. As in mimalloc, each page is dedicated to one size class and
// carved into fixed-size blocks. CXL-SHM's smallest class holds 16 bytes of
// data because every object carries a header (paper §3.3); with our 2-word
// header the smallest block is 4 words.
//
// Classes progress in mimalloc style: within each power-of-two bracket the
// data size grows in four linear steps, bounding internal fragmentation at
// ~25%.

// SizeClass describes one class.
type SizeClass struct {
	Index      int
	DataBytes  int    // usable payload bytes
	BlockWords uint64 // total block size in words, including the 2 meta words
}

// BuildSizeClasses generates the class table for pages of pageWords words.
// The largest class is the biggest that still fits at least one block in a
// page.
func BuildSizeClasses(pageWords uint64) []SizeClass {
	payloadBytes := int(pageWords) * WordBytes
	var classes []SizeClass
	add := func(dataBytes int) {
		bw := uint64(BlockHeaderWords) + uint64((dataBytes+WordBytes-1)/WordBytes)
		if int(bw)*WordBytes > payloadBytes {
			return
		}
		classes = append(classes, SizeClass{
			Index:      len(classes),
			DataBytes:  dataBytes,
			BlockWords: bw,
		})
	}
	// 16..128 in steps of 16, then four steps per power-of-two bracket.
	for sz := 16; sz <= 128; sz += 16 {
		add(sz)
	}
	for base := 128; ; base *= 2 {
		step := base / 4
		stop := false
		for i := 1; i <= 4; i++ {
			sz := base + i*step
			before := len(classes)
			add(sz)
			if len(classes) == before {
				stop = true
				break
			}
		}
		if stop {
			break
		}
	}
	return classes
}

// buildClassTable maps each 16 B step of data size, (dataBytes+15)/16, to the
// smallest class that holds it. Every class size is a multiple of 16 B, so
// the step determines the class exactly.
func buildClassTable(classes []SizeClass) []uint8 {
	t := make([]uint8, classes[len(classes)-1].DataBytes/16+1)
	ci := 0
	for i := range t {
		for classes[ci].DataBytes < i*16 {
			ci++
		}
		t[i] = uint8(ci)
	}
	return t
}

// ClassIndexFor returns the smallest class whose payload fits dataBytes (a
// size below 1 counts as 1), or -1 if dataBytes exceeds the largest class
// (the allocation must then take the huge-object path). One table load.
func (g *Geometry) ClassIndexFor(dataBytes int) int {
	if i := uint(max(dataBytes, 0)+15) / 16; i < uint(len(g.classOf)) {
		return int(g.classOf[i])
	}
	return -1
}
