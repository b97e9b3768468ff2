package kv

import "repro/internal/layout"

// VersionWord returns the version word of key's record, or 0 if key has none.
func VersionWord(s *Store, key uint64) uint64 {
	rec := RecordOf(s, key)
	if rec == 0 {
		return 0
	}
	return s.c.LoadWord(rec, recVerWord)
}

// RecordOf returns the address of key's record, or 0 if key has none.
func RecordOf(s *Store, key uint64) layout.Addr { return s.rd.find(key, s.bucketOf(key)) }

// ChainKeys returns the keys of bucket b's records in chain order.
func ChainKeys(s *Store, b int) []uint64 {
	var keys []uint64
	for rec := s.rd.idx.Load(b); rec != 0; rec = s.c.LoadWord(rec, recNextIdx) {
		keys = append(keys, s.c.LoadWord(rec, recKeyWord))
	}
	return keys
}

// UnlinkWord returns bucket b's unlink word.
func UnlinkWord(s *Store, b int) uint64 { return s.rd.idx.Load(s.unlinkIdx(b)) }
