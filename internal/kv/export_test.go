package kv

// VersionWord returns the version word of key's record, or 0 if key has none.
func VersionWord(s *Store, key uint64) uint64 {
	rec := s.rd.find(key, s.bucketOf(key))
	if rec == 0 {
		return 0
	}
	return s.c.LoadWord(rec, recVerWord)
}
