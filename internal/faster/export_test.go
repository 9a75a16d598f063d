package faster

import "repro/internal/index"

// RebuildIndex reconstructs the entire hash index from the log (the
// "technically we can rebuild the entire hash-index from the HybridLog"
// observation of §6.5): the oracle the recovery tests hold a recovered
// index against. The store must be quiesced.
func (s *Store) RebuildIndex() error {
	idx, err := index.New(index.Config{InitialBuckets: s.cfg.IndexBuckets, TagBits: s.cfg.TagBits})
	if err != nil {
		return err
	}
	err = s.Scan(ScanOptions{}, func(r ScanRecord) bool {
		h := hashKey(r.Key)
		e, cur := idx.FindOrCreateEntry(h)
		for cur < r.Address {
			if e.CompareAndSwapAddress(cur, r.Address) {
				break
			}
			e, cur = idx.FindOrCreateEntry(h)
		}
		return true
	})
	if err != nil {
		return err
	}
	s.idx = idx
	return nil
}
