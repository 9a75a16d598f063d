package faster

import (
	"encoding/binary"
	"testing"
)

// TestScanSkipsAbandonedSlot pins the abandoned-allocation layout that
// log scans depend on. When appendRecord allocates a slot and then must
// abandon it (its copy source was evicted while Allocate waited), the
// slot is never published — but it still occupies log space mid-page.
// abandonSlot must lay it out as a full, sized invalid record: a scan
// that cannot size a record treats the rest of the page as padding, so
// an unsized slot would silently hide every record after it from
// compaction's scan, checkpoint replay, and RebuildIndex — losing those
// keys' newest versions once the log is truncated.
func TestScanSkipsAbandonedSlot(t *testing.T) {
	s, _ := openTestStore(t, Config{})
	sess := s.StartSession()
	defer sess.Close()

	for i := uint64(0); i < 4; i++ {
		if st, err := sess.Upsert(key(i), u64(i)); st != OK || err != nil {
			t.Fatalf("upsert %d: %v %v", i, st, err)
		}
	}

	// Abandon a slot exactly as appendRecord's evicted-source path does.
	k := key(99)
	const valueLen = 8
	size := recordSize(len(k), valueLen)
	addr, err := s.log.Allocate(size, sess.g)
	if err != nil {
		t.Fatal(err)
	}
	s.abandonSlot(addr, k, valueLen)

	// Records after the abandoned slot, in the same page — the ones an
	// unsized slot would hide.
	pageSize := s.log.PageSize()
	for i := uint64(4); i < 8; i++ {
		if st, err := sess.Upsert(key(i), u64(i+100)); st != OK || err != nil {
			t.Fatalf("upsert %d: %v %v", i, st, err)
		}
	}
	if tail := s.log.TailAddress(); tail&^(pageSize-1) != addr&^(pageSize-1) {
		t.Fatalf("test layout broken: tail %#x left the abandoned slot's page %#x", tail, addr)
	}

	scanKeys := func() (map[uint64]bool, bool) {
		seen := make(map[uint64]bool)
		sawAbandoned := false
		err := s.Scan(ScanOptions{IncludeInvalid: true}, func(r ScanRecord) bool {
			if r.Address == addr {
				if !r.Invalid {
					t.Fatalf("abandoned slot at %#x scanned as valid", addr)
				}
				sawAbandoned = true
				return true
			}
			if !r.Invalid && !r.Tombstone {
				seen[binary.LittleEndian.Uint64(r.Key)] = true
			}
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		return seen, sawAbandoned
	}

	// Resident-page scan.
	seen, sawAbandoned := scanKeys()
	for i := uint64(0); i < 8; i++ {
		if !seen[i] {
			t.Fatalf("in-memory scan lost key %d (abandoned slot at %#x hid the rest of its page)", i, addr)
		}
	}
	if !sawAbandoned {
		t.Fatalf("in-memory scan never walked the abandoned slot at %#x", addr)
	}

	// Push the slot's page out of the buffer so the scan takes the
	// device-read path (the one compaction and recovery replay use).
	bufferBytes := s.log.PageSize() * uint64(s.cfg.BufferPages)
	for i := uint64(0); s.log.HeadAddress() <= addr; i++ {
		if _, err := sess.Upsert(key(10000+i), u64(i)); err != nil {
			t.Fatal(err)
		}
		if i > 4*bufferBytes { // each record is ≥16 bytes; this can't happen
			t.Fatalf("head never passed %#x", addr)
		}
	}
	if s.log.InMemory(addr) {
		t.Fatalf("page holding %#x still resident", addr)
	}
	sess.CompletePending(true)

	seen, sawAbandoned = scanKeys()
	for i := uint64(0); i < 8; i++ {
		if !seen[i] {
			t.Fatalf("device scan lost key %d (abandoned slot at %#x hid the rest of its page)", i, addr)
		}
	}
	if !sawAbandoned {
		t.Fatalf("device scan never walked the abandoned slot at %#x", addr)
	}
}
