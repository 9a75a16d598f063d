package faster

import (
	"bytes"
	"encoding/binary"
	"errors"
	"sync/atomic"

	"repro/internal/hlog"
)

// Record layout (8-byte aligned, never spans a page):
//
//	word 0  header: previous address (bits 0..47) and flag bits
//	word 1  keyLen (uint32) | valueLen (uint32)
//	        key bytes, padded to 8
//	        value bytes, padded to 8
//
// The header word is the unit of atomic manipulation: linking a record
// into a chain, marking it invalid after a lost index CAS, and tombstoning
// all happen with 64-bit atomics on this word (Fig 2 of the paper; the
// extra flag bits are the invalid/tombstone bits of §4 plus the delta bit
// used for CRDT updates in the fuzzy region and the overwrite bit of
// Appendix C).

const (
	recHeaderBytes = 16

	flagInvalid   uint64 = 1 << 48
	flagTombstone uint64 = 1 << 49
	flagDelta     uint64 = 1 << 50
	flagOverwrite uint64 = 1 << 51
	flagSealed    uint64 = 1 << 52
	// flagCacheRef is the second-chance reference bit of read-cache
	// records (readcache.go). It is only ever set on records living in
	// the cache's own circular log, never on hlog records, so durable
	// log images are unaffected.
	flagCacheRef uint64 = 1 << 53

	prevMask uint64 = 1<<48 - 1
)

// pad8 rounds n up to a multiple of 8.
func pad8(n int) int { return (n + 7) &^ 7 }

// errCorruptRecord reports an undecodable record image read from storage.
var errCorruptRecord = errors.New("faster: corrupt record")

// maxRecordBytes bounds a record image read back from storage: a probed
// size above it marks a corrupt header, not a record to allocate for.
const maxRecordBytes = 1 << 24

// probeSize computes the full record size from a header prefix fetched
// from storage. It returns 0 for padding or a corrupt prefix.
func probeSize(hdr []byte) uint32 {
	if len(hdr) < recHeaderBytes {
		return 0
	}
	keyLen := int(binary.LittleEndian.Uint32(hdr[8:]))
	valueLen := int(binary.LittleEndian.Uint32(hdr[12:]))
	if keyLen == 0 {
		return 0
	}
	return recordSize(keyLen, valueLen)
}

// recordSize returns the allocation size for a record.
func recordSize(keyLen, valueLen int) uint32 {
	return uint32(recHeaderBytes + pad8(keyLen) + pad8(valueLen))
}

// record is a decoded view over a record's bytes (in a page frame or a
// read buffer). The slices alias the underlying memory.
type record struct {
	header uint64
	key    []byte
	value  []byte
	size   uint32 // total allocated size
}

func (r *record) prev() hlog.Address { return r.header & prevMask }
func (r *record) invalid() bool      { return r.header&flagInvalid != 0 }
func (r *record) tombstone() bool    { return r.header&flagTombstone != 0 }
func (r *record) delta() bool        { return r.header&flagDelta != 0 }
func (r *record) sealed() bool       { return r.header&flagSealed != 0 }

// parseRecord decodes the record at the start of b. It returns false if b
// is too short or holds a zero header-and-length prefix (page padding).
// b must be private memory (an I/O buffer): for records in live log
// memory the header word is concurrently CASed (tombstone/seal/invalid
// bits) and must be loaded atomically — use parseRecordHeader with the
// atomically loaded header instead.
func parseRecord(b []byte) (record, bool) {
	if len(b) < recHeaderBytes {
		return record{}, false
	}
	return parseRecordHeader(b, binary.LittleEndian.Uint64(b))
}

// parseRecordHeader decodes the record at the start of b using an
// already-loaded header word. Lengths, key bytes and the value layout are
// immutable once a record is reachable, so plain reads of them are safe
// even in live log memory.
func parseRecordHeader(b []byte, header uint64) (record, bool) {
	if len(b) < recHeaderBytes {
		return record{}, false
	}
	keyLen := int(binary.LittleEndian.Uint32(b[8:]))
	valueLen := int(binary.LittleEndian.Uint32(b[12:]))
	if keyLen == 0 {
		// Records always carry a key; a zero keyLen marks end-of-page
		// padding or an unwritten region.
		return record{}, false
	}
	size := recordSize(keyLen, valueLen)
	if int(size) > len(b) {
		return record{}, false
	}
	keyStart := recHeaderBytes
	valStart := keyStart + pad8(keyLen)
	return record{
		header: header,
		key:    b[keyStart : keyStart+keyLen],
		value:  b[valStart : valStart+valueLen],
		size:   size,
	}, true
}

// writeRecord lays out a fresh record into b (the just-allocated log
// slice). The record is not yet reachable, so plain stores are safe; the
// index CAS that publishes it provides the release barrier.
func writeRecord(b []byte, prev hlog.Address, flags uint64, key []byte, valueLen int) record {
	binary.LittleEndian.PutUint64(b, prev&prevMask|flags)
	binary.LittleEndian.PutUint32(b[8:], uint32(len(key)))
	binary.LittleEndian.PutUint32(b[12:], uint32(valueLen))
	keyStart := recHeaderBytes
	copy(b[keyStart:], key)
	// Zero key padding so log images are deterministic.
	for i := keyStart + len(key); i < keyStart+pad8(len(key)); i++ {
		b[i] = 0
	}
	valStart := keyStart + pad8(len(key))
	return record{
		header: prev&prevMask | flags,
		key:    b[keyStart : keyStart+len(key)],
		value:  b[valStart : valStart+valueLen],
		size:   recordSize(len(key), valueLen),
	}
}

// headerPtr returns the atomically addressable header word of the record
// at addr, which must be in memory.
func (s *Store) headerPtr(addr hlog.Address) *uint64 { return s.log.Uint64Ptr(addr) }

// setInvalid marks the in-memory record at addr invalid (lost index CAS).
func (s *Store) setInvalid(addr hlog.Address) {
	p := s.headerPtr(addr)
	for {
		old := atomic.LoadUint64(p)
		if atomic.CompareAndSwapUint64(p, old, old|flagInvalid) {
			return
		}
	}
}

// seal marks the mutable record at addr sealed: an updater declined to
// modify it in place (the new value does not fit), so every subsequent
// update must copy to the tail. This is the record-freezing technique of
// variable-length FASTER; without it a lagging in-place writer could race
// with the copy-update that supersedes the record.
func (s *Store) seal(addr hlog.Address) {
	p := s.headerPtr(addr)
	for {
		old := atomic.LoadUint64(p)
		if old&flagSealed != 0 {
			return
		}
		if atomic.CompareAndSwapUint64(p, old, old|flagSealed) {
			return
		}
	}
}

// setOverwritten sets the overwrite hint bit (Appendix C) on the
// in-memory record at addr, recording that a newer version exists.
// Deviation from Appendix C (which permits setting the bit in the
// read-only region "until it gets flushed to disk"): we only set it in
// the mutable region, because a header write concurrent with the page's
// flush would make the durable image nondeterministic.
func (s *Store) setOverwritten(addr hlog.Address) {
	if addr < s.log.ReadOnlyAddress() {
		return
	}
	p := s.headerPtr(addr)
	for {
		old := atomic.LoadUint64(p)
		if old&flagOverwrite != 0 {
			return
		}
		if atomic.CompareAndSwapUint64(p, old, old|flagOverwrite) {
			return
		}
	}
}

// recordAt decodes the in-memory record at addr. The caller must hold
// epoch protection and have checked addr >= head. The header word is
// loaded atomically: concurrent operations CAS flag bits into it, and a
// plain read would race (the linearize harness caught exactly this).
func (s *Store) recordAt(addr hlog.Address) (record, bool) {
	b := s.log.Slice(addr)
	if len(b) < recHeaderBytes {
		return record{}, false
	}
	return parseRecordHeader(b, atomic.LoadUint64(s.headerPtr(addr)))
}

// headMatch is the first step of the in-memory hit paths (DESIGN §9): an
// atomic load of the header word at addr, the lengths word and a key
// compare, with no record decode. It returns the record's value when the
// record holds key and its header carries none of the flags in reject.
// The caller must hold epoch protection, have checked addr >= head and
// addr >= begin (a truncated record would be served), and have ruled out
// a read-cache address.
func (s *Store) headMatch(key []byte, addr hlog.Address, reject uint64) ([]byte, bool) {
	b := s.log.Slice(addr)
	if atomic.LoadUint64(AtomicU64(b))&reject != 0 || int(binary.LittleEndian.Uint32(b[8:])) != len(key) ||
		!bytes.Equal(b[recHeaderBytes:recHeaderBytes+len(key)], key) {
		return nil, false
	}
	v := recHeaderBytes + pad8(len(key))
	return b[v : v+int(binary.LittleEndian.Uint32(b[12:]))], true
}
