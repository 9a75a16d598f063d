package faster

import (
	"fmt"
	"sync/atomic"

	"repro/internal/epoch"
	"repro/internal/hlog"
)

// Log scanning (Appendix F): the HybridLog is record-oriented and
// approximately time-ordered, so it doubles as a change feed for
// analytics. Scan walks a logical-address window in order, decoding
// records from memory frames when resident and from the device otherwise.
//
// Scan reads whole pages from the device, so it is also the replay engine
// used by recovery (checkpoint.go).

// ScanRecord is one record yielded by Scan.
type ScanRecord struct {
	// Address is the record's logical address.
	Address hlog.Address
	// Key and Value alias a transient buffer; copy them to retain.
	Key, Value []byte
	// Tombstone marks a delete marker record.
	Tombstone bool
	// Delta marks a CRDT partial-update record.
	Delta bool
	// Invalid marks a record that lost its index insert race; analytics
	// normally skip these, so Scan only yields them when includeInvalid
	// is set on the call.
	Invalid bool
	// Previous is the address of the prior version in this record's
	// hash chain.
	Previous hlog.Address
}

// ScanOptions controls Scan.
type ScanOptions struct {
	// From and To bound the scan window [From, To); zero values default
	// to the begin address and tail address respectively.
	From, To hlog.Address
	// IncludeInvalid also yields records that lost their publish race.
	IncludeInvalid bool
}

// Scan invokes fn for every record in the window, in log order. Returning
// false from fn stops the scan early. Scan is safe to run concurrently
// with operations, but the window above the safe read-only offset is read
// without synchronisation against in-place updates; analytics scans
// normally stop at SafeReadOnlyAddress (pass To: 0 on a quiesced store, or
// To: s.Log().SafeReadOnlyAddress() on a live one).
func (s *Store) Scan(opts ScanOptions, fn func(r ScanRecord) bool) error {
	from, to := opts.From, opts.To
	if from == 0 {
		from = s.log.BeginAddress()
	}
	if to == 0 {
		to = s.log.TailAddress()
	}
	if from >= to {
		return nil
	}
	pageBuf := make([]byte, s.log.PageSize())

	// Epoch protection keeps resident pages from being evicted under the
	// scan; refreshing at page granularity bounds how long we pin them.
	g := s.em.Acquire()
	defer g.Release()

	for addr := from; addr < to; {
		next, cont, err := s.scanPage(g, addr, to, pageBuf, opts.IncludeInvalid, fn)
		if err != nil || !cont {
			return err
		}
		addr = next
	}
	return nil
}

// scanPage refreshes g, then yields the records in [addr, to) that lie on
// addr's page, in log order, and returns the page end to continue from;
// cont is false when fn stopped the scan. Resident records alias live log
// memory, valid only until g's next refresh; a flushed page is fetched
// into buf, the caller's reusable page-sized buffer.
func (s *Store) scanPage(g *epoch.Guard, addr, to hlog.Address, buf []byte, includeInvalid bool,
	fn func(r ScanRecord) bool) (next hlog.Address, cont bool, err error) {
	g.Refresh()
	pageSize := s.log.PageSize()
	pageStart := addr &^ (pageSize - 1)
	pageEnd := pageStart + pageSize
	inMemory := s.log.InMemory(pageStart)
	var page []byte
	if inMemory {
		page = s.log.Slice(pageStart)[:pageSize]
	} else {
		// Fetch the flushed page (or its prefix, if the window ends
		// inside it) from the device.
		page = buf[:min(pageEnd, to)-pageStart]
		// The log retries transient device faults under the read
		// policy; this is what lets Recover and compaction survive a
		// flaky device instead of aborting on the first hiccup.
		done := make(chan error, 1)
		s.log.ReadAsync(pageStart, page, 0, func(err error) { done <- err })
		if err := <-done; err != nil {
			return 0, false, fmt.Errorf("faster: scan read page at %#x: %w", pageStart, err)
		}
	}
	for addr < to && addr < pageEnd {
		off := addr - pageStart
		if uint64(len(page)) <= off {
			break
		}
		// Resident pages are live memory whose header words may be
		// concurrently CASed; load them atomically. Fetched pages
		// are private buffers.
		var rec record
		var ok bool
		if inMemory && uint64(len(page)) >= off+recHeaderBytes {
			rec, ok = parseRecordHeader(page[off:], atomic.LoadUint64(s.log.Uint64Ptr(addr)))
		} else {
			rec, ok = parseRecord(page[off:])
		}
		if !ok {
			// A record that cannot be decoded marks end-of-page padding
			// (a straddling allocation wastes the rest of the page, which
			// stays zero). Every abandoned slot is laid out as a full
			// invalid record precisely so this break never skips live
			// data; the assert guards that invariant for the stable
			// region, where all records are fully written.
			if debugAssert() {
				limit := min(pageEnd, to, s.log.SafeReadOnlyAddress())
				for a := addr; a < limit; a++ {
					if page[a-pageStart] != 0 {
						panic(fmt.Sprintf("hlog scan: nonzero byte at %#x after undecodable record at %#x (page %#x): live data would be skipped",
							a, addr, pageStart))
					}
				}
			}
			break // padding: rest of page is empty
		}
		if !rec.invalid() || includeInvalid {
			if !fn(ScanRecord{
				Address:   addr,
				Key:       rec.key,
				Value:     rec.value,
				Tombstone: rec.tombstone(),
				Delta:     rec.delta(),
				Invalid:   rec.invalid(),
				Previous:  rec.prev(),
			}) {
				return 0, false, nil
			}
		}
		addr += uint64(rec.size)
	}
	return pageEnd, true, nil
}

// Compaction (copy-forward GC over the stable region) lives in
// compact.go; it walks the prefix with scanPage.
