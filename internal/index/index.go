// Package index implements the FASTER hash index of Section 3: a
// concurrent, latch-free, resizable hash table from key hashes to 48-bit
// record addresses. The index stores no keys; collisions beyond its
// (offset, tag) resolution are handled by the record linked lists of the
// store layered above it.
//
// # Layout
//
// The index is an array of 2^k cache-line-sized buckets. A bucket holds
// seven 8-byte entries plus one overflow-bucket pointer (Fig 2 of the
// paper). Each entry packs, from the top bit down:
//
//	bit 63     tentative bit (two-phase insert, §3.2)
//	bit 62     occupied bit (distinguishes a claimed entry whose tag and
//	           address are both zero from an empty slot)
//	bits 48..61 tag (up to 14 bits; the paper uses 15 by omitting the
//	           occupied bit — §7.2.2 shows small tags cost little)
//	bits 0..47 record address
//
// The tag is drawn from the top bits of the hash and the bucket offset
// from the bottom bits, so they stay independent of the table size and
// survive resizing.
//
// All entry manipulation is by 64-bit compare-and-swap; the index is never
// locked. Inserting a new tag uses the paper's two-phase tentative-bit
// algorithm to preserve the invariant that each (offset, tag) pair has at
// most one non-tentative entry.
//
// # Epoch contract
//
// Every index operation runs under a guard of the epoch.Manager passed to
// Grow (every store session holds one). That guard, not any check inside
// the index, is what keeps an operation still routed by one resize
// cycle's state safe on the table the next cycle is preparing: the next
// cycle cannot begin migrating until the operation's thread refreshes.
// See resize.go.
package index

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/arena"
	"repro/internal/metrics"
)

const (
	// entriesPerBucket is the number of hash entries per 64-byte bucket;
	// the eighth word is the overflow pointer.
	entriesPerBucket = 7

	tentativeBit uint64 = 1 << 63
	occupiedBit  uint64 = 1 << 62

	// AddressBits is the width of record addresses stored in entries.
	AddressBits = 48
	// AddressMask extracts the address from an entry.
	AddressMask uint64 = 1<<AddressBits - 1

	tagShift = AddressBits
	// MaxTagBits is the widest supported tag.
	MaxTagBits = 14
)

// bucket is one cache line: seven entries and an overflow pointer. The
// overflow word holds 1+index into the overflow arena (0 = none).
type bucket [8]uint64

// A bucket must stay exactly one 64-byte cache line: neighboring
// buckets sharing a line would false-share their CAS traffic. Both
// arrays are unsatisfiable if the size drifts.
var (
	_ [64 - len(bucket{})*8]byte
	_ [len(bucket{})*8 - 64]byte
)

// table is one version of the hash table (resizing keeps two). Its
// buckets and overflow chunks are arena memory (internal/arena), freed
// explicitly: by Grow once no operation can still hold one of the retired
// table's slots, or by Close.
type table struct {
	size    uint64 // number of main buckets, power of two
	mem     []byte // arena block holding buckets
	buckets []bucket

	// Whole-table walks that run without an epoch guard (Metrics,
	// ForEachEntry, UpdateAddresses, checkpointing) pin the table they
	// read. free on a pinned table only marks it retired; the last unpin
	// releases the memory. Neither side ever waits for the other.
	lifeMu  sync.Mutex
	walkers int
	retired bool

	// Overflow buckets are carved from chunks allocated one at a time, so
	// bucket pointers stay stable while the overflow area grows. The chunk
	// directory is copied on growth under ovMu and republished, so a
	// reader never sees it mid-append. ovBlocks keeps each chunk's arena
	// block for free (under ovMu).
	ovMu     sync.Mutex
	ovChunks atomic.Pointer[[]*[ovChunkSize]bucket]
	ovBlocks [][]byte
	ovNext   atomic.Uint64 // overflow buckets carved so far
}

const ovChunkSize = 1024

const bucketBytes = uint64(len(bucket{}) * 8)

func newTable(size uint64) *table {
	mem := arena.Alloc(int(size * bucketBytes))
	return &table{size: size, mem: mem, buckets: arena.View[bucket](mem)}
}

// bytes reports the table's arena footprint.
func (t *table) bytes() uint64 {
	t.ovMu.Lock()
	defer t.ovMu.Unlock()
	return uint64(len(t.mem) + len(t.ovBlocks)*ovChunkSize*int(bucketBytes))
}

// pin keeps the table's memory mapped for a walk until unpin, or reports
// false if the table has been retired.
func (t *table) pin() bool {
	t.lifeMu.Lock()
	defer t.lifeMu.Unlock()
	if t.retired {
		return false
	}
	t.walkers++
	return true
}

func (t *table) unpin() {
	t.lifeMu.Lock()
	defer t.lifeMu.Unlock()
	if t.walkers--; t.walkers == 0 && t.retired {
		t.release()
	}
}

// free retires the table: its memory is released now, or by the last
// walk still pinning it. No guarded operation may touch the table after.
func (t *table) free() {
	t.lifeMu.Lock()
	defer t.lifeMu.Unlock()
	t.retired = true
	if t.walkers == 0 {
		t.release()
	}
}

func (t *table) release() {
	t.ovMu.Lock()
	defer t.ovMu.Unlock()
	arena.Free(t.mem)
	for _, b := range t.ovBlocks {
		arena.Free(b)
	}
	t.mem, t.buckets, t.ovBlocks = nil, nil, nil
}

// overflowBucket returns the overflow bucket for handle h (h = 1+index).
func (t *table) overflowBucket(h uint64) *bucket {
	i := h - 1
	return &(*t.ovChunks.Load())[i/ovChunkSize][i%ovChunkSize]
}

// allocOverflow returns a handle to a fresh zeroed overflow bucket.
// Buckets are never reused: one whose link CAS lost stays unlinked (64
// bytes, counted in insertRetries), which is cheaper than an ABA-safe free
// list.
func (t *table) allocOverflow() uint64 {
	t.ovMu.Lock()
	defer t.ovMu.Unlock()
	n := t.ovNext.Load()
	if n%ovChunkSize == 0 {
		var dir []*[ovChunkSize]bucket
		if p := t.ovChunks.Load(); p != nil {
			dir = *p
		}
		block := arena.Alloc(ovChunkSize * int(bucketBytes))
		t.ovBlocks = append(t.ovBlocks, block)
		dir = append(dir[:len(dir):len(dir)], (*[ovChunkSize]bucket)(arena.View[bucket](block)))
		t.ovChunks.Store(&dir)
	}
	t.ovNext.Store(n + 1)
	return n + 1
}

// Config configures an Index.
type Config struct {
	// InitialBuckets is the starting number of main buckets (rounded up
	// to a power of two). The paper sizes this at #keys/2.
	InitialBuckets uint64
	// TagBits is the tag width in bits, 0..14. Default 14.
	TagBits uint
}

// Index is the FASTER hash index.
type Index struct {
	tagBits  uint
	tagMask  uint64 // tag field mask, already shifted into position
	tagCount uint64 // number of distinct tags

	// state is the published resize state (see resize.go); every
	// operation routes by one load of it.
	state  atomic.Pointer[state]
	growMu sync.Mutex // serializes Grow

	mx struct {
		tentativeConflicts metrics.Counter // two-phase insert backoffs (§3.2)
		insertRetries      metrics.Counter // lost slot claims / chain extensions
		resizes            metrics.Counter // completed Grow cycles
	}
}

// New creates an index with the given configuration.
func New(cfg Config) (*Index, error) {
	if cfg.InitialBuckets == 0 {
		cfg.InitialBuckets = 1024
	}
	size := uint64(1) << bits.Len64(cfg.InitialBuckets-1)
	tagBits := cfg.TagBits
	if tagBits == 0 {
		tagBits = MaxTagBits
	}
	if tagBits > MaxTagBits {
		return nil, fmt.Errorf("index: TagBits %d > max %d", tagBits, MaxTagBits)
	}
	idx := &Index{
		tagBits:  tagBits,
		tagMask:  (1<<tagBits - 1) << tagShift,
		tagCount: 1 << tagBits,
	}
	idx.state.Store(&state{phase: phaseStable, old: newTable(size)})
	return idx, nil
}

// NewForKeys sizes the index at keys/2 buckets, the paper's default.
func NewForKeys(keys uint64) (*Index, error) {
	n := keys / 2
	if n < 64 {
		n = 64
	}
	return New(Config{InitialBuckets: n})
}

// TagBits returns the configured tag width. TagZero reports whether tags
// are disabled entirely (TagBits 0 is expressed as tagMask 0 internally
// only via NewWithZeroTag; see ablation helpers).
func (idx *Index) TagBits() uint { return idx.tagBits }

// Size returns the number of main buckets of the active table.
func (idx *Index) Size() uint64 { return idx.activeTable().size }

func (idx *Index) activeTable() *table { return idx.state.Load().old }

// pinActive returns the active table pinned (see table.pin) for a walk
// that runs without an epoch guard, and the state it was active in; the
// caller unpins it. It returns a nil table once Close has freed the index.
func (idx *Index) pinActive() (*table, *state) {
	for {
		s := idx.state.Load()
		if s.old.pin() {
			return s.old, s
		}
		// A retired table has left the published state, unless Close
		// retired it.
		if idx.state.Load() == s {
			return nil, s
		}
	}
}

// ArenaBytes reports the arena memory the index's tables occupy: the
// active table, plus the table under construction while a Grow runs.
func (idx *Index) ArenaBytes() uint64 {
	s := idx.state.Load()
	n := s.old.bytes()
	if s.new != nil {
		n += s.new.bytes()
	}
	return n
}

// Close frees the index's memory. No operation may run concurrently
// with Close or follow it.
func (idx *Index) Close() { idx.state.Load().old.free() }

// tagOf extracts the (shifted) tag field for hash.
func (idx *Index) tagOf(hash uint64) uint64 {
	return (hash >> (64 - idx.tagBits) << tagShift) & idx.tagMask
}

// offsetOf extracts the bucket offset for hash in table t.
func offsetOf(t *table, hash uint64) uint64 { return hash & (t.size - 1) }

// EntryAddress extracts the record address from an entry value.
func EntryAddress(e uint64) uint64 { return e & AddressMask }

// entryLive reports whether e is a visible (non-tentative, occupied) entry.
func entryLive(e uint64) bool {
	return e != 0 && e&tentativeBit == 0 && e&occupiedBit != 0
}

// ErrNotFound is returned by Delete when no entry matches.
var ErrNotFound = errors.New("index: entry not found")

// Entry is a stable reference to one hash-bucket slot. The store reads the
// address, traverses records, and later CASes a new address into the slot.
type Entry struct {
	slot *uint64
	// meta holds the occupied|tag bits that every new value must carry.
	meta uint64
}

// Address returns the current record address in the slot.
func (e Entry) Address() uint64 { return EntryAddress(atomic.LoadUint64(e.slot)) }

// Load returns the raw current entry word.
func (e Entry) Load() uint64 { return atomic.LoadUint64(e.slot) }

// CompareAndSwapAddress installs newAddr if the slot still carries oldAddr
// with this entry's tag. It fails if the entry was deleted, retagged or
// poisoned by a resize.
func (e Entry) CompareAndSwapAddress(oldAddr, newAddr uint64) bool {
	oldWord := e.meta | (oldAddr & AddressMask)
	newWord := e.meta | (newAddr & AddressMask)
	return atomic.CompareAndSwapUint64(e.slot, oldWord, newWord)
}

// CompareAndDelete zeroes the slot if it still carries oldAddr, freeing it
// for future inserts (§3.2 "Finding and Deleting an Entry").
func (e Entry) CompareAndDelete(oldAddr uint64) bool {
	oldWord := e.meta | (oldAddr & AddressMask)
	return atomic.CompareAndSwapUint64(e.slot, oldWord, 0)
}

// Prefetch touches the bucket cache line for each hash, back-to-back.
// The loads carry no dependencies on one another, so on a table larger
// than cache their misses overlap in the memory system; the FindEntry
// calls that follow hit warm lines. It is purely a performance hint:
// during a resize a touch may land in the table about to be retired,
// which costs nothing but the load.
func (idx *Index) Prefetch(hashes []uint64) {
	t := idx.activeTable()
	for _, h := range hashes {
		_ = atomic.LoadUint64(&t.buckets[offsetOf(t, h)][0])
	}
}

// FindEntry locates the live entry for hash, returning it and its current
// address. ok is false if no entry exists. The chunk pin taken by beginOp
// is held across the scan so a concurrent resize cannot poison the chain
// mid-traversal.
func (idx *Index) FindEntry(hash uint64) (e Entry, addr uint64, ok bool) {
	t, pin := idx.beginOp(hash)
	defer idx.endOp(pin)
	tag := idx.tagOf(hash)
	b := &t.buckets[offsetOf(t, hash)]
	for {
		for i := 0; i < entriesPerBucket; i++ {
			w := atomic.LoadUint64(&b[i])
			if entryLive(w) && w&idx.tagMask == tag {
				return Entry{slot: &b[i], meta: occupiedBit | tag}, w & AddressMask, true
			}
		}
		ov := atomic.LoadUint64(&b[7])
		if ov == 0 {
			return Entry{}, 0, false
		}
		b = t.overflowBucket(ov)
	}
}

// FindOrCreateEntry locates the live entry for hash or inserts one with
// address 0 using the two-phase tentative algorithm of §3.2. The returned
// address is 0 for a fresh entry.
func (idx *Index) FindOrCreateEntry(hash uint64) (Entry, uint64) {
	for {
		t, pin := idx.beginOp(hash)
		e, addr, ok := idx.findOrCreateOnce(t, hash)
		idx.endOp(pin)
		if ok {
			return e, addr
		}
	}
}

// findOrCreateOnce attempts one pass of the two-phase insert on table t.
// ok is false when the operation must be retried (lost race, duplicate
// backoff, chain extension, or resize poisoning).
func (idx *Index) findOrCreateOnce(t *table, hash uint64) (Entry, uint64, bool) {
	tag := idx.tagOf(hash)
	meta := occupiedBit | tag
	first := &t.buckets[offsetOf(t, hash)]

	// Pass 1: look for an existing live entry; remember the first empty
	// slot in chain order (the insert target).
	var free *uint64
	b := first
	for {
		for i := 0; i < entriesPerBucket; i++ {
			w := atomic.LoadUint64(&b[i])
			if entryLive(w) && w&idx.tagMask == tag {
				return Entry{slot: &b[i], meta: meta}, w & AddressMask, true
			}
			if w == 0 && free == nil {
				free = &b[i]
			}
		}
		ov := atomic.LoadUint64(&b[7])
		if ov == 0 {
			break
		}
		b = t.overflowBucket(ov)
	}
	if free == nil {
		// Chain full: extend it with a fresh overflow bucket. The CAS
		// may lose to a concurrent extender, leaving the bucket unlinked;
		// retry either way.
		idx.mx.insertRetries.Inc()
		atomic.CompareAndSwapUint64(&b[7], 0, t.allocOverflow())
		return Entry{}, 0, false
	}
	// Phase 1: claim the slot tentatively. Entries with the tentative bit
	// set are invisible to concurrent reads and updates.
	tentative := tentativeBit | meta
	if !atomic.CompareAndSwapUint64(free, 0, tentative) {
		idx.mx.insertRetries.Inc()
		return Entry{}, 0, false
	}
	// Phase 2: rescan the whole chain for another entry (tentative or
	// live) with our tag; if found, back off and retry (Fig 3b).
	dup := false
	b = first
scan:
	for {
		for i := 0; i < entriesPerBucket; i++ {
			w := atomic.LoadUint64(&b[i])
			if &b[i] != free && w&occupiedBit != 0 && w&idx.tagMask == tag {
				dup = true
				break scan
			}
		}
		ov := atomic.LoadUint64(&b[7])
		if ov == 0 {
			break
		}
		b = t.overflowBucket(ov)
	}
	if dup {
		idx.mx.tentativeConflicts.Inc()
		atomic.StoreUint64(free, 0)
		return Entry{}, 0, false
	}
	// Finalize: clear the tentative bit.
	if !atomic.CompareAndSwapUint64(free, tentative, meta) {
		// Poisoned by a concurrent resize migration; the retry routes
		// to the new table.
		return Entry{}, 0, false
	}
	return Entry{slot: free, meta: meta}, 0, true
}

// Delete removes the live entry for hash regardless of its address.
// Record-level deletes normally go through Entry.CompareAndDelete; this
// form supports administrative removal.
func (idx *Index) Delete(hash uint64) error {
	for {
		e, addr, ok := idx.FindEntry(hash)
		if !ok {
			return ErrNotFound
		}
		if e.CompareAndDelete(addr) {
			return nil
		}
	}
}

// ForEachEntry invokes fn for every live entry in the active table. Used
// by recovery, GC sweeps and tests; runs concurrently with mutations and
// sees a fuzzy snapshot. A Grow that completes meanwhile does not
// redirect the walk: it finishes over the table it started on.
func (idx *Index) ForEachEntry(fn func(addr uint64)) {
	t, _ := idx.pinActive()
	if t == nil {
		return
	}
	defer t.unpin()
	for i := range t.buckets {
		b := &t.buckets[i]
		for {
			for j := 0; j < entriesPerBucket; j++ {
				w := atomic.LoadUint64(&b[j])
				if entryLive(w) {
					fn(w & AddressMask)
				}
			}
			ov := atomic.LoadUint64(&b[7])
			if ov == 0 {
				break
			}
			b = t.overflowBucket(ov)
		}
	}
}

// UpdateAddresses rewrites every live entry's address through fn (used by
// log-truncation GC to drop dangling addresses: fn returning 0 deletes the
// entry). Not concurrent-safe with writers; callers quiesce first.
func (idx *Index) UpdateAddresses(fn func(addr uint64) uint64) {
	t, _ := idx.pinActive()
	if t == nil {
		return
	}
	defer t.unpin()
	for i := range t.buckets {
		b := &t.buckets[i]
		for {
			for j := 0; j < entriesPerBucket; j++ {
				w := atomic.LoadUint64(&b[j])
				if entryLive(w) {
					// Mask the callback's result: an address with stray
					// bits above bit 47 would leak into the tag/flag
					// field and corrupt the entry.
					newAddr := fn(w&AddressMask) & AddressMask
					if newAddr == 0 {
						atomic.StoreUint64(&b[j], 0)
					} else if newAddr != w&AddressMask {
						atomic.StoreUint64(&b[j], w&^AddressMask|newAddr)
					}
				}
			}
			ov := atomic.LoadUint64(&b[7])
			if ov == 0 {
				break
			}
			b = t.overflowBucket(ov)
		}
	}
}

// Count returns the number of live entries (O(table size); for tests and
// stats).
func (idx *Index) Count() uint64 {
	var n uint64
	idx.ForEachEntry(func(uint64) { n++ })
	return n
}

// ChainHistogramBuckets is the size of the Metrics chain-length
// distribution; the last cell aggregates all longer chains.
const ChainHistogramBuckets = 8

// Metrics is a snapshot of the index instrumentation: structural shape
// (bucket count, live entries, overflow-chain length distribution),
// latch-free contention counters (tentative-bit conflicts, lost insert
// CASes), and resize progress (Appendix B).
type Metrics struct {
	Buckets uint64 // main buckets in the active table
	Entries uint64 // live entries (fuzzy under concurrent mutation)
	TagBits uint

	// ChainLengths[i] counts main buckets whose bucket chain (main +
	// overflow) is i+1 buckets long; the last cell aggregates longer
	// chains. MaxChain is the longest chain seen.
	ChainLengths    [ChainHistogramBuckets]uint64
	MaxChain        int
	OverflowBuckets uint64 // overflow buckets carved from the arena

	TentativeConflicts uint64
	InsertRetries      uint64

	Resizes           uint64 // completed Grow cycles
	ResizeActive      bool
	ResizeChunksDone  int
	ResizeChunksTotal int
}

// Metrics scans the active table (O(buckets), like Count) and returns a
// snapshot. Safe to run concurrently with mutations; the structural
// numbers are a fuzzy snapshot.
func (idx *Index) Metrics() Metrics {
	t, s := idx.pinActive()
	m := Metrics{
		TagBits:            idx.tagBits,
		TentativeConflicts: idx.mx.tentativeConflicts.Load(),
		InsertRetries:      idx.mx.insertRetries.Load(),
		Resizes:            idx.mx.resizes.Load(),
	}
	if t == nil {
		return m
	}
	defer t.unpin()
	m.Buckets, m.OverflowBuckets = t.size, t.ovNext.Load()
	for i := range t.buckets {
		b := &t.buckets[i]
		chain := 1
		for {
			for j := 0; j < entriesPerBucket; j++ {
				if entryLive(atomic.LoadUint64(&b[j])) {
					m.Entries++
				}
			}
			ov := atomic.LoadUint64(&b[7])
			if ov == 0 {
				break
			}
			chain++
			b = t.overflowBucket(ov)
		}
		cell := chain - 1
		if cell >= ChainHistogramBuckets {
			cell = ChainHistogramBuckets - 1
		}
		m.ChainLengths[cell]++
		if chain > m.MaxChain {
			m.MaxChain = chain
		}
	}
	if s.phase != phaseStable {
		m.ResizeActive = true
		m.ResizeChunksTotal = len(s.migrated)
		for c := range s.migrated {
			if s.migrated[c].Load() {
				m.ResizeChunksDone++
			}
		}
	}
	return m
}
