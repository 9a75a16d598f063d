package index

import (
	"errors"
	"math"
	"math/bits"
	"runtime"
	"sync/atomic"

	"repro/internal/epoch"
)

// Resizing (Appendix B of the paper) walks three phases:
//
//	stable    normal operation on the active table
//	prepare   a new table exists; threads pin their chunk around each
//	          index operation so migration cannot start under them
//	resizing  threads cooperatively migrate chunks; operations route to
//	          the new table once their chunk is done
//
// The phase, and the tables and chunk arrays it works on, are one
// immutable state value published through an atomic pointer. An operation
// loads it once and touches only what that value names, so a thread
// delayed across a whole resize cycle still sees its own cycle's finished
// chunk arrays, never the next cycle's.
//
// The epoch framework provides the prepare->resizing transition: Grow
// publishes the resizing value from a BumpWith action, which runs only
// after every thread has refreshed past the prepare bump. The same rule
// covers a late resizing-phase operation, which holds no pin, on the table
// the next cycle is preparing (the package comment's epoch contract): the
// next cycle cannot publish its resizing value, and so cannot migrate
// anything, until that operation's thread refreshes.
//
// Safety against stale entry references: when a migrator copies an entry
// out of the old table it CASes the old slot to a poison word (tentative,
// unoccupied). Any Entry.CompareAndSwapAddress held from before the resize
// then fails, and the caller retries its operation, which routes to the
// new table.
//
// A split points both child buckets at the same record chain. The index
// stores no keys, and part of a chain may live on disk, so the child that
// "really" owns each record cannot be determined synchronously (the paper
// makes the same choice). Chains self-clean as records are copied forward.
// Merging (shrink) requires the meta-record mechanism sketched in the
// paper's appendix and is not implemented; Shrink returns ErrUnsupported.

const (
	phaseStable uint32 = iota
	phasePrepare
	phaseResizing
)

// maxResizeChunks caps the number of migration chunks of one Grow.
const maxResizeChunks = 256

// poisonWord marks a migrated slot: tentative and not occupied, so it is
// invisible to readers and unmatchable by any legitimate CAS.
const poisonWord = tentativeBit

// ErrUnsupported is returned by Shrink.
var ErrUnsupported = errors.New("index: shrink requires meta-records and is not implemented")

// state is one published resize state. Its fields never change once it is
// stored in Index.state; a phase change publishes a new value. The prepare
// and resizing values of one Grow share pins and migrated.
type state struct {
	phase    uint32
	old, new *table // old is the active table when stable; new is nil then
	// chunkShift is log2 of the old-table buckets per migration chunk.
	chunkShift uint
	pins       []atomic.Int32 // operations in the chunk; MinInt32 once claimed
	migrated   []atomic.Bool  // chunk copied into new
}

// chunkOf maps a hash to its migration chunk in the old table.
func (s *state) chunkOf(hash uint64) int {
	return int((hash & (s.old.size - 1)) >> s.chunkShift)
}

// beginOp routes an index operation to the right table for hash. It
// returns the table whose buckets the operation may touch and the chunk
// pin it holds (nil if none), which the caller passes to endOp.
func (idx *Index) beginOp(hash uint64) (*table, *atomic.Int32) {
	for {
		s := idx.state.Load()
		switch s.phase {
		case phaseStable:
			return s.old, nil
		case phasePrepare:
			pin := &s.pins[s.chunkOf(hash)]
			if pin.Add(1) > 0 && idx.state.Load() == s {
				return s.old, pin
			}
			// Resizing was published since the load: either the re-check
			// saw it, or a migrator already claimed the chunk, which it
			// only does after the store. Undo and route by the new value.
			pin.Add(-1)
		default:
			idx.ensureChunkDone(s, s.chunkOf(hash))
			return s.new, nil
		}
	}
}

// endOp releases the chunk pin taken by beginOp.
func (idx *Index) endOp(pin *atomic.Int32) {
	if pin != nil {
		pin.Add(-1)
	}
}

// ensureChunkDone cooperatively migrates chunk of s or waits for its
// migrator. It touches only s's own arrays, so a caller holding the
// state of a finished cycle returns at once. The wait is on other threads'
// pins and migration, never on epoch progress.
func (idx *Index) ensureChunkDone(s *state, chunk int) {
	for !s.migrated[chunk].Load() {
		if s.pins[chunk].CompareAndSwap(0, math.MinInt32) {
			idx.migrateChunk(s, chunk)
			s.migrated[chunk].Store(true)
			return
		}
		runtime.Gosched()
	}
}

// migrateChunk copies every live entry of the chunk's old-table buckets
// into both child buckets of the new table, poisoning old slots as it
// goes. The migrator has exclusive ownership of the chunk (pins are
// negative) and of the child buckets.
func (idx *Index) migrateChunk(s *state, chunk int) {
	lo := uint64(chunk) << s.chunkShift
	hi := lo + 1<<s.chunkShift
	for off := lo; off < hi; off++ {
		b := &s.old.buckets[off]
		for {
			for i := 0; i < entriesPerBucket; i++ {
				for {
					w := atomic.LoadUint64(&b[i])
					if w == 0 || w == poisonWord {
						break
					}
					if entryLive(w) {
						idx.insertMigrated(s.new, off, w)
						idx.insertMigrated(s.new, off+s.old.size, w)
					}
					if atomic.CompareAndSwapUint64(&b[i], w, poisonWord) {
						break
					}
					// Lost a race with a late CAS; undo the copies and
					// redo with the fresh value.
					idx.removeMigrated(s.new, off, w)
					idx.removeMigrated(s.new, off+s.old.size, w)
				}
			}
			ov := atomic.LoadUint64(&b[7])
			if ov == 0 {
				break
			}
			b = s.old.overflowBucket(ov)
		}
	}
}

// insertMigrated places entry w into the new-table bucket at off. The
// migrator owns the destination, so plain stores (atomic for publication)
// suffice.
func (idx *Index) insertMigrated(t *table, off uint64, w uint64) {
	b := &t.buckets[off]
	for {
		for i := 0; i < entriesPerBucket; i++ {
			if atomic.LoadUint64(&b[i]) == 0 {
				atomic.StoreUint64(&b[i], w)
				return
			}
		}
		ov := atomic.LoadUint64(&b[7])
		if ov == 0 {
			ov = t.allocOverflow()
			atomic.StoreUint64(&b[7], ov)
		}
		b = t.overflowBucket(ov)
	}
}

// removeMigrated undoes insertMigrated after a lost CAS race.
func (idx *Index) removeMigrated(t *table, off uint64, w uint64) {
	b := &t.buckets[off]
	for {
		for i := 0; i < entriesPerBucket; i++ {
			if atomic.LoadUint64(&b[i]) == w {
				atomic.StoreUint64(&b[i], 0)
				return
			}
		}
		ov := atomic.LoadUint64(&b[7])
		if ov == 0 {
			return
		}
		b = t.overflowBucket(ov)
	}
}

// Grow doubles the index on the fly. It drives the three-phase state
// machine of Appendix B, using em to guarantee that migration starts only
// after every thread has observed the prepare phase. The caller must not
// hold an epoch guard (other sessions keep refreshing as usual and help
// migrate chunks they touch).
func (idx *Index) Grow(em *epoch.Manager) error {
	idx.growMu.Lock()
	defer idx.growMu.Unlock()

	old := idx.state.Load().old
	chunks := min(maxResizeChunks, old.size)
	prepare := &state{
		phase:      phasePrepare,
		old:        old,
		new:        newTable(old.size * 2),
		chunkShift: uint(bits.TrailingZeros64(old.size / chunks)),
		pins:       make([]atomic.Int32, chunks),
		migrated:   make([]atomic.Bool, chunks),
	}
	resizing := *prepare
	resizing.phase = phaseResizing

	idx.state.Store(prepare)
	em.BumpWith(func() { idx.state.Store(&resizing) })
	for idx.state.Load() == prepare {
		em.Drain()
		runtime.Gosched()
	}
	for c := range resizing.pins {
		idx.ensureChunkDone(&resizing, c)
	}
	idx.state.Store(&state{phase: phaseStable, old: resizing.new})
	idx.mx.resizes.Inc()

	// The old table is out of the published state, but an operation routed
	// by an earlier state may still hold one of its slots (a prepare-phase
	// FindEntry's Entry, a Prefetch) until its thread refreshes: free it
	// from the drain action of one more bump. An unguarded whole-table
	// walk still reading it has pinned it and releases it when done.
	em.BumpWith(old.free)
	return nil
}

// Shrink is unimplemented; see the package comment above.
func (idx *Index) Shrink(*epoch.Manager) error { return ErrUnsupported }
