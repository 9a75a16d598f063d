package index

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/epoch"
	"repro/internal/xhash"
)

func newTestIndex(t *testing.T, buckets uint64) *Index {
	t.Helper()
	idx, err := New(Config{InitialBuckets: buckets})
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

func TestFindOnEmptyIndex(t *testing.T) {
	idx := newTestIndex(t, 64)
	if _, _, ok := idx.FindEntry(xhash.Uint64(42)); ok {
		t.Fatal("found entry in empty index")
	}
	if got := idx.Count(); got != 0 {
		t.Fatalf("Count = %d, want 0", got)
	}
}

func TestCreateThenFind(t *testing.T) {
	idx := newTestIndex(t, 64)
	h := xhash.Uint64(7)
	e, addr := idx.FindOrCreateEntry(h)
	if addr != 0 {
		t.Fatalf("fresh entry address = %#x, want 0", addr)
	}
	if !e.CompareAndSwapAddress(0, 0x1234) {
		t.Fatal("CAS into fresh entry failed")
	}
	e2, addr2, ok := idx.FindEntry(h)
	if !ok || addr2 != 0x1234 {
		t.Fatalf("FindEntry = (%v, %#x), want (true, 0x1234)", ok, addr2)
	}
	if e2.Address() != 0x1234 {
		t.Fatalf("Address() = %#x", e2.Address())
	}
}

func TestFindOrCreateIdempotent(t *testing.T) {
	idx := newTestIndex(t, 64)
	h := xhash.Uint64(99)
	e1, _ := idx.FindOrCreateEntry(h)
	e1.CompareAndSwapAddress(0, 555)
	_, addr := idx.FindOrCreateEntry(h)
	if addr != 555 {
		t.Fatalf("second FindOrCreate returned addr %d, want 555", addr)
	}
	if got := idx.Count(); got != 1 {
		t.Fatalf("Count = %d, want 1", got)
	}
}

func TestCompareAndSwapAddressFailsOnStale(t *testing.T) {
	idx := newTestIndex(t, 64)
	h := xhash.Uint64(1)
	e, _ := idx.FindOrCreateEntry(h)
	if !e.CompareAndSwapAddress(0, 100) {
		t.Fatal("initial CAS failed")
	}
	if e.CompareAndSwapAddress(0, 200) {
		t.Fatal("stale CAS succeeded")
	}
	if !e.CompareAndSwapAddress(100, 200) {
		t.Fatal("fresh CAS failed")
	}
}

func TestDeleteEntry(t *testing.T) {
	idx := newTestIndex(t, 64)
	h := xhash.Uint64(5)
	e, _ := idx.FindOrCreateEntry(h)
	e.CompareAndSwapAddress(0, 77)
	if !e.CompareAndDelete(77) {
		t.Fatal("CompareAndDelete failed")
	}
	if _, _, ok := idx.FindEntry(h); ok {
		t.Fatal("entry still visible after delete")
	}
	// Slot is reusable.
	_, addr := idx.FindOrCreateEntry(h)
	if addr != 0 {
		t.Fatalf("recreated entry addr = %d, want 0", addr)
	}
}

func TestAdministrativeDelete(t *testing.T) {
	idx := newTestIndex(t, 64)
	h := xhash.Uint64(123)
	if err := idx.Delete(h); err != ErrNotFound {
		t.Fatalf("Delete on missing = %v, want ErrNotFound", err)
	}
	e, _ := idx.FindOrCreateEntry(h)
	e.CompareAndSwapAddress(0, 1)
	if err := idx.Delete(h); err != nil {
		t.Fatal(err)
	}
	if idx.Count() != 0 {
		t.Fatal("entry survived Delete")
	}
}

func TestOverflowChains(t *testing.T) {
	// A 64-bucket index loaded with 4096 distinct keys must spill into
	// overflow buckets and still resolve every key.
	idx := newTestIndex(t, 64)
	const n = 4096
	for i := uint64(0); i < n; i++ {
		h := xhash.Uint64(i)
		e, addr := idx.FindOrCreateEntry(h)
		if addr == 0 {
			e.CompareAndSwapAddress(0, i+1)
		}
	}
	// Distinct keys may collide on (offset, tag); count entries found.
	found := 0
	for i := uint64(0); i < n; i++ {
		if _, addr, ok := idx.FindEntry(xhash.Uint64(i)); ok && addr != 0 {
			found++
		}
	}
	if found != n {
		t.Fatalf("resolved %d/%d keys", found, n)
	}
}

func TestTagsIncreaseResolution(t *testing.T) {
	// With 14 tag bits, two keys landing in the same bucket almost
	// always get distinct entries. Verify entries outnumber buckets for
	// a small table.
	idx := newTestIndex(t, 8)
	for i := uint64(0); i < 100; i++ {
		e, addr := idx.FindOrCreateEntry(xhash.Uint64(i))
		if addr == 0 {
			e.CompareAndSwapAddress(0, i+1)
		}
	}
	if c := idx.Count(); c < 90 {
		t.Fatalf("Count = %d, want close to 100 (tag collisions should be rare)", c)
	}
}

func TestZeroAddressEntryDistinctFromEmpty(t *testing.T) {
	// A claimed entry whose tag and address are both zero must not be
	// confused with an empty slot (the occupied bit). Find a hash with
	// tag 0: top 14 bits zero.
	idx := newTestIndex(t, 64)
	var h uint64 = 0x0003ffffffffffff & (1<<49 - 1) // top 14 bits zero
	if idx.tagOf(h) != 0 {
		t.Fatalf("test setup: tag = %#x, want 0", idx.tagOf(h))
	}
	e, addr := idx.FindOrCreateEntry(h)
	if addr != 0 {
		t.Fatal("fresh entry should have addr 0")
	}
	// The entry exists with address 0 and must be findable.
	_, addr2, ok := idx.FindEntry(h)
	if !ok || addr2 != 0 {
		t.Fatalf("FindEntry = (%v, %d), want (true, 0)", ok, addr2)
	}
	// A second FindOrCreate must not create a duplicate.
	idx.FindOrCreateEntry(h)
	if c := idx.Count(); c != 1 {
		t.Fatalf("Count = %d, want 1", c)
	}
	_ = e
}

func TestConcurrentInsertUniqueness(t *testing.T) {
	// The core §3.2 invariant: concurrent FindOrCreate for the same hash
	// must converge on a single entry.
	idx := newTestIndex(t, 8)
	const workers = 16
	h := xhash.Uint64(42)
	var wg sync.WaitGroup
	slots := make([]*uint64, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			e, _ := idx.FindOrCreateEntry(h)
			slots[w] = e.slot
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if slots[w] != slots[0] {
			t.Fatalf("worker %d got a different slot: duplicate entries", w)
		}
	}
	if c := idx.Count(); c != 1 {
		t.Fatalf("Count = %d, want 1", c)
	}
}

func TestConcurrentInsertDeleteSameTagInvariant(t *testing.T) {
	// Reproduces the Fig 3a scenario: deletes concurrent with inserts of
	// the same tag must never yield two live entries for one tag.
	idx := newTestIndex(t, 2)
	h := xhash.Uint64(1)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				e, addr := idx.FindOrCreateEntry(h)
				if addr == 0 {
					e.CompareAndSwapAddress(0, uint64(rng.Intn(1000)+1))
				} else if rng.Intn(2) == 0 {
					e.CompareAndDelete(addr)
				}
			}
		}(int64(w))
	}
	// Check the invariant repeatedly while the chaos runs.
	for i := 0; i < 2000; i++ {
		if c := countTag(idx, h); c > 1 {
			close(stop)
			wg.Wait()
			t.Fatalf("invariant violated: %d live entries for one tag", c)
		}
	}
	close(stop)
	wg.Wait()
	if c := countTag(idx, h); c > 1 {
		t.Fatalf("invariant violated after quiesce: %d entries", c)
	}
}

// countTag counts live entries for the (offset, tag) of hash.
func countTag(idx *Index, hash uint64) int {
	t := idx.activeTable()
	tag := idx.tagOf(hash)
	n := 0
	b := &t.buckets[offsetOf(t, hash)]
	for {
		for i := 0; i < entriesPerBucket; i++ {
			w := atomic.LoadUint64(&b[i])
			if entryLive(w) && w&idx.tagMask == tag {
				n++
			}
		}
		ov := atomic.LoadUint64(&b[7])
		if ov == 0 {
			return n
		}
		b = t.overflowBucket(ov)
	}
}

func TestGrowPreservesEntries(t *testing.T) {
	em := epoch.New(8)
	idx := newTestIndex(t, 64)
	const n = 2000
	want := map[uint64]uint64{}
	for i := uint64(0); i < n; i++ {
		h := xhash.Uint64(i)
		e, addr := idx.FindOrCreateEntry(h)
		if addr == 0 {
			e.CompareAndSwapAddress(0, i+1)
			want[h] = i + 1
		}
	}
	oldSize := idx.Size()
	if err := idx.Grow(em); err != nil {
		t.Fatal(err)
	}
	if idx.Size() != oldSize*2 {
		t.Fatalf("Size = %d, want %d", idx.Size(), oldSize*2)
	}
	for h, addr := range want {
		_, got, ok := idx.FindEntry(h)
		if !ok || got != addr {
			t.Fatalf("after grow: FindEntry(%#x) = (%v, %d), want (true, %d)", h, ok, got, addr)
		}
	}
}

func TestGrowConcurrentWithMutations(t *testing.T) {
	em := epoch.New(32)
	idx := newTestIndex(t, 64)
	const workers = 8
	var wg sync.WaitGroup
	var inserted [workers][]uint64
	stop := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			g := em.Acquire()
			defer g.Release()
			for i := uint64(0); ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				key := uint64(w)<<32 | i
				h := xhash.Uint64(key)
				e, addr := idx.FindOrCreateEntry(h)
				if addr == 0 && e.CompareAndSwapAddress(0, key+1) {
					inserted[w] = append(inserted[w], key)
				}
				g.Refresh()
			}
		}(w)
	}
	for i := 0; i < 2; i++ {
		if err := idx.Grow(em); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	// Every successfully inserted key must still resolve.
	for w := 0; w < workers; w++ {
		for _, key := range inserted[w] {
			_, addr, ok := idx.FindEntry(xhash.Uint64(key))
			if !ok {
				t.Fatalf("key %#x lost after concurrent grow", key)
			}
			_ = addr // address may have been overwritten by a tag collision
		}
	}
}

// TestGrowStragglerFromFinishedCycle holds a thread inside one Grow's
// resizing phase until the next Grow is in prepare, then lets it run
// ensureChunkDone with the state it loaded. It must work on its own
// finished cycle, leaving the next cycle's chunk arrays alone, so
// operations on that chunk still proceed and the next Grow completes.
func TestGrowStragglerFromFinishedCycle(t *testing.T) {
	em := epoch.New(8)
	idx := newTestIndex(t, 64)
	want := map[uint64]uint64{}
	for i := uint64(0); i < 500; i++ {
		h := xhash.Uint64(i)
		if e, addr := idx.FindOrCreateEntry(h); addr == 0 && e.CompareAndSwapAddress(0, i+1) {
			want[h] = i + 1
		}
	}
	h := xhash.Uint64(7)
	grown := make(chan error, 1)

	// Grow #1 stays in prepare while g holds its epoch. Pin h's chunk
	// there, then let resizing begin: the pin keeps Grow #1 from
	// finishing until its resizing state has been captured.
	g := em.Acquire()
	go func() { grown <- idx.Grow(em) }()
	waitPhase(t, idx, phasePrepare, nil)
	_, pin := idx.beginOp(h)
	straggler := waitPhase(t, idx, phaseResizing, g.Refresh)
	chunk := straggler.chunkOf(h)
	idx.endOp(pin)
	if err := <-grown; err != nil {
		t.Fatal(err)
	}

	// Grow #2 stays in prepare while g holds its epoch.
	go func() { grown <- idx.Grow(em) }()
	next := waitPhase(t, idx, phasePrepare, nil)
	idx.ensureChunkDone(straggler, chunk)
	for c := range next.pins {
		if p, m := next.pins[c].Load(), next.migrated[c].Load(); p != 0 || m {
			t.Fatalf("straggler touched the next cycle: chunk %d pins=%d migrated=%v", c, p, m)
		}
	}
	found := make(chan bool, 1)
	go func() {
		_, addr, ok := idx.FindEntry(h)
		found <- ok && addr == want[h]
	}()
	select {
	case ok := <-found:
		if !ok {
			t.Fatal("FindEntry in the next prepare lost the entry")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("FindEntry hung on the straggler's chunk")
	}

	g.Release()
	if err := <-grown; err != nil {
		t.Fatal(err)
	}
	if got := idx.Size(); got != 256 {
		t.Fatalf("Size = %d after two grows, want 256", got)
	}
	for h, addr := range want {
		if _, got, ok := idx.FindEntry(h); !ok || got != addr {
			t.Fatalf("FindEntry(%#x) = (%v, %d), want (true, %d)", h, ok, got, addr)
		}
	}
}

// waitPhase waits until idx publishes a state in phase and returns it,
// calling step (if non-nil) on every poll.
func waitPhase(t *testing.T, idx *Index, phase uint32, step func()) *state {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if s := idx.state.Load(); s.phase == phase {
			return s
		}
		if time.Now().After(deadline) {
			t.Fatalf("phase %d never published", phase)
		}
		if step != nil {
			step()
		}
		runtime.Gosched()
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	idx := newTestIndex(t, 128)
	want := map[uint64]uint64{}
	for i := uint64(0); i < 500; i++ {
		h := xhash.Uint64(i)
		e, addr := idx.FindOrCreateEntry(h)
		if addr == 0 {
			e.CompareAndSwapAddress(0, i*8+64)
			want[h] = i*8 + 64
		}
	}
	var buf bytes.Buffer
	if err := idx.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := ReadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Size() != idx.Size() {
		t.Fatalf("restored size %d != %d", restored.Size(), idx.Size())
	}
	for h, addr := range want {
		_, got, ok := restored.FindEntry(h)
		if !ok || got != addr {
			t.Fatalf("restored FindEntry(%#x) = (%v, %d), want (true, %d)", h, ok, got, addr)
		}
	}
}

func TestCheckpointDetectsCorruption(t *testing.T) {
	idx := newTestIndex(t, 64)
	e, _ := idx.FindOrCreateEntry(xhash.Uint64(1))
	e.CompareAndSwapAddress(0, 64)
	var buf bytes.Buffer
	if err := idx.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	// Header words: magic, tagBits, size, count (8 bytes each).
	flips := map[string]struct {
		byteOff int
		mask    byte
	}{
		"middle":      {len(good) / 2, 0xff},
		"size bit 32": {16 + 4, 1},
		"size bit 40": {16 + 5, 1},
		"count":       {24 + 5, 1},
	}
	for name, f := range flips {
		img := bytes.Clone(good)
		img[f.byteOff] ^= f.mask
		if _, err := ReadCheckpoint(bytes.NewReader(img)); err == nil {
			t.Errorf("%s: corrupted checkpoint accepted", name)
		}
	}

	// Images whose CRC is right but whose fields are not.
	live := occupiedBit | 3<<tagShift | 64
	hostile := map[string][]byte{
		"size not a power of two": checkpointImage(14, 48, [2]uint64{1, live}),
		"zero size":               checkpointImage(14, 0),
		"tag width 15":            checkpointImage(15, 64),
		"tentative word":          checkpointImage(14, 64, [2]uint64{1, live | tentativeBit}),
		"poison word":             checkpointImage(14, 64, [2]uint64{1, poisonWord}),
		"unoccupied word":         checkpointImage(14, 64, [2]uint64{1, 3<<tagShift | 64}),
		"tag outside tagBits":     checkpointImage(4, 64, [2]uint64{1, occupiedBit | 1<<(tagShift+4) | 64}),
		"offset out of range":     checkpointImage(14, 64, [2]uint64{64, live}),
	}
	for name, img := range hostile {
		if _, err := ReadCheckpoint(bytes.NewReader(img)); !errors.Is(err, errCorrupt) {
			t.Errorf("%s: err = %v, want errCorrupt", name, err)
		}
	}
	if _, err := ReadCheckpoint(bytes.NewReader(checkpointImage(14, 64, [2]uint64{1, live}))); err != nil {
		t.Fatalf("well-formed hand-built image rejected: %v", err)
	}
}

// checkpointImage builds an index checkpoint image with a valid CRC from
// raw header fields and (offset, entry word) records.
func checkpointImage(tagBits, size uint64, recs ...[2]uint64) []byte {
	words := []uint64{checkpointMagic, tagBits, size, uint64(len(recs))}
	for _, r := range recs {
		words = append(words, r[0], r[1])
	}
	var img []byte
	for _, w := range words {
		img = binary.LittleEndian.AppendUint64(img, w)
	}
	return binary.LittleEndian.AppendUint64(img, uint64(crc32.ChecksumIEEE(img)))
}

func TestUpdateAddresses(t *testing.T) {
	idx := newTestIndex(t, 64)
	for i := uint64(0); i < 100; i++ {
		e, addr := idx.FindOrCreateEntry(xhash.Uint64(i))
		if addr == 0 {
			e.CompareAndSwapAddress(0, i+1)
		}
	}
	before := idx.Count()
	// Drop all entries with even addresses, shift odd ones up.
	idx.UpdateAddresses(func(addr uint64) uint64 {
		if addr%2 == 0 {
			return 0
		}
		return addr + 1000
	})
	var n uint64
	idx.ForEachEntry(func(addr uint64) {
		if addr <= 1000 {
			t.Fatalf("unshifted address %d survived", addr)
		}
		n++
	})
	if n >= before {
		t.Fatalf("no entries dropped: %d -> %d", before, n)
	}
}

func TestTagBitsConfig(t *testing.T) {
	for _, tb := range []uint{1, 4, 14} {
		idx, err := New(Config{InitialBuckets: 64, TagBits: tb})
		if err != nil {
			t.Fatal(err)
		}
		if idx.TagBits() != tb {
			t.Fatalf("TagBits = %d, want %d", idx.TagBits(), tb)
		}
		// Insert and find with narrow tags still works.
		for i := uint64(0); i < 200; i++ {
			h := xhash.Uint64(i)
			e, addr := idx.FindOrCreateEntry(h)
			if addr == 0 {
				e.CompareAndSwapAddress(0, i+1)
			}
		}
		for i := uint64(0); i < 200; i++ {
			if _, _, ok := idx.FindEntry(xhash.Uint64(i)); !ok {
				t.Fatalf("tagBits=%d: key %d not found", tb, i)
			}
		}
	}
	if _, err := New(Config{TagBits: 15}); err == nil {
		t.Fatal("TagBits 15 should be rejected")
	}
}

// Property: inserting any set of distinct keys then reading them back
// resolves every key, and Count never exceeds the number of keys.
func TestQuickInsertFindAll(t *testing.T) {
	f := func(keys []uint64) bool {
		idx, err := New(Config{InitialBuckets: 16})
		if err != nil {
			return false
		}
		seen := map[uint64]bool{}
		for _, k := range keys {
			seen[k] = true
			e, addr := idx.FindOrCreateEntry(xhash.Uint64(k))
			if addr == 0 {
				e.CompareAndSwapAddress(0, 1)
			}
		}
		for k := range seen {
			if _, _, ok := idx.FindEntry(xhash.Uint64(k)); !ok {
				return false
			}
		}
		return idx.Count() <= uint64(len(seen))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: delete makes keys unfindable unless another key shares the
// (offset, tag) pair.
func TestQuickDeleteHidesKeys(t *testing.T) {
	f := func(keys []uint64) bool {
		idx, _ := New(Config{InitialBuckets: 64})
		uniq := map[uint64]bool{}
		for _, k := range keys {
			uniq[k] = true
			e, addr := idx.FindOrCreateEntry(xhash.Uint64(k))
			if addr == 0 {
				e.CompareAndSwapAddress(0, 1)
			}
		}
		for k := range uniq {
			_ = idx.Delete(xhash.Uint64(k))
		}
		return idx.Count() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkFindEntryHit(b *testing.B) {
	idx, _ := New(Config{InitialBuckets: 1 << 16})
	for i := uint64(0); i < 1<<16; i++ {
		e, addr := idx.FindOrCreateEntry(xhash.Uint64(i))
		if addr == 0 {
			e.CompareAndSwapAddress(0, i+1)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.FindEntry(xhash.Uint64(uint64(i) & (1<<16 - 1)))
	}
}

func BenchmarkFindOrCreate(b *testing.B) {
	idx, _ := New(Config{InitialBuckets: 1 << 16})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.FindOrCreateEntry(xhash.Uint64(uint64(i)))
	}
}

func TestCheckpointWithOverflowChains(t *testing.T) {
	// Force deep overflow chains, checkpoint, restore, verify.
	idx := newTestIndex(t, 8)
	want := map[uint64]uint64{}
	for i := uint64(0); i < 3000; i++ {
		h := xhash.Uint64(i)
		e, addr := idx.FindOrCreateEntry(h)
		if addr == 0 && e.CompareAndSwapAddress(0, i+100) {
			want[h] = i + 100
		}
	}
	var buf bytes.Buffer
	if err := idx.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := ReadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for h, addr := range want {
		_, got, ok := restored.FindEntry(h)
		if !ok || got != addr {
			t.Fatalf("overflow restore: FindEntry(%#x) = (%v, %d), want (true, %d)", h, ok, got, addr)
		}
	}
	if restored.Count() != idx.Count() {
		t.Fatalf("restored count %d != %d", restored.Count(), idx.Count())
	}
}

func TestGrowTwice(t *testing.T) {
	em := epoch.New(8)
	idx := newTestIndex(t, 64)
	want := map[uint64]uint64{}
	for i := uint64(0); i < 1000; i++ {
		h := xhash.Uint64(i)
		e, addr := idx.FindOrCreateEntry(h)
		if addr == 0 && e.CompareAndSwapAddress(0, i+1) {
			want[h] = i + 1
		}
	}
	size0 := idx.Size()
	if err := idx.Grow(em); err != nil {
		t.Fatal(err)
	}
	if err := idx.Grow(em); err != nil {
		t.Fatal(err)
	}
	if idx.Size() != size0*4 {
		t.Fatalf("size after two grows = %d, want %d", idx.Size(), size0*4)
	}
	for h, addr := range want {
		_, got, ok := idx.FindEntry(h)
		if !ok || got != addr {
			t.Fatalf("after double grow: FindEntry(%#x) = (%v, %d), want (true, %d)", h, ok, got, addr)
		}
	}
}

func TestStaleEntryCASFailsAfterGrow(t *testing.T) {
	// An Entry held across a resize must be poisoned: its CAS fails and
	// the caller re-routes to the new table.
	em := epoch.New(8)
	idx := newTestIndex(t, 64)
	h := xhash.Uint64(1)
	e, _ := idx.FindOrCreateEntry(h)
	if !e.CompareAndSwapAddress(0, 100) {
		t.Fatal("initial CAS failed")
	}
	if err := idx.Grow(em); err != nil {
		t.Fatal(err)
	}
	if e.CompareAndSwapAddress(100, 200) {
		t.Fatal("stale entry CAS succeeded after grow; lost-update hazard")
	}
	// The new table still resolves the key with the old address.
	_, addr, ok := idx.FindEntry(h)
	if !ok || addr != 100 {
		t.Fatalf("post-grow FindEntry = (%v, %d), want (true, 100)", ok, addr)
	}
}
