package faster

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/hlog"
)

// foldKey is a variable-length key, so the fold's key area holds keys of
// many sizes and a length or offset slip shows as a mismatch.
func foldKey(i int) []byte {
	return []byte(fmt.Sprintf("fold-%d-%s", i, strings.Repeat("x", i%23)))
}

// TestFoldMatchesMap drives the fold table directly through enough keys
// to double it many times, against a map: sets, tombstones and re-adds
// in random order, with every key checked after each growth phase.
func TestFoldMatchesMap(t *testing.T) {
	f := newFold()
	defer f.free()
	ref := map[string]hlog.Address{}
	rng := rand.New(rand.NewSource(1))
	check := func() {
		t.Helper()
		for k, want := range ref {
			if got := f.get(hashKey([]byte(k)), []byte(k)); got != want {
				t.Fatalf("get(%q) = %#x, want %#x", k, got, want)
			}
		}
	}
	const keys = 200_000
	addr := hlog.Address(64)
	for round := 0; round < 3; round++ {
		for n := 0; n < keys; n++ {
			i := rng.Intn(keys)
			k := foldKey(i)
			h := hashKey(k)
			if rng.Intn(5) == 0 {
				f.tombstone(h, k)
				if _, ok := ref[string(k)]; ok {
					ref[string(k)] = hlog.InvalidAddress
				}
				continue
			}
			addr += 8
			f.set(h, k, addr)
			ref[string(k)] = addr
		}
		check()
	}
	if got := f.get(hashKey([]byte("absent")), []byte("absent")); got != hlog.InvalidAddress {
		t.Fatalf("absent key = %#x", got)
	}
	if f.used != len(ref) {
		t.Fatalf("fold holds %d keys, reference %d", f.used, len(ref))
	}
	if f.peak < uint64(len(f.slotMem)+len(f.keys)) {
		t.Fatalf("peak %d below the current footprint", f.peak)
	}
}

// TestFoldCompactGrowth compacts a prefix of 150 k keys written in
// several versions, with tombstones and keys re-added after deletion, so
// the fold table grows many times during phase 1. Some keys are then
// superseded or deleted above the cut. The copied and skipped counts must
// equal what a reference map predicts, and every key must read back as
// the reference says once the prefix is gone: a fold that loses an entry
// when it grows leaves that key uncopied and truncated away.
func TestFoldCompactGrowth(t *testing.T) {
	if testing.Short() {
		t.Skip("large compaction")
	}
	s, _ := openTestStore(t, Config{PageBits: 16, BufferPages: 8, IndexBuckets: 1 << 16})
	sess := s.StartSession()
	defer sess.Close()

	const n = 150_000
	ref := make(map[int]uint64, n) // absent: deleted
	upsert := func(i int, v uint64) {
		if st, err := sess.Upsert(foldKey(i), u64(v)); st != OK || err != nil {
			t.Fatalf("upsert %d: %v %v", i, st, err)
		}
		ref[i] = v
	}
	del := func(i int) {
		if st, err := sess.Delete(foldKey(i)); err != nil || (st != OK && st != NotFound) {
			t.Fatalf("delete %d: %v %v", i, st, err)
		}
		delete(ref, i)
	}
	// Each key gets all its versions before the next key starts, so the
	// fold grows while earlier keys already hold their final address: an
	// entry lost by a growth is never put back by a later version.
	for i := 0; i < n; i++ {
		for round := uint64(0); round < 3; round++ {
			switch {
			case round == 1 && i%7 == 0:
				del(i) // deleted in the middle version...
			case round == 2 && i%7 == 0 && i%14 != 0:
				// ...and stays deleted, or is re-added here.
			default:
				upsert(i, uint64(i)*10+round)
			}
		}
		if i%11 == 0 {
			del(i) // newest version in the prefix is a tombstone
		}
	}
	sess.CompletePending(true)

	// Everything so far is the prefix. Push it below the safe read-only
	// address with filler keys the prefix never saw.
	cut := s.Log().TailAddress()
	for f := 0; s.Log().SafeReadOnlyAddress() < cut; f++ {
		if st, _ := sess.Upsert(foldKey(n+f), u64(1)); st != OK {
			t.Fatal("filler upsert failed")
		}
	}
	atCut := make(map[int]bool, len(ref))
	for i := range ref {
		atCut[i] = true
	}

	// Above the cut: supersede some live keys, delete others.
	for i := 0; i < n; i += 13 {
		upsert(i, 1<<40+uint64(i))
	}
	for i := 0; i < n; i += 17 {
		del(i)
	}
	sess.CompletePending(true)
	wantCopied, wantSkipped := 0, 0
	for i := range atCut {
		if i%13 == 0 || i%17 == 0 {
			wantSkipped++
		} else {
			wantCopied++
		}
	}

	sess.Park()
	stats, err := s.Compact(cut)
	sess.Unpark()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Copied != wantCopied || stats.Skipped != wantSkipped {
		t.Fatalf("copied %d skipped %d, reference predicts %d and %d",
			stats.Copied, stats.Skipped, wantCopied, wantSkipped)
	}
	if peak := s.Metrics().Memory.FoldPeak; peak == 0 {
		t.Fatal("fold peak not reported")
	}

	for i := 0; i < n; i++ {
		got, st := readU64(t, sess, foldKey(i))
		want, live := ref[i]
		switch {
		case live && (st != OK || got != want):
			t.Fatalf("key %d = (%d, %v), want (%d, OK)", i, got, st, want)
		case !live && st != NotFound:
			t.Fatalf("deleted key %d = (%d, %v), want NotFound", i, got, st)
		}
	}
}
