package faster

import "testing"

// TestColdRMWPublishRechecksNewSpan moves an RMW's index entry between
// its fetch and its publish, and checks that the publish re-checks only
// what appeared above the chain head it was fetched under. One-bit tags
// give the RMW's key A a tag-colliding sibling B. The entry moves either
// to B (a clean span: A's fetched value is still its newest, so it is
// copy-updated) or to a new version of A (a superseded copy: the RMW
// re-executes over it). The moved span is either resident or pushed below
// the head, where the re-check is a storage descent of that span alone.
func TestColdRMWPublishRechecksNewSpan(t *testing.T) {
	cases := []struct {
		name    string
		own     bool // move the entry with A's own new version
		evict   bool // push the moved span below the head
		wantA   uint64
		wantIOs uint64 // device reads from the RMW's issue to its completion
	}{
		{"sibling/resident", false, false, 6, 1},
		{"sibling/evicted", false, true, 6, 2},
		{"own/resident", true, false, 101, 1},
		{"own/evicted", true, true, 101, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, mem := openTestStore(t, Config{TagBits: 1, IndexBuckets: 1 << 10})
			sess := s.StartSession()
			defer sess.Close()

			// Two keys share an index entry when their hashes agree on the
			// bucket bits and on the top (tag) bit.
			collide := func(a, b []byte) bool {
				x := hashKey(a) ^ hashKey(b)
				return x&(1<<10-1) == 0 && x>>63 == 0
			}
			a := key(1)
			var b []byte
			for i := uint64(2); b == nil; i++ {
				if collide(a, key(i)) {
					b = key(i)
				}
			}
			upsert := func(k []byte, v uint64) {
				t.Helper()
				if st, err := sess.Upsert(k, u64(v)); st != OK {
					t.Fatalf("upsert %x: %v %v", k, st, err)
				}
			}
			filler := uint64(1 << 32)
			evict := func() {
				t.Helper()
				for s.Log().InMemory(firstAddr(t, s, a)) {
					if k := key(filler); !collide(a, k) {
						upsert(k, filler)
					}
					filler++
				}
			}

			upsert(a, 5)
			evict()
			before := mem.Stats().Reads
			if st, err := sess.RMW(a, u64(1), nil); st != Pending {
				t.Fatalf("RMW of the evicted key = %v %v, want Pending", st, err)
			}
			if tc.own {
				upsert(a, 100)
			} else {
				upsert(b, 7)
			}
			if tc.evict {
				evict()
			}
			results := sess.CompletePending(true)
			reads := mem.Stats().Reads - before
			if len(results) != 1 || results[0].Kind != "rmw" || results[0].Status != OK {
				t.Fatalf("pending RMW = %+v", results)
			}
			if reads != tc.wantIOs {
				t.Errorf("RMW cost %d device reads, want %d", reads, tc.wantIOs)
			}

			if got, st := readU64(t, sess, a); st != OK || got != tc.wantA {
				t.Errorf("A = %d %v, want %d OK", got, st, tc.wantA)
			}
			wantB, wantBSt := uint64(7), OK
			if tc.own {
				wantB, wantBSt = 0, NotFound
			}
			if got, st := readU64(t, sess, b); st != wantBSt || got != wantB {
				t.Errorf("B = %d %v, want %d %v", got, st, wantB, wantBSt)
			}
		})
	}
}
