package faster

import (
	"encoding/binary"
	"sync/atomic"
	"testing"

	"repro/internal/hlog"
)

// tallyOps counts which reader a read reached, so a test can tell the
// SingleReader path below the safe read-only offset from ConcurrentReader
// above it.
type tallyOps struct {
	ValueOps
	single, concurrent atomic.Int64
}

func (o *tallyOps) SingleReader(k, v, in, out []byte) {
	o.single.Add(1)
	o.ValueOps.SingleReader(k, v, in, out)
}

func (o *tallyOps) ConcurrentReader(k, v, in, out []byte) {
	o.concurrent.Add(1)
	o.ValueOps.ConcurrentReader(k, v, in, out)
}

func (o *tallyOps) Merge(k, delta, acc []byte) { o.ValueOps.(MergeOps).Merge(k, delta, acc) }

// chainHead returns the raw index entry address of k's chain, or
// hlog.InvalidAddress if k has no index entry.
func chainHead(t *testing.T, s *Store, k []byte) hlog.Address {
	t.Helper()
	_, addr, _ := s.idx.FindEntry(hashKey(k))
	return addr
}

// truncatePastHead upserts k and truncates the log past its record while
// the record is still in memory: begin ends above head, as TruncateUntil
// allows on a store that has evicted nothing.
func truncatePastHead(t *testing.T, s *Store, sess *Session, k []byte) {
	sess.Upsert(k, u64(7))
	sess.Park()
	if err := s.TruncateUntil(s.Log().TailAddress()); err != nil {
		t.Fatal(err)
	}
	sess.Unpark()
	if head, begin := s.Log().HeadAddress(), s.Log().BeginAddress(); chainHead(t, s, k) >= begin || chainHead(t, s, k) < head {
		t.Fatalf("record at %#x is not in [head %#x, begin %#x)", chainHead(t, s, k), head, begin)
	}
}

// hmStep is one operation of a TestHeadMatchFallThrough case and what it
// must do: its answer, the Stats it moves, the reader it reaches and
// whether it republishes the key's index entry.
type hmStep struct {
	rmw                bool // RMW with input 1; otherwise Read
	st                 Status
	val                uint64 // Read: the value returned
	single, concurrent int64  // Read: reader calls
	inPlace, appends   uint64 // Stats deltas
	moved              bool   // the key's index entry changed
	sealsOld           bool   // RMW: the old chain head ends sealed
}

// TestHeadMatchFallThrough pins every case the chain-head match of Read
// and RMW must hand to the general walk, plus the match itself, with the
// answer, Stats and record layout each one had before the match existed.
// Every case runs through the single-op calls and through ExecBatch.
func TestHeadMatchFallThrough(t *testing.T) {
	read := func(val uint64, single, concurrent int64) hmStep {
		return hmStep{st: OK, val: val, single: single, concurrent: concurrent}
	}
	inPlace := hmStep{rmw: true, st: OK, inPlace: 1}
	copied := hmStep{rmw: true, st: OK, appends: 1, moved: true}
	// twoVersions leaves k's chain as a fresh head holding 9 over a sealed
	// record holding 7.
	twoVersions := func(t *testing.T, s *Store, sess *Session, k []byte) {
		sess.Upsert(k, u64(7))
		s.seal(chainHead(t, s, k))
		if st, err := sess.Upsert(k, u64(9)); st != OK {
			t.Fatalf("upsert: %v %v", st, err)
		}
	}
	cases := []struct {
		name  string
		cfg   Config
		setup func(t *testing.T, s *Store, sess *Session) []byte // returns the key
		steps []hmStep
	}{
		{
			name: "mutable head matches",
			setup: func(t *testing.T, s *Store, sess *Session) []byte {
				sess.Upsert(key(1), u64(7))
				return key(1)
			},
			steps: []hmStep{read(7, 0, 1), inPlace, read(8, 0, 1)},
		},
		{
			name: "tombstoned head",
			setup: func(t *testing.T, s *Store, sess *Session) []byte {
				twoVersions(t, s, sess, key(1))
				sess.Delete(key(1)) // not a singleton chain: tombstoned in place
				if atomic.LoadUint64(s.headerPtr(chainHead(t, s, key(1))))&flagTombstone == 0 {
					t.Fatal("delete did not tombstone the head")
				}
				return key(1)
			},
			steps: []hmStep{{st: NotFound}, copied, read(1, 0, 1)},
		},
		{
			name: "invalid head over the live key",
			setup: func(t *testing.T, s *Store, sess *Session) []byte {
				twoVersions(t, s, sess, key(1))
				s.setInvalid(chainHead(t, s, key(1))) // as a lost CAS leaves it
				return key(1)
			},
			steps: []hmStep{read(7, 0, 1), copied, read(8, 0, 1)},
		},
		{
			name: "sealed head",
			setup: func(t *testing.T, s *Store, sess *Session) []byte {
				sess.Upsert(key(1), u64(7))
				s.seal(chainHead(t, s, key(1)))
				return key(1)
			},
			steps: []hmStep{read(7, 0, 1), copied, read(8, 0, 1)},
		},
		{
			name: "CRDT delta head",
			cfg:  Config{CRDT: true},
			setup: func(t *testing.T, s *Store, sess *Session) []byte {
				k := key(1)
				sess.Upsert(k, u64(7))
				raw := chainHead(t, s, k)
				if st, err := sess.rmwAppendDelta(hashKey(k), k, u64(3), raw, raw); st != statusDone || err != nil {
					t.Fatalf("append delta: %v %v", st, err)
				}
				return k
			},
			// Reads reconcile through Merge; RMW appends one more delta.
			steps: []hmStep{read(10, 0, 0), copied, read(11, 0, 0)},
		},
		{
			name: "head holds another key",
			cfg:  Config{TagBits: 1},
			setup: func(t *testing.T, s *Store, sess *Session) []byte {
				sess.Upsert(key(1), u64(7))
				head := chainHead(t, s, key(1))
				for i := uint64(2); i < 1<<20; i++ {
					if _, a, ok := s.idx.FindEntry(hashKey(key(i))); ok && a == head {
						sess.Upsert(key(i), u64(1)) // now the head, over key 1
						return key(1)
					}
				}
				t.Fatal("no key shares key 1's index entry")
				return nil
			},
			steps: []hmStep{read(7, 0, 1), inPlace, read(8, 0, 1)},
		},
		{
			// A Read finds the dangling entry and drops it (lazy GC).
			name: "head below begin, Read first",
			setup: func(t *testing.T, s *Store, sess *Session) []byte {
				truncatePastHead(t, s, sess, key(1))
				return key(1)
			},
			steps: []hmStep{{st: NotFound, moved: true}, copied, read(1, 0, 1)},
		},
		{
			// An RMW drops the dangling entry and inserts the initial value.
			name: "head below begin, RMW first",
			setup: func(t *testing.T, s *Store, sess *Session) []byte {
				truncatePastHead(t, s, sess, key(1))
				return key(1)
			},
			steps: []hmStep{copied, read(1, 0, 1)},
		},
		{
			name: "read-only head",
			setup: func(t *testing.T, s *Store, sess *Session) []byte {
				sess.Upsert(key(1), u64(7))
				s.Log().ShiftReadOnlyToTail()
				sess.Refresh()
				if s.Log().SafeReadOnlyAddress() <= chainHead(t, s, key(1)) {
					t.Fatal("safe read-only offset did not pass the record")
				}
				return key(1)
			},
			steps: []hmStep{read(7, 1, 0), copied, read(8, 0, 1)},
		},
		{
			name: "cache-tagged entry",
			cfg:  Config{ReadCacheBytes: 64 << 10},
			setup: func(t *testing.T, s *Store, sess *Session) []byte {
				spill(t, s, sess, 1500)
				if v, st := rcRead(t, sess, 0); st != OK || v != 1 {
					t.Fatalf("cold read = (%d, %v), want (1, OK)", v, st)
				}
				if !isCacheAddr(chainHead(t, s, key(0))) {
					t.Fatal("cold read did not publish a cached copy")
				}
				return key(0)
			},
			steps: []hmStep{read(1, 0, 1), copied, read(2, 0, 1)},
		},
		{
			name: "InPlaceUpdater declines",
			cfg:  Config{Ops: VarLenOps{}},
			setup: func(t *testing.T, s *Store, sess *Session) []byte {
				sess.Upsert(key(1), VarLenEncode([]byte("abc"))) // not a counter
				return key(1)
			},
			// The counter replaces the string: sealed and copied.
			steps: []hmStep{{rmw: true, st: OK, appends: 1, moved: true, sealsOld: true}, read(1, 0, 1)},
		},
	}

	for _, tc := range cases {
		for _, batch := range []bool{false, true} {
			name := tc.name + "/single"
			if batch {
				name = tc.name + "/batch"
			}
			t.Run(name, func(t *testing.T) {
				cfg := tc.cfg
				if cfg.Ops == nil {
					cfg.Ops = SumOps{}
				}
				ops := &tallyOps{ValueOps: cfg.Ops}
				cfg.Ops = ops
				s, _ := openTestStore(t, cfg)
				sess := s.StartSession()
				defer sess.Close()
				k := tc.setup(t, s, sess)
				for i, w := range tc.steps {
					before, head := s.Stats(), chainHead(t, s, k)
					single, concurrent := ops.single.Load(), ops.concurrent.Load()
					out := make([]byte, 16)
					var st Status
					var err error
					if batch {
						op := BatchOp{Kind: BatchRead, Key: k, Output: out}
						if w.rmw {
							op = BatchOp{Kind: BatchRMW, Key: k, Value: u64(1)}
						}
						b := []BatchOp{op}
						if err = sess.ExecBatch(b); err == nil {
							st, err = b[0].Status, b[0].Err
						}
					} else if w.rmw {
						st, err = sess.RMW(k, u64(1), nil)
					} else {
						st, err = sess.Read(k, nil, out, nil)
					}
					after := s.Stats()
					if err != nil || st != w.st {
						t.Fatalf("step %d: status (%v, %v), want %v", i, st, err, w.st)
					}
					if !w.rmw && st == OK {
						got := binary.LittleEndian.Uint64(out)
						if _, isVarLen := tc.cfg.Ops.(VarLenOps); isVarLen {
							c, _ := VarLenCounter(out)
							got = uint64(c)
						}
						if got != w.val {
							t.Fatalf("step %d: read %d, want %d", i, got, w.val)
						}
					}
					if d := ops.single.Load() - single; d != w.single {
						t.Errorf("step %d: %d SingleReader calls, want %d", i, d, w.single)
					}
					if d := ops.concurrent.Load() - concurrent; d != w.concurrent {
						t.Errorf("step %d: %d ConcurrentReader calls, want %d", i, d, w.concurrent)
					}
					if d := after.InPlace - before.InPlace; d != w.inPlace {
						t.Errorf("step %d: InPlace +%d, want +%d", i, d, w.inPlace)
					}
					if d := after.Appends - before.Appends; d != w.appends {
						t.Errorf("step %d: Appends +%d, want +%d", i, d, w.appends)
					}
					if d := after.Operations - before.Operations; d != 1 {
						t.Errorf("step %d: Operations +%d, want +1", i, d)
					}
					if moved := chainHead(t, s, k) != head; moved != w.moved {
						t.Errorf("step %d: index entry moved = %v, want %v", i, moved, w.moved)
					}
					if w.sealsOld && atomic.LoadUint64(s.headerPtr(head))&flagSealed == 0 {
						t.Errorf("step %d: old head at %#x not sealed", i, head)
					}
				}
			})
		}
	}
}
