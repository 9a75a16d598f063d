package faster

import (
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"repro/internal/device"
	"repro/internal/hlog"
)

func TestScanSeesAllLiveRecords(t *testing.T) {
	s, _ := openTestStore(t, Config{BufferPages: 8})
	sess := s.StartSession()
	const n = 800
	for i := uint64(0); i < n; i++ {
		sess.RMW(key(i), u64(i+1), nil)
	}
	sess.CompletePending(true)
	sess.Close()

	// Scan the whole log; the newest version of every key must appear.
	newest := map[uint64]uint64{}
	err := s.Scan(ScanOptions{}, func(r ScanRecord) bool {
		k := binary.LittleEndian.Uint64(r.Key)
		if !r.Tombstone {
			newest[k] = binary.LittleEndian.Uint64(r.Value)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(newest) != n {
		t.Fatalf("scan found %d keys, want %d", len(newest), n)
	}
	for k, v := range newest {
		if v != k+1 {
			t.Fatalf("scan: key %d = %d, want %d", k, v, k+1)
		}
	}
}

func TestScanEarlyStop(t *testing.T) {
	s, _ := openTestStore(t, Config{})
	sess := s.StartSession()
	for i := uint64(0); i < 100; i++ {
		sess.RMW(key(i), u64(1), nil)
	}
	sess.Close()
	count := 0
	s.Scan(ScanOptions{}, func(ScanRecord) bool {
		count++
		return count < 10
	})
	if count != 10 {
		t.Fatalf("scan yielded %d records after early stop, want 10", count)
	}
}

func TestScanSkipsInvalidByDefault(t *testing.T) {
	s, _ := openTestStore(t, Config{})
	sess := s.StartSession()
	sess.RMW(key(1), u64(1), nil)
	sess.Close()
	// Forge an invalid record by direct manipulation: append then mark.
	g := s.em.Acquire()
	addr, err := s.log.Allocate(recordSize(8, 8), g)
	if err != nil {
		t.Fatal(err)
	}
	writeRecord(s.log.Slice(addr)[:recordSize(8, 8)], 0, 0, key(2), 8)
	s.setInvalid(addr)
	g.Release()

	var keys []uint64
	s.Scan(ScanOptions{}, func(r ScanRecord) bool {
		keys = append(keys, binary.LittleEndian.Uint64(r.Key))
		return true
	})
	if len(keys) != 1 || keys[0] != 1 {
		t.Fatalf("scan keys = %v, want [1]", keys)
	}
	var withInvalid int
	s.Scan(ScanOptions{IncludeInvalid: true}, func(r ScanRecord) bool {
		withInvalid++
		return true
	})
	if withInvalid != 2 {
		t.Fatalf("scan with invalid = %d records, want 2", withInvalid)
	}
}

func TestCheckpointRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	dev := device.NewMem(device.MemConfig{})
	cfg := Config{Ops: SumOps{}, PageBits: 12, BufferPages: 8,
		IndexBuckets: 1 << 10, Device: dev}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sess := s.StartSession()
	const n = 500
	for i := uint64(0); i < n; i++ {
		sess.RMW(key(i), u64(i+1), nil)
	}
	sess.CompletePending(true)
	sess.Close()

	info, err := s.Checkpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if info.T2 < info.T1 {
		t.Fatalf("checkpoint bracket inverted: %+v", info)
	}

	// Post-checkpoint updates must NOT survive recovery (they are past
	// t2 and unflushed): monotonicity per §6.5.
	sess2 := s.StartSession()
	sess2.RMW(key(0), u64(1000), nil)
	sess2.Close()
	s.Close()

	// Recover using the same device (its contents are the durable log).
	r, err := Recover(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	rs := r.StartSession()
	defer rs.Close()
	for i := uint64(0); i < n; i++ {
		got, st := readU64(t, rs, key(i))
		if st != OK || got != i+1 {
			t.Fatalf("recovered key %d = (%d, %v), want (%d, OK)", i, got, st, i+1)
		}
	}
}

// TestCheckpointRefusesNullDevice checkpoints an in-memory store: a
// ring over a device.Null, which keeps none of the pages a checkpoint
// flushes. Committing it would let recovery succeed over a log prefix that
// no longer exists, every read below the recovered tail failing on the
// device. The checkpoint must fail, write no manifest, and leave the store
// serving.
func TestCheckpointRefusesNullDevice(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Ops: SumOps{}, PageBits: 12, BufferPages: 64,
		MutableFraction: 1, IndexBuckets: 1 << 10, Device: device.NewNull()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sess := s.StartSession()
	for i := uint64(0); i < 300; i++ {
		if st, err := sess.RMW(key(i%100), u64(1), nil); st != OK {
			t.Fatalf("RMW = (%v, %v)", st, err)
		}
	}
	sess.Close()

	if info, err := s.Checkpoint(dir); err == nil {
		t.Fatalf("Checkpoint over device.Null committed %+v, want an error", info)
	}
	for _, name := range manifestNames {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Fatalf("%s after a refused checkpoint: stat err %v, want not exist", name, err)
		}
	}

	sess = s.StartSession()
	defer sess.Close()
	if st, err := sess.RMW(key(1), u64(1), nil); st != OK {
		t.Fatalf("RMW after the refused checkpoint = (%v, %v)", st, err)
	}
	if got, st := readU64(t, sess, key(1)); st != OK || got != 4 {
		t.Fatalf("key 1 after the refused checkpoint = (%d, %v), want (4, OK)", got, st)
	}
}

func TestRecoveredStoreAcceptsNewWrites(t *testing.T) {
	dir := t.TempDir()
	dev := device.NewMem(device.MemConfig{})
	cfg := Config{Ops: SumOps{}, PageBits: 12, BufferPages: 8,
		IndexBuckets: 256, Device: dev}
	s, _ := Open(cfg)
	sess := s.StartSession()
	for i := uint64(0); i < 300; i++ {
		sess.RMW(key(i), u64(1), nil)
	}
	sess.CompletePending(true)
	sess.Close()
	if _, err := s.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	s.Close()

	r, err := Recover(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	rs := r.StartSession()
	defer rs.Close()
	// Updates on recovered data.
	for i := uint64(0); i < 300; i++ {
		st, err := rs.RMW(key(i), u64(1), nil)
		if err != nil {
			t.Fatal(err)
		}
		if st == Pending {
			rs.CompletePending(true)
		}
	}
	got, st := readU64(t, rs, key(5))
	if st != OK || got != 2 {
		t.Fatalf("key 5 after recovery+RMW = (%d, %v), want (2, OK)", got, st)
	}
	// Brand-new keys too.
	rs.RMW(key(9999), u64(7), nil)
	got, st = readU64(t, rs, key(9999))
	if st != OK || got != 7 {
		t.Fatalf("new key after recovery = (%d, %v)", got, st)
	}
}

func TestRebuildIndexMatchesLiveIndex(t *testing.T) {
	s, _ := openTestStore(t, Config{BufferPages: 16})
	sess := s.StartSession()
	rng := rand.New(rand.NewSource(1))
	live := map[uint64]uint64{}
	for i := 0; i < 2000; i++ {
		k := uint64(rng.Intn(200))
		switch rng.Intn(3) {
		case 0, 1:
			st, _ := sess.RMW(key(k), u64(1), nil)
			if st == Pending {
				sess.CompletePending(true)
			}
			live[k]++
		case 2:
			st, _ := sess.Delete(key(k))
			if st == OK || st == NotFound {
				delete(live, k)
			}
		}
	}
	sess.CompletePending(true)
	sess.Close()

	if err := s.RebuildIndex(); err != nil {
		t.Fatal(err)
	}
	rs := s.StartSession()
	defer rs.Close()
	for k, want := range live {
		got, st := readU64(t, rs, key(k))
		if st != OK || got != want {
			t.Fatalf("rebuilt index: key %d = (%d, %v), want (%d, OK)", k, got, st, want)
		}
	}
	for k := uint64(0); k < 200; k++ {
		if _, ok := live[k]; ok {
			continue
		}
		if _, st := readU64(t, rs, key(k)); st != NotFound {
			t.Fatalf("rebuilt index: deleted key %d = %v, want NotFound", k, st)
		}
	}
}

func TestTruncateUntilDropsOldData(t *testing.T) {
	s, _ := openTestStore(t, Config{BufferPages: 8})
	sess := s.StartSession()
	for i := uint64(0); i < 1500; i++ {
		sess.RMW(key(i), u64(i+1), nil)
	}
	sess.CompletePending(true)

	head := s.Log().HeadAddress()
	if head == 0 {
		t.Skip("log did not spill")
	}
	// TruncateUntil waits for an epoch drain before freeing the device
	// range; the session must not pin the epoch while it runs.
	sess.Park()
	if err := s.TruncateUntil(head / 2); err != nil {
		t.Fatal(err)
	}
	sess.Unpark()
	// Keys whose only record is below the truncation point read NotFound;
	// keys above still resolve. Count both behaviours.
	var found, missing int
	for i := uint64(0); i < 1500; i++ {
		out := make([]byte, 8)
		st, err := sess.Read(key(i), nil, out, nil)
		if err != nil {
			t.Fatal(err)
		}
		if st == Pending {
			for _, r := range sess.CompletePending(true) {
				st = r.Status
				_ = r
			}
		}
		switch st {
		case OK:
			found++
		case NotFound:
			missing++
		default:
			t.Fatalf("Read(%d) = %v", i, st)
		}
	}
	if missing == 0 {
		t.Fatal("truncation dropped nothing")
	}
	if found == 0 {
		t.Fatal("truncation dropped everything")
	}
	sess.Close()
}

func TestCRDTDeltasInFuzzyRegion(t *testing.T) {
	// With CRDT enabled, RMWs never go pending in the fuzzy region; they
	// append delta records that reads reconcile.
	s, _ := openTestStore(t, Config{CRDT: true, BufferPages: 8, MutableFraction: 0.25})
	sess := s.StartSession()
	defer sess.Close()
	const keys = 50
	const rounds = 40
	for r := 0; r < rounds; r++ {
		for i := uint64(0); i < keys; i++ {
			st, err := sess.RMW(key(i), u64(1), nil)
			if err != nil {
				t.Fatal(err)
			}
			if st == Pending {
				t.Fatalf("CRDT RMW on key %d went Pending; a delta needs no read", i)
			}
		}
	}
	for i := uint64(0); i < keys; i++ {
		got, st := readU64(t, sess, key(i))
		if st != OK || got != rounds {
			t.Fatalf("CRDT counter %d = (%d, %v), want (%d, OK)", i, got, st, rounds)
		}
	}
	if s.Stats().FuzzyRMWs != 0 {
		t.Fatalf("CRDT store deferred %d fuzzy RMWs; deltas should have handled them", s.Stats().FuzzyRMWs)
	}
}

// TestCRDTColdRMWOverDelta: a CRDT RMW whose key's newest version is a
// delta on storage appends another delta instead of fetching it. Fetching
// copy-updated the delta's partial sum as if it were the base (reading 6
// here instead of 16).
func TestCRDTColdRMWOverDelta(t *testing.T) {
	s, _ := openTestStore(t, Config{CRDT: true, PageBits: 12, BufferPages: 8})
	sess := s.StartSession()
	defer sess.Close()
	k := key(7)
	if st, err := sess.Upsert(k, u64(10)); st != OK || err != nil {
		t.Fatalf("upsert: %v %v", st, err)
	}
	s.Log().ShiftReadOnlyToTail()
	if st, err := sess.RMW(k, u64(5), nil); st != OK || err != nil {
		t.Fatalf("fuzzy RMW: %v %v", st, err)
	}
	if d := s.Stats().DeltaRecords; d != 1 {
		t.Fatalf("fuzzy RMW appended %d deltas, want 1", d)
	}
	for i := uint64(0); i < 3000; i++ {
		if st, err := sess.Upsert(key(1000+i), u64(i)); st != OK || err != nil {
			t.Fatalf("filler upsert %d: %v %v", i, st, err)
		}
	}
	st, err := sess.RMW(k, u64(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if st == Pending {
		sess.CompletePending(true)
	}
	if got, st := readU64(t, sess, k); st != OK || got != 16 {
		t.Fatalf("after cold RMW: (%d, %v), want (16, OK)", got, st)
	}
	if d := s.Stats().DeltaRecords; d != 2 {
		t.Fatalf("cold RMW left %d deltas, want 2 (it should append one, not fetch)", d)
	}
}

func TestGrowIndexUnderLoad(t *testing.T) {
	s, _ := openTestStore(t, Config{IndexBuckets: 64, BufferPages: 32})
	sess := s.StartSession()
	for i := uint64(0); i < 1000; i++ {
		sess.RMW(key(i), u64(i+1), nil)
	}
	sess.CompletePending(true)
	sess.Close()

	before := s.Index().Size()
	if err := s.GrowIndex(); err != nil {
		t.Fatal(err)
	}
	if s.Index().Size() != before*2 {
		t.Fatalf("index size %d after grow, want %d", s.Index().Size(), before*2)
	}
	rs := s.StartSession()
	defer rs.Close()
	for i := uint64(0); i < 1000; i++ {
		got, st := readU64(t, rs, key(i))
		if st != OK || got != i+1 {
			t.Fatalf("after grow: key %d = (%d, %v)", i, got, st)
		}
	}
}

// modelStep drives the store and a map model identically.
type modelStep struct {
	Op  uint8
	Key uint8
	Val uint16
}

// TestQuickStoreMatchesModel checks Read/Upsert/RMW/Delete against a
// simple map oracle for arbitrary operation sequences, across all three
// allocator modes.
func TestQuickStoreMatchesModel(t *testing.T) {
	run := func(steps []modelStep, cfg Config) bool {
		s, _ := openTestStore(t, cfg)
		sess := s.StartSession()
		defer sess.Close()
		model := map[uint64]uint64{}
		for _, st := range steps {
			k := uint64(st.Key % 32)
			switch st.Op % 4 {
			case 0: // upsert (blind set via BlobOps semantics of SumOps writer)
				v := uint64(st.Val)
				if rc, err := sess.Upsert(key(k), u64(v)); err != nil || rc != OK {
					return false
				}
				model[k] = v
			case 1: // rmw add
				rc, err := sess.RMW(key(k), u64(uint64(st.Val)), nil)
				if err != nil {
					return false
				}
				if rc == Pending {
					for _, r := range sess.CompletePending(true) {
						if r.Status != OK {
							return false
						}
					}
				}
				model[k] += uint64(st.Val)
			case 2: // delete
				if _, err := sess.Delete(key(k)); err != nil {
					return false
				}
				delete(model, k)
			case 3: // read
				out := make([]byte, 8)
				rc, err := sess.Read(key(k), nil, out, nil)
				if err != nil {
					return false
				}
				if rc == Pending {
					res := sess.CompletePending(true)
					if len(res) != 1 {
						return false
					}
					rc = res[0].Status
				}
				want, ok := model[k]
				if ok != (rc == OK) {
					return false
				}
				if ok && binary.LittleEndian.Uint64(out) != want {
					return false
				}
			}
		}
		// Final verification of every key.
		for k, want := range model {
			got, rc := readU64(t, sess, key(k))
			if rc != OK || got != want {
				return false
			}
		}
		return true
	}
	cfgs := map[string]Config{
		"hybrid-small-buffer": {BufferPages: 4, PageBits: 12},
		"hybrid-crdt":         {BufferPages: 4, PageBits: 12, CRDT: true},
		"append-only":         {BufferPages: 8, PageBits: 12, Mode: hlog.ModeAppendOnly},
	}
	for name, cfg := range cfgs {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			f := func(steps []modelStep) bool { return run(steps, cfg) }
			if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestCheckpointRecoverWithFileDevice(t *testing.T) {
	// End-to-end durability: the log lives in a real file; the store is
	// closed, a fresh device reopens the same file, and recovery restores
	// all checkpointed state.
	dir := t.TempDir()
	logPath := dir + "/faster.log"
	dev, err := device.OpenFile(logPath, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Ops: SumOps{}, PageBits: 12, BufferPages: 8,
		IndexBuckets: 256, Device: dev}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sess := s.StartSession()
	for i := uint64(0); i < 400; i++ {
		sess.RMW(key(i), u64(i*2+1), nil)
	}
	sess.CompletePending(true)
	sess.Close()
	if _, err := s.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	s.Close()
	dev.Close()

	dev2, err := device.OpenFile(logPath, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Device = dev2
	r, err := Recover(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		r.Close()
		dev2.Close()
	}()
	rs := r.StartSession()
	defer rs.Close()
	for i := uint64(0); i < 400; i += 17 {
		got, st := readU64(t, rs, key(i))
		if st != OK || got != i*2+1 {
			t.Fatalf("file-device recovery: key %d = (%d, %v), want (%d, OK)", i, got, st, i*2+1)
		}
	}
}
