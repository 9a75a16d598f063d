package bench

import (
	"encoding/binary"
	"fmt"

	"repro/internal/baselines/btree"
	"repro/internal/baselines/lsm"
	"repro/internal/baselines/shardmap"
	"repro/internal/device"
	"repro/internal/faster"
	"repro/internal/hlog"
)

// ---------------------------------------------------------------------------
// FASTER adapter
// ---------------------------------------------------------------------------

// FasterOptions configures the FASTER system under test.
type FasterOptions struct {
	Keys            uint64
	ValueSize       int
	Mode            hlog.Mode
	PageBits        uint
	BufferPages     int
	MutableFraction float64
	TagBits         uint
	Device          device.Device // default: Mem
}

// FasterSystem adapts a faster.Store.
type FasterSystem struct {
	store *faster.Store
	dev   device.Device
	name  string
}

// NewFasterSystem opens a FASTER store for benchmarking.
func NewFasterSystem(opt FasterOptions) (*FasterSystem, error) {
	dev := opt.Device
	if dev == nil {
		dev = device.NewMem(device.MemConfig{})
	}
	if opt.PageBits == 0 {
		opt.PageBits = 16 // 64 KB pages at laptop scale
	}
	if opt.BufferPages == 0 {
		opt.BufferPages = 64
	}
	if opt.MutableFraction == 0 {
		opt.MutableFraction = 0.9
	}
	var ops faster.ValueOps = faster.SumOps{}
	if opt.ValueSize > 8 {
		ops = faster.BlobOps{}
	}
	cfg := faster.Config{
		IndexBuckets:    opt.Keys / 2,
		TagBits:         opt.TagBits,
		PageBits:        opt.PageBits,
		BufferPages:     opt.BufferPages,
		MutableFraction: opt.MutableFraction,
		Mode:            opt.Mode,
		Device:          dev,
		Ops:             ops,
		MaxSessions:     512,
	}
	s, err := faster.Open(cfg)
	if err != nil {
		return nil, err
	}
	name := "faster"
	if opt.Mode == hlog.ModeAppendOnly {
		name = "faster-aol"
	}
	return &FasterSystem{store: s, dev: dev, name: name}, nil
}

// Store exposes the underlying store (experiment metrics).
func (f *FasterSystem) Store() *faster.Store { return f.store }

// Name implements System.
func (f *FasterSystem) Name() string { return f.name }

// Close implements System.
func (f *FasterSystem) Close() error {
	err := f.store.Close()
	f.dev.Close()
	return err
}

// NewWorker implements System.
func (f *FasterSystem) NewWorker(int) Worker {
	return &fasterWorker{sess: f.store.StartSession(), key: make([]byte, 8), in: make([]byte, 8)}
}

// maxInFlight bounds a FASTER worker's outstanding misses. Below it the
// worker keeps issuing and drains completions without blocking, as the
// paper's threads do while their misses are pending; at it the worker
// waits for all of them.
const maxInFlight = 32

type fasterWorker struct {
	sess    *faster.Session
	key     []byte
	in      []byte
	pending int // operations that went Pending and have not completed
}

func (w *fasterWorker) k(key uint64) []byte {
	binary.LittleEndian.PutUint64(w.key, key)
	return w.key
}

// settle counts an operation that went Pending and drains completions.
func (w *fasterWorker) settle(st faster.Status) {
	if st == faster.Pending {
		w.pending++
	}
	if w.pending > 0 {
		w.pending -= len(w.sess.CompletePending(w.pending >= maxInFlight))
	}
}

// Read reports a synchronous hit; a read that went Pending completes
// into out later (out is the caller's scratch).
func (w *fasterWorker) Read(key uint64, out []byte) bool {
	st, _ := w.sess.Read(w.k(key), nil, out, nil)
	w.settle(st)
	return st == faster.OK
}

func (w *fasterWorker) Upsert(key uint64, value []byte) {
	w.sess.Upsert(w.k(key), value)
}

func (w *fasterWorker) RMW(key uint64, delta uint64) {
	binary.LittleEndian.PutUint64(w.in, delta)
	st, _ := w.sess.RMW(w.k(key), w.in, nil)
	w.settle(st)
}

func (w *fasterWorker) Finish() {
	w.sess.CompletePending(true)
	w.pending = 0
}
func (w *fasterWorker) Close() { w.sess.Close() }

// FuzzyOps sums (fuzzy, total) across... fuzzy stats are store-level.
// Exposed here for the Fig 12b/13 experiments.
func (f *FasterSystem) FuzzyStats() (fuzzy, total uint64) {
	st := f.store.Stats()
	return st.FuzzyRMWs, st.Operations
}

// ---------------------------------------------------------------------------
// shardmap adapter (Intel TBB stand-in)
// ---------------------------------------------------------------------------

// ShardmapSystem adapts the sharded hash map.
type ShardmapSystem struct{ m *shardmap.Map }

// NewShardmapSystem creates the system.
func NewShardmapSystem(keys uint64) *ShardmapSystem {
	return &ShardmapSystem{m: shardmap.New(256, int(keys))}
}

// Name implements System.
func (s *ShardmapSystem) Name() string { return "shardmap" }

// Close implements System.
func (s *ShardmapSystem) Close() error { return nil }

// NewWorker implements System.
func (s *ShardmapSystem) NewWorker(int) Worker { return shardmapWorker{m: s.m} }

type shardmapWorker struct{ m *shardmap.Map }

func (w shardmapWorker) Read(key uint64, out []byte) bool { return w.m.Get(key, out) }
func (w shardmapWorker) Upsert(key uint64, value []byte)  { w.m.Put(key, value) }
func (w shardmapWorker) RMW(key uint64, delta uint64)     { w.m.AtomicRMW(key, delta) }
func (w shardmapWorker) Finish()                          {}
func (w shardmapWorker) Close()                           {}

// ---------------------------------------------------------------------------
// btree adapter (Masstree stand-in)
// ---------------------------------------------------------------------------

// BTreeSystem adapts the concurrent B+tree.
type BTreeSystem struct{ t *btree.Tree }

// NewBTreeSystem creates the system.
func NewBTreeSystem() *BTreeSystem { return &BTreeSystem{t: btree.New()} }

// Name implements System.
func (s *BTreeSystem) Name() string { return "btree" }

// Close implements System.
func (s *BTreeSystem) Close() error { return nil }

// NewWorker implements System.
func (s *BTreeSystem) NewWorker(int) Worker { return btreeWorker{t: s.t} }

type btreeWorker struct{ t *btree.Tree }

func (w btreeWorker) Read(key uint64, out []byte) bool { return w.t.Get(key, out) }
func (w btreeWorker) Upsert(key uint64, value []byte)  { w.t.Put(key, value) }
func (w btreeWorker) RMW(key uint64, delta uint64) {
	w.t.RMW(key, func(cur []byte) []byte {
		if cur == nil {
			b := make([]byte, 8)
			binary.LittleEndian.PutUint64(b, delta)
			return b
		}
		binary.LittleEndian.PutUint64(cur, binary.LittleEndian.Uint64(cur)+delta)
		return cur
	})
}
func (w btreeWorker) Finish() {}
func (w btreeWorker) Close()  {}

// ---------------------------------------------------------------------------
// lsm adapter (RocksDB stand-in)
// ---------------------------------------------------------------------------

// LSMSystem adapts the LSM store.
type LSMSystem struct{ db *lsm.DB }

// NewLSMSystem creates the system. memBytes is the memtable budget (its
// "memory budget" knob for Fig 10).
func NewLSMSystem(memBytes int, dir string) (*LSMSystem, error) {
	db, err := lsm.Open(lsm.Config{
		MemtableBytes: memBytes,
		Merge:         lsm.SumMerge{},
		Dir:           dir,
	})
	if err != nil {
		return nil, err
	}
	return &LSMSystem{db: db}, nil
}

// Name implements System.
func (s *LSMSystem) Name() string { return "lsm" }

// Close implements System.
func (s *LSMSystem) Close() error { return s.db.Close() }

// NewWorker implements System.
func (s *LSMSystem) NewWorker(int) Worker { return lsmWorker{db: s.db} }

type lsmWorker struct{ db *lsm.DB }

func (w lsmWorker) Read(key uint64, out []byte) bool {
	ok, err := w.db.Get(key, out)
	if err != nil {
		panic(fmt.Sprintf("lsm get: %v", err))
	}
	return ok
}

func (w lsmWorker) Upsert(key uint64, value []byte) { w.db.Put(key, value) }

func (w lsmWorker) RMW(key uint64, delta uint64) {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, delta)
	w.db.Merge(key, b)
}

func (w lsmWorker) Finish() {}
func (w lsmWorker) Close()  {}
