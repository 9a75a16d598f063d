package faster

import (
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/hlog"
)

// syncSpy passes every call to its device and notes, at each Sync, how
// far the log had flushed and whether a checkpoint meta existed yet.
type syncSpy struct {
	device.Device
	dir string
	log atomic.Pointer[hlog.Log]

	mu    sync.Mutex
	syncs []spiedSync
}

type spiedSync struct {
	flushed hlog.Address
	meta    bool
}

func (d *syncSpy) Sync() error {
	var flushed hlog.Address
	if l := d.log.Load(); l != nil {
		flushed = l.FlushedUntilAddress()
	}
	metas, _ := filepath.Glob(filepath.Join(d.dir, "gen-*", "shard-*", "meta.ckpt"))
	d.mu.Lock()
	d.syncs = append(d.syncs, spiedSync{flushed: flushed, meta: len(metas) > 0})
	d.mu.Unlock()
	return d.Device.Sync()
}

// TestCheckpointSyncsLogBeforeMeta checks that a checkpoint makes the log
// durable to T2 before its meta promises that prefix: a completed flush
// may still sit in a volatile cache, so at least one device Sync must
// come after the flush to T2 and before meta.ckpt is written.
func TestCheckpointSyncsLogBeforeMeta(t *testing.T) {
	if msg := checkpointSyncOrder(t); msg != "" {
		t.Fatal(msg)
	}
}

// checkpointSyncOrder checkpoints a store that spilled past its buffer,
// spying on its device, and returns "" if a Sync came between the flush
// to T2 and the meta write, else what it saw instead.
func checkpointSyncOrder(t *testing.T) string {
	dir := t.TempDir()
	mem := device.NewMem(device.MemConfig{})
	defer mem.Close()
	spy := &syncSpy{Device: mem, dir: dir}
	s, err := Open(Config{Ops: SumOps{}, PageBits: 12, BufferPages: 8,
		IndexBuckets: 1 << 10, Device: spy})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	spy.log.Store(s.Log())
	sess := s.StartSession()
	for i := uint64(0); i < 2000; i++ { // spills past the 8-page buffer
		sess.RMW(key(i), u64(i+1), nil)
	}
	sess.CompletePending(true)
	sess.Close()

	info, err := s.Checkpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	spy.mu.Lock()
	defer spy.mu.Unlock()
	for _, sy := range spy.syncs {
		if sy.flushed >= info.T2 && !sy.meta {
			return ""
		}
	}
	return fmt.Sprintf("no device Sync between the flush to T2=%#x and the meta write; syncs: %+v", info.T2, spy.syncs)
}

// TestCheckpointUnderLoad checkpoints a store, whose log device syncs at
// every checkpoint, while one session upserts and another reads cold
// records, so reads and flushes are in flight at every Sync. Each
// checkpoint must finish, and the last must recover the preloaded keys.
func TestCheckpointUnderLoad(t *testing.T) {
	for _, name := range []string{"file", "mem"} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			open := func() device.Device {
				if name == "mem" {
					return device.NewMem(device.MemConfig{ReadLatency: 100 * time.Microsecond})
				}
				f, err := device.OpenFile(filepath.Join(dir, "faster.log"), 2)
				if err != nil {
					t.Fatal(err)
				}
				return f
			}
			dev := open()
			cfg := Config{Ops: SumOps{}, PageBits: 12, BufferPages: 8,
				IndexBuckets: 1 << 10, Device: dev}
			s, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			const preload = 3000
			sess := s.StartSession()
			spill(t, s, sess, preload)
			sess.Close()

			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(2)
			go func() { // upserts keys above the preload, spilling pages
				defer wg.Done()
				w := s.StartSession()
				defer w.Close()
				for i := uint64(preload); ; i++ {
					select {
					case <-stop:
						w.CompletePending(true)
						return
					default:
					}
					if _, err := w.Upsert(key(i), u64(i)); err != nil {
						t.Error(err)
						return
					}
				}
			}()
			go func() { // reads preloaded keys, most of them from the device
				defer wg.Done()
				r := s.StartSession()
				defer r.Close()
				out := make([]byte, 8)
				for i := uint64(0); ; i = (i + 7) % preload {
					select {
					case <-stop:
						r.CompletePending(true)
						return
					default:
					}
					if _, err := r.Read(key(i), nil, out, nil); err != nil {
						t.Error(err)
						return
					}
					r.CompletePending(false)
				}
			}()
			for range 5 {
				if _, err := s.Checkpoint(dir); err != nil {
					t.Error(err)
					break
				}
			}
			close(stop)
			wg.Wait()
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if name == "mem" {
				dev.Close()
				return
			}
			dev.Close()
			cfg.Device = open()
			r, err := Recover(cfg, dir)
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				r.Close()
				cfg.Device.Close()
			}()
			rs := r.StartSession()
			defer rs.Close()
			for i := uint64(0); i < preload; i += 31 {
				if got, st := readU64(t, rs, key(i)); st != OK || got != i+1 {
					t.Fatalf("key %d = (%d, %v), want (%d, OK)", i, got, st, i+1)
				}
			}
		})
	}
}
