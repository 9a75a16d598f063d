package main

import (
	"encoding/binary"
	"fmt"
	"runtime/debug"
	"time"

	"repro/internal/device"
	"repro/internal/faster"
	"repro/internal/server"
)

// deviceReadLatency is the simulated SSD's random-read latency on every
// workload (device.Mem sleeps this long per read; writes are memory
// copies, no bandwidth cap, default 4 workers per device).
const deviceReadLatency = 150 * time.Microsecond

// workload is one fixed traffic mix over one fixed store shape. Nothing
// here is computed at run time: the rates were measured once on the seed
// commit (README, "Calibration record") and frozen, so a faster server
// cannot raise its own load.
type workload struct {
	name string
	why  string

	embedded bool // no network: faster.Session calls, SumOps, 8-byte keys
	resident bool // the data fits the log buffer: any device read invalidates the run

	shards      int
	keys        uint64 // value keys, preloaded
	counters    uint64 // INCRBY keys in their own range, preloaded at 0
	pageBits    uint   // per shard
	bufferPages int    // per shard
	mutable     float64
	readCache   uint64 // total over shards
	zipf        bool

	getPct, setPct int // the rest is INCRBY (RESP) or RMW (embedded)

	rates    [3]float64    // open-loop ladder, requests/s over all connections
	limitUs  float64       // p99 limit that decides max_rate_ok
	warmup   time.Duration // untimed open-loop traffic before the clock starts,
	warmRate float64       // at this rate, so the read cache holds the hot keys
	replay   int           // operations per depth in the traced replay

	// compact makes the run send COMPACT on a control connection at
	// compactPasses fixed points of its schedule.
	compact bool
}

// compactPasses is how many COMPACT passes an update_heavy run asks for:
// one with the first request of the closed loop, one with the first
// request of the mid rate, so throughput and mid-rate latency are both
// taken with a pass running. Each pass rewrites every live record, which
// takes longer than a phase. It is two and not more because the seed
// cannot complete a third: a pass leaves the log's begin address inside a
// page, and the next-but-one scan then reads that page from a device
// that has truncated its start (README, "Known limits of the seed").
const compactPasses = 2

var workloads = []*workload{
	{
		name:     "resident_read",
		why:      "200k keys fit the 64 MiB log buffer, Zipf 0.99, 95% GET: only resp, server and the socket work, so front-end changes show and miss-path changes must not",
		resident: true,
		shards:   1, keys: 200_000, pageBits: 22, bufferPages: 16, mutable: 0.9,
		zipf: true, getPct: 95, setPct: 5,
		rates: [3]float64{8_000, 16_000, 24_000}, limitUs: 2000, replay: 50_000,
	},
	{
		name:   "cold_read_zipf",
		why:    "1M keys (140 MB) over a 16 MiB buffer and 16 MiB read cache on 4 shards, 150 us device, Zipf 0.99 GETs: io-pool, coalescer, read cache and device do the work (the F2 regime)",
		shards: 4, keys: 1_000_000, pageBits: 19, bufferPages: 8, mutable: 0.9,
		readCache: 16 << 20, zipf: true, getPct: 100,
		rates: [3]float64{1_200, 2_400, 3_600}, limitUs: 10000, warmup: 3 * time.Second, warmRate: 10_000, replay: 10_000,
	},
	{
		name:   "update_heavy",
		why:    "500k uniform keys over a 16 MiB buffer, 50% GET / 25% SET / 25% INCRBY with two COMPACT passes: tail allocation, flush, RCU, cold RMW and compaction, so a read gain paid for by writers shows",
		shards: 1, keys: 500_000, counters: 20_000, pageBits: 20, bufferPages: 16, mutable: 0.9,
		readCache: 8 << 20, getPct: 50, setPct: 25,
		rates: [3]float64{700, 1_400, 2_100}, limitUs: 10000, replay: 10_000,
		compact: true,
	},
	{
		name:     "embedded_ycsb",
		why:      "no network: nproc sessions on one in-memory store, 8-byte keys and values, 50% Read / 50% RMW, Zipf 0.99 (the paper's headline): xhash, index, epoch and in-place update are the whole cost",
		embedded: true, resident: true,
		shards: 1, keys: 1_000_000, pageBits: 22, bufferPages: 16, mutable: 1,
		zipf: true, getPct: 50, replay: 50_000,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// smokeSized returns a copy small enough to run in a second: the harness
// and its checkers are exercised, nothing about it is a measurement.
func (w *workload) smokeSized() *workload {
	s := *w
	s.keys /= 50
	s.counters /= 50
	s.replay = 500
	s.pageBits = 16
	for i := range s.rates {
		s.rates[i] = 500 * float64(i+1)
	}
	if s.warmup > 0 {
		s.warmup, s.warmRate = 200*time.Millisecond, 1000
	}
	return &s
}

// recordBytes is the log footprint of one preloaded value record: 16-byte
// header, key, and the 8-byte-framed value, each padded to 8.
func (w *workload) recordBytes() uint64 {
	if w.embedded {
		return 16 + 8 + 8
	}
	return 16 + keyLen + (8+valueLen+7)&^7
}

// liveUserBytes is the key and value bytes a user would say they stored.
func (w *workload) liveUserBytes() uint64 {
	if w.embedded {
		return w.keys * 16
	}
	return w.keys*(keyLen+valueLen) + w.counters*(keyLen+8)
}

// rig is one opened instance of a workload's store and, for the RESP
// workloads, the server in front of it.
type rig struct {
	w     *workload
	cfg   faster.ShardedConfig
	devs  []*tracedDevice
	store *faster.ShardedStore
	srv   *server.Server
}

func (w *workload) storeConfig(devs []*tracedDevice) faster.ShardedConfig {
	var ops faster.ValueOps = faster.VarLenOps{}
	if w.embedded {
		ops = faster.SumOps{}
	}
	buckets := (w.keys + w.counters) / uint64(2*w.shards)
	return faster.ShardedConfig{
		Shards: w.shards,
		Base: faster.Config{
			Ops:             ops,
			IndexBuckets:    buckets,
			PageBits:        w.pageBits,
			BufferPages:     w.bufferPages,
			MutableFraction: w.mutable,
			ReadCacheBytes:  w.readCache,
		},
		NewDevice: func(i int) device.Device { return devs[i] },
	}
}

// open creates the devices and the store. tr receives device spans when
// it is switched on; counters are kept either way.
func (w *workload) open(tr *tracer) (*rig, error) {
	r := &rig{w: w}
	for i := 0; i < w.shards; i++ {
		r.devs = append(r.devs, newTracedDevice(device.NewMem(device.MemConfig{ReadLatency: deviceReadLatency}), tr))
	}
	r.cfg = w.storeConfig(r.devs)
	store, err := faster.OpenSharded(r.cfg)
	if err != nil {
		r.closeDevices()
		return nil, fmt.Errorf("open store: %w", err)
	}
	r.store = store
	return r, nil
}

// A run opens and loads the store several times and setup_s reports the
// median, so one slow page-fault storm does not set it: at least
// minSetupReps times, and a store that loads in a fraction of a second
// again until setupBudget is spent (at most maxSetupReps times).
const (
	minSetupReps = 3
	maxSetupReps = 9
	setupBudget  = 1500 * time.Millisecond
)

// openLoaded opens and preloads the store repeatedly, keeping the last
// copy, and returns the median seconds one open-and-load took and how
// many were timed.
func (w *workload) openLoaded(tr *tracer) (*rig, float64, int, error) {
	var loads []float64
	began := time.Now()
	for rep := 1; ; rep++ {
		start := time.Now()
		r, err := w.open(tr)
		if err != nil {
			return nil, 0, 0, err
		}
		if err := r.preload(); err != nil {
			r.close()
			return nil, 0, 0, err
		}
		loads = append(loads, time.Since(start).Seconds())
		if rep >= maxSetupReps || (rep >= minSetupReps && time.Since(began) >= setupBudget) {
			return r, median(loads), rep, nil
		}
		if err := r.close(); err != nil {
			return nil, 0, 0, err
		}
		// Give the discarded copy back before the next one is built, or
		// peak memory would count the copies together.
		debug.FreeOSMemory()
	}
}

// preload writes every key once, in index order, through a session (not
// the network): version 0 of each value, and each counter at 0.
func (r *rig) preload() error {
	w := r.w
	if w.embedded {
		sess := r.store.Shard(0).StartSession()
		defer sess.Close()
		var key, val [8]byte
		for i := uint64(0); i < w.keys; i++ {
			putKey8(key[:], i)
			if st, err := sess.Upsert(key[:], val[:]); st != faster.OK {
				return fmt.Errorf("preload key %d: %v %v", i, st, err)
			}
		}
		return nil
	}
	sess := r.store.StartSession()
	defer sess.Close()
	var key [keyLen]byte
	var val [valueLen]byte
	frame := make([]byte, 0, 8+valueLen)
	for i := uint64(0); i < w.keys; i++ {
		putKey(key[:], 'k', i)
		putValue(val[:], i, 0)
		frame = faster.VarLenAppend(frame[:0], val[:])
		if st, err := sess.Upsert(key[:], frame); st != faster.OK {
			return fmt.Errorf("preload key %d: %v %v", i, st, err)
		}
	}
	var zero [8]byte
	for i := uint64(0); i < w.counters; i++ {
		putKey(key[:], 'c', i)
		st, err := sess.RMW(key[:], zero[:], nil)
		if st == faster.Pending {
			for _, res := range sess.CompletePending(true) {
				st, err = res.Status, res.Err
			}
		}
		if st != faster.OK {
			return fmt.Errorf("preload counter %d: %v %v", i, st, err)
		}
	}
	return nil
}

// serve starts the RESP front-end on a loopback port with the server's
// default configuration.
func (r *rig) serve() error {
	srv, err := server.ListenAndServeSharded(r.store, "127.0.0.1:0", server.Config{})
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	r.srv = srv
	return nil
}

func (r *rig) closeDevices() {
	for _, d := range r.devs {
		d.Close()
	}
}

// closeStore stops the server and the store; the devices keep their
// contents, which is what a restart recovers from.
func (r *rig) closeStore() error {
	var first error
	if r.srv != nil {
		first = r.srv.Close()
		r.srv = nil
	}
	if r.store != nil {
		if err := r.store.Close(); err != nil && first == nil {
			first = err
		}
		r.store = nil
	}
	return first
}

// close stops the server, the store and the devices, in that order.
func (r *rig) close() error {
	err := r.closeStore()
	r.closeDevices()
	return err
}

// counterInput is the INCRBY operand the server hands to VarLenOps: the
// delta and the overflow status byte.
func counterInput(delta int64) [9]byte {
	var in [9]byte
	binary.LittleEndian.PutUint64(in[:8], uint64(delta))
	return in
}
