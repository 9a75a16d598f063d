package bench

// Shard-scaling benchmarks:
//
//	go test -run '^$' -bench 'ShardedBatch.*U64' -benchmem -cpu 1,2 ./internal/bench/
//
// The claim is that N shards give N independent io-pools,
// flushers, and epoch domains, so device-bound work scales with the
// shard count even when a single shard's pipeline would saturate. To
// measure that rather than raw CPU (the scaling story must hold on a
// small host), both scenarios are device-bound by construction:
//
//   - ShardedBatchReadU64: a larger-than-memory keyspace over simulated
//     SSDs with flash-like read latency. One shard completes cold
//     misses through one bounded io-pool; sixteen shards overlap
//     sixteen. The total in-memory budget is held constant (the buffer
//     is split across shards), so extra shards never mean extra cache.
//   - ShardedBatchUpsertU64: the same fixed total buffer budget with
//     uncapped devices, measuring the append path's sharding overhead
//     under sustained flush churn (a bandwidth cap would make the
//     1-shard case spin on backpressure and starve its own flusher on
//     a small host, measuring the scheduler instead of the store).
//
// The bar it was built to: 16-shard read throughput >= 2x single-shard
// at -cpu 16, batch 64.

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/faster"
)

const (
	shardBenchKeys  = 1 << 16
	shardBenchBatch = 64
	// Total in-memory log budget across ALL shards: 128 pages of 4 KiB.
	// Splitting a fixed budget is the honest comparison — a 16-shard
	// config must win by overlapping I/O, not by caching more.
	shardBenchTotalPages = 128
)

func openShardBenchStore(b *testing.B, shards int, mem device.MemConfig, preload bool) *faster.ShardedStore {
	b.Helper()
	devs := make([]*device.Mem, shards)
	for i := range devs {
		devs[i] = device.NewMem(mem)
	}
	pages := shardBenchTotalPages / shards
	if pages < 8 {
		pages = 8
	}
	ss, err := faster.OpenSharded(faster.ShardedConfig{
		Shards: shards,
		Base: faster.Config{
			Ops:          faster.SumOps{},
			IndexBuckets: 1 << 15,
			PageBits:     12,
			BufferPages:  pages,
			IOWorkers:    4,
			IOQueueDepth: 4096,
		},
		NewDevice: func(i int) device.Device { return devs[i] },
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		ss.Close()
		for _, d := range devs {
			d.Close()
		}
	})
	if !preload {
		return ss
	}
	sess := ss.StartSession()
	defer sess.Close()
	const chunk = 256
	backing := make([]byte, 8*chunk)
	one := make([]byte, 8)
	binary.LittleEndian.PutUint64(one, 1)
	ops := make([]faster.BatchOp, chunk)
	for k := uint64(0); k < shardBenchKeys; k += chunk {
		for j := 0; j < chunk; j++ {
			kb := backing[j*8 : j*8+8]
			binary.LittleEndian.PutUint64(kb, k+uint64(j)+1)
			ops[j] = faster.BatchOp{Kind: faster.BatchUpsert, Key: kb, Value: one}
		}
		if err := sess.ExecBatch(ops); err != nil {
			b.Fatal(err)
		}
	}
	return ss
}

// shardBenchKey scatters i over the keyspace (golden-ratio multiply).
func shardBenchKey(buf []byte, i uint64) {
	binary.LittleEndian.PutUint64(buf, (i*0x9E3779B97F4A7C15)&(shardBenchKeys-1)+1)
}

// BenchmarkShardedBatchReadU64 issues 64-op read windows against a
// larger-than-memory store; nearly every read is a cold miss completed
// by the owning shard's io-pool against a 150us-latency device.
func BenchmarkShardedBatchReadU64(b *testing.B) {
	for _, shards := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			ss := openShardBenchStore(b, shards, device.MemConfig{
				ReadLatency: 150 * time.Microsecond,
				Workers:     8,
			}, true)
			var seq atomic.Uint64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				sess := ss.StartSession()
				defer sess.Close()
				keys := make([]byte, 8*shardBenchBatch)
				outs := make([]byte, 8*shardBenchBatch)
				ops := make([]faster.BatchOp, shardBenchBatch)
				i := (seq.Add(1) * 977) &^ uint64(shardBenchBatch-1)
				for pb.Next() {
					slot := int(i % shardBenchBatch)
					shardBenchKey(keys[slot*8:slot*8+8], i)
					ops[slot] = faster.BatchOp{Kind: faster.BatchRead,
						Key:    keys[slot*8 : slot*8+8],
						Output: outs[slot*8 : slot*8+8]}
					i++
					if slot != shardBenchBatch-1 {
						continue
					}
					if err := sess.ExecBatch(ops); err != nil {
						b.Fatal(err)
					}
					pending := false
					for j := range ops {
						switch ops[j].Status {
						case faster.OK:
						case faster.Pending:
							pending = true
						default:
							b.Fatalf("read %x: %v %v", ops[j].Key, ops[j].Status, ops[j].Err)
						}
					}
					if pending {
						if _, err := sess.CompletePendingTimeout(30 * time.Second); err != nil {
							b.Fatal(err)
						}
					}
				}
			})
		})
	}
}

// BenchmarkShardedBatchUpsertU64 issues 64-op upsert windows under
// sustained flush churn: every shard continuously closes, flushes, and
// evicts pages while serving appends.
func BenchmarkShardedBatchUpsertU64(b *testing.B) {
	for _, shards := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			ss := openShardBenchStore(b, shards, device.MemConfig{
				Workers: 8,
			}, false)
			var seq atomic.Uint64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				sess := ss.StartSession()
				defer sess.Close()
				keys := make([]byte, 8*shardBenchBatch)
				val := make([]byte, 8)
				binary.LittleEndian.PutUint64(val, 1)
				ops := make([]faster.BatchOp, shardBenchBatch)
				i := (seq.Add(1) * 977) &^ uint64(shardBenchBatch-1)
				for pb.Next() {
					slot := int(i % shardBenchBatch)
					shardBenchKey(keys[slot*8:slot*8+8], i)
					ops[slot] = faster.BatchOp{Kind: faster.BatchUpsert,
						Key:   keys[slot*8 : slot*8+8],
						Value: val}
					i++
					if slot != shardBenchBatch-1 {
						continue
					}
					if err := sess.ExecBatch(ops); err != nil {
						b.Fatal(err)
					}
					for j := range ops {
						if ops[j].Status != faster.OK {
							b.Fatalf("upsert %x: %v %v", ops[j].Key, ops[j].Status, ops[j].Err)
						}
					}
				}
			})
		})
	}
}
