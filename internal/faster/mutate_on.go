//go:build mutate

package faster

import (
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
	"unsafe"
)

// Seeded-bug variants for the linearizability mutation gate. Building
// with -tags mutate compiles these switches in; the gate then enables one
// mutation at a time and asserts the checker flags the resulting history
// as non-linearizable. If a seeded bug ever checks green, the harness has
// lost its teeth.
const mutationsEnabled = true

var (
	mutTorn       atomic.Bool
	mutDouble     atomic.Bool
	mutSerialSync atomic.Bool
	mutDropReenq  atomic.Bool
	mutStaleRoute atomic.Bool
	mutShardSync  atomic.Bool
	mutCacheInv   atomic.Bool
	mutLogSync    atomic.Bool
)

func mutTornWrite() bool        { return mutTorn.Load() }
func mutDoubleRMW() bool        { return mutDouble.Load() }
func mutSkipSerialFsync() bool  { return mutSerialSync.Load() }
func mutDroppedReenqueue() bool { return mutDropReenq.Load() }
func mutRouteStale() bool       { return mutStaleRoute.Load() }
func mutSkipShardFsync() bool   { return mutShardSync.Load() }
func mutCacheInval() bool       { return mutCacheInv.Load() }
func mutSkipLogSync() bool      { return mutLogSync.Load() }

// EnableMutation turns on one seeded bug by name: "torn-write" (SumOps
// in-place adds become a non-atomic two-half write), "double-rmw"
// (SumOps copy-updates apply the input twice) or "skip-serial-fsync"
// (the checkpoint's session table is written without fsync — modeled as
// losing its tail entry — and recovery trusts whatever survived instead
// of verifying the meta's length and CRC) or "dropped-reenqueue" (a
// fuzzy-region RMW deferral is acknowledged OK without ever being
// re-executed — the classic lost-continuation bug in an async I/O path)
// or "route-stale-map" (every fourth sharded routing decision splits the
// hash space as if there were one shard fewer, landing keys on the wrong
// shard) or "skip-shard-fsync" (a sharded manifest commits over one
// shard whose generation meta was never fsynced — modeled as a torn meta
// — and recovery falls back per shard instead of per ensemble, mixing
// checkpoint generations) or "skip-cache-invalidate" (a write that finds
// the index entry pointing at a read-cache copy links its new record
// BEHIND the cached copy instead of republishing the entry, so readers
// keep being served the stale cached value — the canonical
// forgot-to-invalidate cache bug) or "skip-log-sync" (a checkpoint writes
// its meta without syncing the log's device, so the prefix the meta
// promises may still sit in a volatile cache).
func EnableMutation(name string) {
	switch name {
	case "torn-write":
		mutTorn.Store(true)
	case "double-rmw":
		mutDouble.Store(true)
	case "skip-serial-fsync":
		mutSerialSync.Store(true)
	case "dropped-reenqueue":
		mutDropReenq.Store(true)
	case "route-stale-map":
		mutStaleRoute.Store(true)
	case "skip-shard-fsync":
		mutShardSync.Store(true)
	case "skip-cache-invalidate":
		mutCacheInv.Store(true)
	case "skip-log-sync":
		mutLogSync.Store(true)
	default:
		panic(fmt.Sprintf("faster: unknown mutation %q", name))
	}
}

// DisableMutations turns every seeded bug off.
func DisableMutations() {
	mutTorn.Store(false)
	mutDouble.Store(false)
	mutSerialSync.Store(false)
	mutDropReenq.Store(false)
	mutStaleRoute.Store(false)
	mutShardSync.Store(false)
	mutCacheInv.Store(false)
	mutLogSync.Store(false)
}

// tornSessionPayload drops the serialized session table's final entry,
// modeling an un-fsynced tail lost to a crash: the count header still
// promises the full set, so a verifying reader rejects the file while
// the mutated (trusting) reader silently loads the shorter prefix.
func tornSessionPayload(payload []byte) []byte {
	// Walk the entries to find the offset of the last one.
	if len(payload) < 16 {
		return payload
	}
	count := int(uint64FromLE(payload[8:]))
	if count == 0 {
		return payload
	}
	off := 16
	last := off
	for i := 0; i < count && off+4 <= len(payload); i++ {
		last = off
		glen := int(uint32FromLE(payload[off:]))
		off += 4 + glen + 8 + 8
		if off+4 > len(payload) {
			return payload
		}
		rlen := int(uint32FromLE(payload[off:]))
		off += 4 + rlen
	}
	return payload[:last]
}

func uint64FromLE(b []byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func uint32FromLE(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

// tearShardMeta models one shard's un-fsynced generation meta being torn
// by the crash the fsync would have survived: the file loses its CRC
// trailer, so a verifying reader rejects the generation while the naive
// per-shard fallback silently recovers that shard from an older one.
func tearShardMeta(path string) {
	fi, err := os.Stat(path)
	if err != nil || fi.Size() <= 8 {
		return
	}
	os.Truncate(path, fi.Size()-8)
}

// tornAddU64 is the torn-write variant of atomic.AddUint64: it loads the
// counter, then publishes the sum as two independent 32-bit halves with a
// scheduling point in between. Concurrent adders lose updates (the load
// and the stores no longer form one atomic RMW) and concurrent readers
// can observe a half-written value. The halves are stored with 32-bit
// atomics so the race detector stays quiet — the bug is torn/lost
// *values*, which only a history checker can see.
func tornAddU64(p *uint64, delta uint64) {
	sum := atomic.LoadUint64(p) + delta
	lo := (*uint32)(unsafe.Pointer(p))
	hi := (*uint32)(unsafe.Pointer(uintptr(unsafe.Pointer(p)) + 4))
	atomic.StoreUint32(lo, uint32(sum))
	runtime.Gosched() // widen the torn window
	atomic.StoreUint32(hi, uint32(sum>>32))
}
