// Package arena allocates the store's large pointer-free structures —
// log page frames, read-cache frames, index tables and overflow chunks,
// simulated-device extents and the compaction fold — outside the Go heap.
//
// The collector sizes its heap goal from the live heap: a 64 MiB log
// buffer held as a Go slice lets 64 MiB of unrelated garbage pile up
// before the next collection, so the process uses about twice what the
// store is configured for. Arena memory is invisible to the collector
// and costs resident memory only where it has been touched.
//
// Alloc returns zeroed memory that lives until the matching Free, and the
// caller owns that lifetime outright: nothing else keeps the memory alive,
// and a read after Free faults. On Linux (without the race detector) a
// block of MinMapped bytes or more is an anonymous private mapping, not
// pre-faulted; smaller blocks, every block on other systems, and every
// block under the race detector come from the Go heap, so that -race still
// sees accesses to record memory and Free of such a block is a no-op.
//
// Blocks must never hold Go pointers: the collector does not scan them.
package arena

import (
	"sync/atomic"
	"unsafe"
)

// MinMapped is the smallest block Alloc maps on its own. A mapping costs
// at least one OS page and one kernel memory area, which small blocks
// (512-byte log pages in tests) would mostly waste.
const MinMapped = 16 << 10

var (
	live atomic.Int64 // bytes allocated and not yet freed
	peak atomic.Int64 // high-water mark of live
)

// Alloc returns n zeroed bytes, with len and cap both n and the first
// byte aligned to at least 8. The block must be released with Free,
// passing exactly the returned slice. Alloc panics if the system has no
// memory left, as the Go heap does.
func Alloc(n int) []byte {
	if n <= 0 {
		return nil
	}
	b := alloc(n)
	now := live.Add(int64(n))
	for {
		p := peak.Load()
		if now <= p || peak.CompareAndSwap(p, now) {
			break
		}
	}
	return b
}

// Free releases a block returned by Alloc. b must be the very slice Alloc
// returned (not a reslice of it), and nothing may touch the block again.
func Free(b []byte) {
	if len(b) == 0 {
		return
	}
	live.Add(-int64(len(b)))
	free(b)
}

// Live reports the bytes currently allocated through Alloc across the
// process, and Peak their high-water mark.
func Live() uint64 { return uint64(live.Load()) }

// Peak reports the high-water mark of Live.
func Peak() uint64 { return uint64(peak.Load()) }

// View reinterprets a block as a slice of T, which must be a type without
// pointers whose size divides len(b) and whose alignment is at most 8.
func View[T any](b []byte) []T {
	var zero T
	size := int(unsafe.Sizeof(zero))
	if len(b) == 0 || size == 0 {
		return nil
	}
	return unsafe.Slice((*T)(unsafe.Pointer(unsafe.SliceData(b))), len(b)/size)
}
