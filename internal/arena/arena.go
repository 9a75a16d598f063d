// Package arena allocates the store's large pointer-free structures —
// log page frames, read-cache frames, index tables and overflow chunks
// and simulated-device extents — outside the Go heap.
//
// The collector sizes its heap goal from the live heap: a 64 MiB log
// buffer held as a Go slice lets 64 MiB of unrelated garbage pile up
// before the next collection, so the process uses about twice what the
// store is configured for. Arena memory is invisible to the collector
// and costs resident memory only where it has been touched.
//
// Alloc returns zeroed memory that lives until the matching Free, and the
// caller owns that lifetime outright: nothing else keeps the memory alive,
// and a read after Free faults. On 64-bit Linux (without the race
// detector) a block of MinMapped bytes or more is an anonymous private
// mapping, not pre-faulted; smaller blocks, every block on other systems,
// and every block under the race detector come from the Go heap, so that
// -race still sees accesses to record memory and Free of such a block is a
// no-op.
//
// A mapped block of HugePage (2 MiB) bytes or more — the index tables, the
// log ring, the read cache, device extents — is mapped on a 2 MiB boundary,
// rounded up to whole 2 MiB pages and advised for transparent huge pages,
// so that the one bucket and the one record an operation touches do not
// each cost a 4 KiB TLB miss and page walk. Where the kernel grants huge
// pages (THP "always" or "madvise"), such a block is charged resident
// memory per 2 MiB it has touched, not per 4 KiB; under "never" nothing
// changes but the alignment.
//
// Blocks must never hold Go pointers: the collector does not scan them.
package arena

import (
	"bytes"
	"os"
	"strconv"
	"sync/atomic"
	"unsafe"
)

// MinMapped is the smallest block Alloc maps on its own. A mapping costs
// at least one OS page and one kernel memory area, which small blocks
// (512-byte log pages in tests) would mostly waste.
const MinMapped = 16 << 10

// HugePage is the transparent huge page size. A mapped block of HugePage
// bytes or more starts on a HugePage boundary, spans a whole number of
// huge pages and is advised for them (MADV_HUGEPAGE).
const HugePage = 2 << 20

var (
	live    atomic.Int64 // bytes allocated and not yet freed
	peak    atomic.Int64 // high-water mark of live
	advised atomic.Int64 // bytes of live blocks advised for huge pages
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
// Free panics on a reslice or a second Free of a mapped block, except a
// reslice whose capacity is below MinMapped: that passes for a heap block
// and is ignored.
func Free(b []byte) {
	if len(b) == 0 {
		return
	}
	free(b)
	live.Add(-int64(len(b))) // after free, which panics on a bad block
}

// Live reports the bytes currently allocated through Alloc across the
// process, and Peak their high-water mark.
func Live() uint64 { return uint64(live.Load()) }

// Peak reports the high-water mark of Live.
func Peak() uint64 { return uint64(peak.Load()) }

// Advised reports the bytes of live blocks Alloc advised for huge pages:
// whole 2 MiB pages, so it can exceed the share of Live they hold.
func Advised() uint64 { return uint64(advised.Load()) }

// HugeBytes reports the process's anonymous memory backed by huge pages
// (AnonHugePages in /proc/self/smaps_rollup), or 0 where that is not
// available. The kernel walks every mapping to answer, so it is read on
// demand, never on an operation's path.
func HugeBytes() uint64 {
	rollup, err := os.ReadFile("/proc/self/smaps_rollup")
	if err != nil {
		return 0
	}
	_, rest, ok := bytes.Cut(rollup, []byte("\nAnonHugePages:"))
	fields := bytes.Fields(rest) // "<n> kB ..."
	if !ok || len(fields) == 0 {
		return 0
	}
	kb, err := strconv.ParseUint(string(fields[0]), 10, 64)
	if err != nil {
		return 0
	}
	return kb << 10
}

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
