//go:build linux && !race

package arena

import (
	"fmt"
	"syscall"
)

// OffHeap reports whether blocks of MinMapped bytes or more live outside
// the Go heap.
const OffHeap = true

func alloc(n int) []byte {
	if n < MinMapped {
		return make([]byte, n)
	}
	// No MAP_POPULATE: a page costs resident memory only once touched, so
	// a log buffer that never fills, or an index whose buckets are mostly
	// empty, is charged for what it uses.
	b, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic(fmt.Sprintf("arena: out of memory: mmap of %d bytes: %v", n, err))
	}
	return b
}

func free(b []byte) {
	if len(b) < MinMapped {
		return // a heap block; the collector frees it
	}
	if err := syscall.Munmap(b); err != nil {
		// syscall.Munmap rejects any slice it did not map (EINVAL), so
		// this is a resliced or double-freed block: a caller bug that
		// would otherwise corrupt memory later.
		panic("arena: Free of a block Alloc did not return: " + err.Error())
	}
}
