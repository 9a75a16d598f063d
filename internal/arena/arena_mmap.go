//go:build linux && !race && (amd64 || arm64 || riscv64 || loong64 || ppc64 || ppc64le || mips64 || mips64le)

package arena

import (
	"fmt"
	"sync"
	"syscall"
	"unsafe"
)

// OffHeap reports whether blocks of MinMapped bytes or more live outside
// the Go heap.
const OffHeap = true

// mapping is one live mapped block: the n bytes Alloc returned and the
// size bytes it mapped for them (n rounded up to HugePage for a huge
// block).
type mapping struct {
	n, size int
	advised bool
}

// The registry of live mappings, by start address. Free checks a block
// against it: a trimmed mapping is not one syscall.Munmap would know,
// and a reslice or a double Free must panic rather than unmap memory
// something else now owns.
var (
	mu     sync.Mutex
	blocks = map[uintptr]mapping{}
)

func alloc(n int) []byte {
	if n < MinMapped {
		return make([]byte, n)
	}
	m := mapping{n: n, size: n}
	over := 0
	if n >= HugePage {
		m.size = (n + HugePage - 1) &^ (HugePage - 1)
		over = HugePage
	}
	// No MAP_POPULATE: a page costs resident memory only once touched, so
	// a log buffer that never fills, or an index whose buckets are mostly
	// empty, is charged for what it uses. A huge block is over-mapped by
	// one huge page and trimmed to a HugePage boundary at both ends,
	// since the kernel aligns only some lengths.
	base, _, errno := syscall.Syscall6(syscall.SYS_MMAP, 0, uintptr(m.size+over),
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE, ^uintptr(0), 0)
	if errno != 0 {
		panic(fmt.Sprintf("arena: out of memory: mmap of %d bytes: %v", m.size+over, errno))
	}
	start := base
	if over > 0 {
		start = (base + HugePage - 1) &^ (HugePage - 1)
		unmap(base, int(start-base))
		unmap(start+uintptr(m.size), int(base+uintptr(over)-start))
		// Advice, not a demand: with THP off, or none free, the block
		// faults in 4 KiB pages as before.
		_, _, errno = syscall.Syscall(syscall.SYS_MADVISE, start, uintptr(m.size), syscall.MADV_HUGEPAGE)
		if m.advised = errno == 0; m.advised {
			advised.Add(int64(m.size))
		}
	}
	mu.Lock()
	blocks[start] = m
	mu.Unlock()
	// The address is a mapping outside the Go heap, which the collector
	// neither moves nor frees, so turning it into a pointer is sound (as
	// it is in syscall.Mmap). Vet's unsafeptr check cannot know that and
	// flags any direct uintptr conversion, hence the load through memory.
	return unsafe.Slice(*(**byte)(unsafe.Pointer(&start)), n)
}

func free(b []byte) {
	if cap(b) < MinMapped {
		return // a heap block; the collector frees it
	}
	start := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	mu.Lock()
	m, ok := blocks[start]
	ok = ok && len(b) == m.n && cap(b) == m.n
	if ok {
		delete(blocks, start)
	}
	mu.Unlock()
	if !ok {
		// A resliced or double-freed block: a caller bug that would
		// otherwise unmap memory another block now owns.
		panic(fmt.Sprintf("arena: Free of a block Alloc did not return (%d bytes at %#x)", len(b), start))
	}
	unmap(start, m.size)
	if m.advised {
		advised.Add(-int64(m.size))
	}
}

func unmap(addr uintptr, n int) {
	if n == 0 {
		return
	}
	if _, _, errno := syscall.Syscall(syscall.SYS_MUNMAP, addr, uintptr(n), 0); errno != 0 {
		panic(fmt.Sprintf("arena: munmap of %d bytes at %#x: %v", n, addr, errno))
	}
}
