//go:build !linux || race || !(amd64 || arm64 || riscv64 || loong64 || ppc64 || ppc64le || mips64 || mips64le)

package arena

// Heap blocks: the collector frees them once unreferenced, and the race
// detector instruments every access to them.

// OffHeap reports whether blocks of MinMapped bytes or more live outside
// the Go heap.
const OffHeap = false

func alloc(n int) []byte { return make([]byte, n) }

func free([]byte) {}
