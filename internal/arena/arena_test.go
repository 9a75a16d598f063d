package arena

import (
	"bytes"
	"os"
	"testing"
	"unsafe"
)

func TestAllocZeroedAlignedAndAccounted(t *testing.T) {
	before, advisedBefore := Live(), Advised()
	sizes := []int{8, 512, MinMapped - 8, MinMapped, 3*MinMapped + 8,
		HugePage, HugePage + 8, HugePage + 4096, 3*HugePage - 8, 4 * HugePage}
	for _, n := range sizes {
		b := Alloc(n)
		if len(b) != n || cap(b) != n {
			t.Fatalf("Alloc(%d): len %d cap %d", n, len(b), cap(b))
		}
		align := uintptr(8)
		if OffHeap && n >= HugePage {
			align = HugePage
		}
		if uintptr(unsafe.Pointer(&b[0]))%align != 0 {
			t.Fatalf("Alloc(%d) at %p not %d-byte aligned", n, &b[0], align)
		}
		for i, v := range b {
			if v != 0 {
				t.Fatalf("Alloc(%d)[%d] = %d, want 0", n, i, v)
			}
		}
		if got := Live() - before; got != uint64(n) {
			t.Fatalf("Live after Alloc(%d) grew by %d", n, got)
		}
		// Advice covers whole huge pages; it fails only on a kernel
		// without transparent huge pages.
		var whole uint64
		if OffHeap && n >= HugePage {
			whole = uint64((n + HugePage - 1) &^ (HugePage - 1))
		}
		if got := Advised() - advisedBefore; got != 0 && got != whole {
			t.Fatalf("Advised after Alloc(%d) grew by %d, want %d", n, got, whole)
		}
		words := View[uint64](b)
		if len(words) != n/8 {
			t.Fatalf("View: %d words, want %d", len(words), n/8)
		}
		words[len(words)-1] = 42
		if b[n-8] != 42 {
			t.Fatal("View does not alias the block")
		}
		Free(b)
		if Live() != before || Advised() != advisedBefore {
			t.Fatalf("after Free(%d): Live %d Advised %d, want %d and %d", n, Live(), Advised(), before, advisedBefore)
		}
	}
	if Peak() < uint64(4*HugePage) {
		t.Fatalf("Peak %d below the largest block", Peak())
	}
	if Alloc(0) != nil {
		t.Fatal("Alloc(0) should be nil")
	}
	Free(nil)
}

func TestFreeRejectsResliceAndDoubleFree(t *testing.T) {
	if !OffHeap {
		t.Skip("heap blocks: Free is a no-op")
	}
	mustPanic := func(what string, b []byte) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("Free of %s did not panic", what)
			}
		}()
		Free(b)
	}
	// A reslice with less than MinMapped capacity passes for a heap block
	// (Free's documented limit), so the blocks here are larger.
	for _, n := range []int{2 * MinMapped, HugePage + 4096} {
		b := Alloc(n)
		mustPanic("a shortened block", b[:n-8])
		mustPanic("a block missing its head", b[8:])
		mustPanic("a block with a shortened capacity", b[:n-8:n-8])
		Free(b)
		mustPanic("a freed block", b)
	}
}

func TestHugeBlockBackedByHugePages(t *testing.T) {
	if !OffHeap {
		t.Skip("heap blocks are not advised")
	}
	mode, err := os.ReadFile("/sys/kernel/mm/transparent_hugepage/enabled")
	if err != nil || bytes.Contains(mode, []byte("[never]")) {
		t.Skipf("transparent huge pages unavailable or off: %q %v", mode, err)
	}
	before := HugeBytes()
	b := Alloc(2 * HugePage)
	defer Free(b)
	for i := 0; i < len(b); i += 4096 {
		b[i] = 1
	}
	if after := HugeBytes(); after < before+HugePage {
		t.Fatalf("AnonHugePages %d -> %d after touching a %d-byte block, want at least one huge page more", before, after, len(b))
	}
}
