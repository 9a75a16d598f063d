package arena

import (
	"testing"
	"unsafe"
)

func TestAllocZeroedAlignedAndAccounted(t *testing.T) {
	before := Live()
	for _, n := range []int{8, 512, MinMapped - 8, MinMapped, 3*MinMapped + 8} {
		b := Alloc(n)
		if len(b) != n || cap(b) != n {
			t.Fatalf("Alloc(%d): len %d cap %d", n, len(b), cap(b))
		}
		if uintptr(unsafe.Pointer(&b[0]))%8 != 0 {
			t.Fatalf("Alloc(%d) not 8-byte aligned", n)
		}
		for i, v := range b {
			if v != 0 {
				t.Fatalf("Alloc(%d)[%d] = %d, want 0", n, i, v)
			}
		}
		if got := Live() - before; got != uint64(n) {
			t.Fatalf("Live after Alloc(%d) grew by %d", n, got)
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
		if Live() != before {
			t.Fatalf("Live after Free(%d) = %d, want %d", n, Live(), before)
		}
	}
	if Peak() < uint64(3*MinMapped+8) {
		t.Fatalf("Peak %d below the largest block", Peak())
	}
	if Alloc(0) != nil {
		t.Fatal("Alloc(0) should be nil")
	}
	Free(nil)
}
