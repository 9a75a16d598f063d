package faster

import (
	"bytes"
	"encoding/binary"

	"repro/internal/arena"
	"repro/internal/hlog"
)

// fold is Compact's phase-1 result: for every key in the compacted
// prefix, the address of its newest version there, or none when that
// version is a tombstone. It is an open-addressing table (linear probing)
// whose slots and key bytes live in arena memory, so a fold over half a
// million keys neither allocates per key on the Go heap nor raises the
// collector's heap goal while it exists. Keys are compared exactly; the
// hash only picks the home slot and filters with a 16-bit tag.
//
// A key, once in, keeps its slot for the fold's life: a tombstone zeroes
// the address, and a later version of the key fills it again. The table
// therefore never deletes a slot, and probing needs no tombstone markers.
type fold struct {
	slotMem []byte
	slots   []foldSlot // view of slotMem; length a power of two
	used    int        // occupied slots

	keys    []byte // each key as a 4-byte little-endian length and its bytes
	keysLen int    // bytes of keys in use

	peak uint64 // largest arena footprint so far, both copies counted while growing
}

// foldSlot is one table slot.
type foldSlot struct {
	word uint64 // hash tag (top 16 bits) | address (low 48 bits; 0: tombstoned)
	key  uint64 // 1 + offset of the key in keys; 0 marks an empty slot
}

const (
	foldTagShift = 48
	foldAddrMask = 1<<foldTagShift - 1
	// foldInitialSlots and foldInitialKeys size a new fold: small, since
	// most compactions fold few keys, and doubled as needed.
	foldInitialSlots = 1 << 10
	foldInitialKeys  = 16 << 10
)

func newFold() *fold {
	f := &fold{}
	f.slotMem = arena.Alloc(foldInitialSlots * 16)
	f.slots = arena.View[foldSlot](f.slotMem)
	f.keys = arena.Alloc(foldInitialKeys)
	f.notePeak(0)
	return f
}

// free releases the fold's memory.
func (f *fold) free() {
	arena.Free(f.slotMem)
	arena.Free(f.keys)
	f.slotMem, f.slots, f.keys = nil, nil, nil
}

func (f *fold) notePeak(extra int) {
	if n := uint64(len(f.slotMem) + len(f.keys) + extra); n > f.peak {
		f.peak = n
	}
}

func (f *fold) keyAt(ref uint64) []byte {
	off := int(ref - 1)
	n := int(binary.LittleEndian.Uint32(f.keys[off:]))
	return f.keys[off+4 : off+4+n]
}

// find returns the slot holding key, or the empty slot where it belongs.
func (f *fold) find(h uint64, key []byte) (*foldSlot, bool) {
	mask := uint64(len(f.slots) - 1)
	tag := h >> foldTagShift
	for i := h & mask; ; i = (i + 1) & mask {
		s := &f.slots[i]
		if s.key == 0 {
			return s, false
		}
		if s.word>>foldTagShift == tag && bytes.Equal(f.keyAt(s.key), key) {
			return s, true
		}
	}
}

// set records addr as the newest version of key (hash h).
func (f *fold) set(h uint64, key []byte, addr hlog.Address) {
	s, ok := f.find(h, key)
	if !ok {
		if 4*(f.used+1) > 3*len(f.slots) {
			f.grow()
			s, _ = f.find(h, key)
		}
		s.key = f.appendKey(key)
		f.used++
	}
	s.word = h>>foldTagShift<<foldTagShift | addr&foldAddrMask
}

// tombstone records that key's newest version is a delete. A key the
// fold has not seen needs no slot: absent and tombstoned read the same.
func (f *fold) tombstone(h uint64, key []byte) {
	if s, ok := f.find(h, key); ok {
		s.word &^= foldAddrMask
	}
}

// get returns the address of key's newest version, or InvalidAddress
// when the key is absent or tombstoned.
func (f *fold) get(h uint64, key []byte) hlog.Address {
	if s, ok := f.find(h, key); ok {
		return s.word & foldAddrMask
	}
	return hlog.InvalidAddress
}

// appendKey stores key and returns its reference (1 + offset).
func (f *fold) appendKey(key []byte) uint64 {
	need := f.keysLen + 4 + len(key)
	if need > len(f.keys) {
		grown := arena.Alloc(max(2*len(f.keys), need))
		copy(grown, f.keys[:f.keysLen])
		f.notePeak(len(grown))
		arena.Free(f.keys)
		f.keys = grown
	}
	off := f.keysLen
	binary.LittleEndian.PutUint32(f.keys[off:], uint32(len(key)))
	copy(f.keys[off+4:], key)
	f.keysLen = need
	return uint64(off) + 1
}

// grow doubles the slot table. A slot keeps only a 16-bit tag of its
// hash, so each key is rehashed to find its new home.
func (f *fold) grow() {
	mem := arena.Alloc(2 * len(f.slotMem))
	slots := arena.View[foldSlot](mem)
	mask := uint64(len(slots) - 1)
	for _, s := range f.slots {
		if s.key == 0 {
			continue
		}
		i := hashKey(f.keyAt(s.key)) & mask
		for slots[i].key != 0 {
			i = (i + 1) & mask
		}
		slots[i] = s
	}
	f.notePeak(len(mem))
	arena.Free(f.slotMem)
	f.slotMem, f.slots = mem, slots
}
