package index

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync/atomic"
)

// Fuzzy checkpointing (§3.3, §6.5): because every index mutation is a
// 64-bit CAS, a checkpoint thread can read the table word-by-word without
// any read locks. The resulting image is fuzzy — it interleaves with
// concurrent updates — and is repaired during recovery by replaying the
// HybridLog records between the checkpoint's bracket addresses (handled by
// the store layer).
//
// Format (little endian):
//
//	magic   uint64
//	tagBits uint64
//	size    uint64  (main buckets)
//	count   uint64  (number of entry records that follow)
//	count × { offset uint64, entryWord uint64 }
//	crc32   uint64  (IEEE, over everything before it)

const checkpointMagic uint64 = 0xFA57E81D000C0DE5

// errCorrupt is wrapped into corrupt-checkpoint errors.
var errCorrupt = errors.New("index: corrupt checkpoint")

// WriteCheckpoint serializes a fuzzy snapshot of the index to w. It may
// run concurrently with index mutations; entries captured mid-insert
// (tentative) are skipped. Resizing must not be in progress.
func (idx *Index) WriteCheckpoint(w io.Writer) error {
	return idx.WriteCheckpointMapped(w, func(addr uint64) (uint64, bool) { return addr, true })
}

// WriteCheckpointMapped is WriteCheckpoint with every live entry's address
// rewritten through mapAddr before serialization. The store uses it to
// keep volatile addresses (read-cache redirections) out of durable index
// images: mapAddr returns the address to persist, or ok=false to have the
// entry read again (an address it cannot resolve is one that is about to
// move). mapAddr runs inside the fuzzy scan and must not mutate the index.
func (idx *Index) WriteCheckpointMapped(w io.Writer, mapAddr func(addr uint64) (uint64, bool)) error {
	t, s := idx.pinActive()
	if t == nil {
		return errors.New("index: checkpoint of a closed index")
	}
	defer t.unpin()
	if s.phase != phaseStable {
		return errors.New("index: cannot checkpoint during resize")
	}

	crc := crc32.NewIEEE()
	bw := bufio.NewWriterSize(io.MultiWriter(w, crc), 1<<16)
	writeU64 := func(v uint64) error {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], v)
		_, err := bw.Write(buf[:])
		return err
	}

	for _, v := range []uint64{checkpointMagic, uint64(idx.tagBits), t.size} {
		if err := writeU64(v); err != nil {
			return err
		}
	}

	// Two passes would race worse with writers; instead buffer entries.
	type rec struct{ off, word uint64 }
	var recs []rec
	for off := range t.buckets {
		b := &t.buckets[off]
		for {
			for j := 0; j < entriesPerBucket; j++ {
				for {
					w := atomic.LoadUint64(&b[j])
					if !entryLive(w) {
						break
					}
					if addr, ok := mapAddr(w & AddressMask); ok {
						recs = append(recs, rec{uint64(off), w&^AddressMask | addr&AddressMask})
						break
					}
				}
			}
			ov := atomic.LoadUint64(&b[7])
			if ov == 0 {
				break
			}
			b = t.overflowBucket(ov)
		}
	}
	if err := writeU64(uint64(len(recs))); err != nil {
		return err
	}
	for _, r := range recs {
		if err := writeU64(r.off); err != nil {
			return err
		}
		if err := writeU64(r.word); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	var tail [8]byte
	binary.LittleEndian.PutUint64(tail[:], uint64(crc.Sum32()))
	_, err := w.Write(tail[:])
	return err
}

// ReadCheckpoint reconstructs an index from a checkpoint image. Nothing is
// sized from the header until the CRC and every field have checked out,
// so a corrupt image is an error, never an allocation of its claimed size.
func ReadCheckpoint(r io.Reader) (*Index, error) {
	crc := crc32.NewIEEE()
	br := bufio.NewReaderSize(r, 1<<16)
	// CRC is fed explicitly per word (not via TeeReader) because bufio
	// read-ahead would otherwise mix the trailer into the digest.
	readU64 := func() (uint64, error) {
		var buf [8]byte
		if _, err := io.ReadFull(br, buf[:]); err != nil {
			return 0, err
		}
		crc.Write(buf[:])
		return binary.LittleEndian.Uint64(buf[:]), nil
	}

	magic, err := readU64()
	if err != nil {
		return nil, err
	}
	if magic != checkpointMagic {
		return nil, fmt.Errorf("%w: bad magic %#x", errCorrupt, magic)
	}
	tagBits, err := readU64()
	if err != nil {
		return nil, err
	}
	size, err := readU64()
	if err != nil {
		return nil, err
	}
	count, err := readU64()
	if err != nil {
		return nil, err
	}

	// The records slice grows only as their bytes arrive, so a corrupt
	// count costs at most the image's own size.
	var recs [][2]uint64
	for i := uint64(0); i < count; i++ {
		off, err := readU64()
		if err != nil {
			return nil, err
		}
		word, err := readU64()
		if err != nil {
			return nil, err
		}
		recs = append(recs, [2]uint64{off, word})
	}
	wantCRC := uint64(crc.Sum32())
	var tail [8]byte
	if _, err := io.ReadFull(br, tail[:]); err != nil {
		return nil, err
	}
	if got := binary.LittleEndian.Uint64(tail[:]); got != wantCRC {
		return nil, fmt.Errorf("%w: crc mismatch", errCorrupt)
	}

	if size == 0 || size&(size-1) != 0 {
		return nil, fmt.Errorf("%w: size %d not a power of two", errCorrupt, size)
	}
	if tagBits == 0 || tagBits > MaxTagBits {
		return nil, fmt.Errorf("%w: tag width %d", errCorrupt, tagBits)
	}
	fields := occupiedBit | (1<<tagBits-1)<<tagShift | AddressMask
	for _, rec := range recs {
		if off, word := rec[0], rec[1]; off >= size || !entryLive(word) || word&^fields != 0 {
			return nil, fmt.Errorf("%w: entry %#x at offset %d", errCorrupt, word, off)
		}
	}
	idx, err := New(Config{InitialBuckets: size, TagBits: uint(tagBits)})
	if err != nil {
		return nil, err
	}
	t := idx.activeTable()
	for _, rec := range recs {
		idx.insertMigrated(t, rec[0], rec[1])
	}
	return idx, nil
}
