package faster

import (
	"encoding/binary"
	"sync/atomic"
)

// VarLenOps is the operation set behind the network front-end
// (internal/server): variable-length opaque values with an
// INCRBY-flavoured RMW.
//
// Record allocations are sized by the caller, so a variable-length value
// carries its own length: every stored value is framed as
//
//	[8-byte LE payload length][payload bytes]
//
// The 8-byte header keeps the payload 8-aligned (value slices are always
// 8-aligned), which lets the counter fast path use sync/atomic. Callers
// frame with VarLenEncode before Upsert and decode reads with
// VarLenDecode.
//
// RMW treats the value as a signed 64-bit counter and the first 8 input
// bytes (LE) as a delta:
//
//   - absent key: the counter is created holding the delta;
//   - 8-byte payload: the delta is added, in place when possible
//     (full concurrency) or via copy-update when the record is sealed or
//     read-only;
//   - any other payload length: the value is not a counter. With an 8-
//     or 9-byte input the RMW resets it to a counter holding the delta;
//     with a 17-byte input it leaves the value byte-identical and reports
//     the refusal (below).
//
// Input bytes past the delta are a status channel that every updater
// invocation rewrites, so a lost-CAS retry cannot leak a stale verdict.
// Callers read it back from their input (Result.Input on the pending
// path):
//
//   - 9 bytes, [delta][status]: status is 1 when the addition would wrap
//     int64 (the counter is then left unchanged), 0 otherwise.
//   - 17 bytes, [delta][status][new value]: status is one of
//     CounterUpdated, CounterOverflow or CounterNotCounter, and the last
//     8 bytes (LE) hold the counter value this RMW produced, so one RMW
//     is the whole of Redis's INCRBY, reply included. A non-counter
//     payload makes InPlaceUpdater decline, CopyValueLen keep the old
//     length and CopyUpdater copy the old value unchanged.
//   - 8 bytes: the addition wraps.
//
// In-place upserts accept any new framed value that fits the existing
// allocation (header included), so shrinking values update in place and
// growing values fall back to RCU, exactly the Table 1 regime. As with
// BlobOps, concurrent access is torn only at 8-byte-word granularity; a
// reader may observe a mix of two complete writes, never a torn word.
type VarLenOps struct{}

var _ ValueOps = VarLenOps{}

// varLenHeader is the frame header size.
const varLenHeader = 8

// VarLenEncode frames payload for storage: [8-byte LE length][payload].
func VarLenEncode(payload []byte) []byte {
	buf := make([]byte, varLenHeader+len(payload))
	binary.LittleEndian.PutUint64(buf, uint64(len(payload)))
	copy(buf[varLenHeader:], payload)
	return buf
}

// VarLenAppend appends the framed form of payload to dst and returns
// the extended slice — VarLenEncode for callers that pool the backing
// storage.
func VarLenAppend(dst, payload []byte) []byte {
	var hdr [varLenHeader]byte
	binary.LittleEndian.PutUint64(hdr[:], uint64(len(payload)))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// VarLenDecode extracts the payload from a framed value previously read
// into buf (which may be longer than the frame: read output buffers are
// sized for the largest value). ok is false if the buffer is too short
// or the header is inconsistent — a truncated read of an oversized
// value.
func VarLenDecode(buf []byte) (payload []byte, ok bool) {
	if len(buf) < varLenHeader {
		return nil, false
	}
	n := binary.LittleEndian.Uint64(buf)
	if n > uint64(len(buf)-varLenHeader) {
		return nil, false
	}
	return buf[varLenHeader : varLenHeader+n], true
}

// VarLenFrameLen returns the full frame length (header + payload) that
// the header at the front of buf reports, which may exceed len(buf) when
// buf holds a truncated read: it is the output length a re-read needs. A
// header no record could hold (a corrupt value) is clamped to the record
// size limit; 0 means buf is shorter than a header.
func VarLenFrameLen(buf []byte) int {
	if len(buf) < varLenHeader {
		return 0
	}
	n := binary.LittleEndian.Uint64(buf)
	if n > maxRecordBytes-varLenHeader {
		return maxRecordBytes
	}
	return varLenHeader + int(n)
}

// VarLenCounter decodes a framed counter value. ok is false when the
// value is not an 8-byte counter payload.
func VarLenCounter(buf []byte) (int64, bool) {
	p, ok := VarLenDecode(buf)
	if !ok || len(p) != 8 {
		return 0, false
	}
	return int64(binary.LittleEndian.Uint64(p)), true
}

// frameLen reads the frame header of a live record value atomically (an
// in-place upsert may be rewriting it concurrently).
func frameLen(value []byte) uint64 {
	return atomic.LoadUint64(AtomicU64(value))
}

// SingleReader implements ValueOps: exclusive copy of the frame.
func (VarLenOps) SingleReader(_, value, _, output []byte) { copy(output, value) }

// ConcurrentReader implements ValueOps: wordwise-atomic copy.
func (VarLenOps) ConcurrentReader(_, value, _, output []byte) { readWordsAtomic(output, value) }

// SingleWriter implements ValueOps: src is already framed.
func (VarLenOps) SingleWriter(_, dst, src []byte) { copy(dst, src) }

// ConcurrentWriter implements ValueOps: in-place when the framed src fits
// the existing allocation, declining (RCU) otherwise.
func (VarLenOps) ConcurrentWriter(_, dst, src []byte) bool {
	if len(src) > len(dst) {
		return false
	}
	copyWordsAtomic(dst, src)
	return true
}

// addOverflows reports whether old+delta wraps the int64 range.
func addOverflows(old, delta int64) bool {
	if delta > 0 {
		return old > maxInt64-delta
	}
	return old < minInt64-delta
}

const (
	maxInt64 = int64(^uint64(0) >> 1)
	minInt64 = -maxInt64 - 1
)

// Status codes of the 17-byte counter input's status byte (input[8]).
const (
	CounterUpdated    byte = 0 // the counter holds the new value in input[9:17]
	CounterOverflow   byte = 1 // the add would wrap int64; the counter is unchanged
	CounterNotCounter byte = 2 // the value is not a counter; it is unchanged
)

// CounterInputLen is the length of the counter input that reports the new
// value: [delta][status][new value].
const CounterInputLen = 17

// setCounterStatus writes an updater's verdict into the input's status
// channel: the status byte (9- and 17-byte inputs) and the post-update
// counter value (17-byte inputs).
func setCounterStatus(input []byte, status byte, value int64) {
	if len(input) >= 9 {
		input[8] = status
	}
	if len(input) >= CounterInputLen {
		binary.LittleEndian.PutUint64(input[9:CounterInputLen], uint64(value))
	}
}

// InitialUpdater implements ValueOps: an RMW insert creates a counter
// holding the delta (a single delta cannot overflow).
func (VarLenOps) InitialUpdater(_, value, input []byte) {
	binary.LittleEndian.PutUint64(value, 8)
	copy(value[varLenHeader:], input[:8])
	setCounterStatus(input, CounterUpdated, int64(binary.LittleEndian.Uint64(input)))
}

// InPlaceUpdater implements ValueOps: overflow-checked add on a counter
// payload; non-counter payloads decline to the sealed copy-update path.
// With a 9- or 17-byte input an overflowing add leaves the counter
// unchanged and reports through the status byte; an 8-byte input wraps.
func (VarLenOps) InPlaceUpdater(_, value, input []byte) bool {
	if len(value) < varLenHeader+8 || frameLen(value) != 8 {
		return false
	}
	delta := int64(binary.LittleEndian.Uint64(input))
	p := AtomicU64(value[varLenHeader:])
	if len(input) < 9 {
		atomic.AddUint64(p, uint64(delta))
		return true
	}
	for {
		cur := atomic.LoadUint64(p)
		if addOverflows(int64(cur), delta) {
			setCounterStatus(input, CounterOverflow, int64(cur))
			return true // handled: counter intact, verdict delivered
		}
		if atomic.CompareAndSwapUint64(p, cur, cur+uint64(delta)) {
			setCounterStatus(input, CounterUpdated, int64(cur+uint64(delta)))
			return true
		}
	}
}

// CopyUpdater implements ValueOps: counter += delta. An old value that is
// not a counter is reset to the delta, or — with a 17-byte input — copied
// unchanged. An overflowing add copies the counter unchanged and reports
// through the status byte (9- and 17-byte inputs) or wraps (8 bytes).
func (VarLenOps) CopyUpdater(_, oldValue, newValue, input []byte) {
	delta := int64(binary.LittleEndian.Uint64(input))
	p, ok := VarLenDecode(oldValue)
	if !ok || len(p) != 8 {
		if len(input) >= CounterInputLen {
			copy(newValue, oldValue)
			setCounterStatus(input, CounterNotCounter, 0)
			return
		}
		binary.LittleEndian.PutUint64(newValue, 8)
		binary.LittleEndian.PutUint64(newValue[varLenHeader:], uint64(delta))
		setCounterStatus(input, CounterUpdated, delta)
		return
	}
	binary.LittleEndian.PutUint64(newValue, 8)
	old := int64(binary.LittleEndian.Uint64(p))
	if len(input) >= 9 && addOverflows(old, delta) {
		binary.LittleEndian.PutUint64(newValue[varLenHeader:], uint64(old))
		setCounterStatus(input, CounterOverflow, old)
		return
	}
	binary.LittleEndian.PutUint64(newValue[varLenHeader:], uint64(old)+uint64(delta))
	setCounterStatus(input, CounterUpdated, old+delta)
}

// InitialValueLen implements ValueOps: header + 8-byte counter.
func (VarLenOps) InitialValueLen(_, _ []byte) int { return varLenHeader + 8 }

// CopyValueLen implements ValueOps: the updated value is a counter, except
// that a 17-byte input keeps a non-counter value (and its length) as is.
func (VarLenOps) CopyValueLen(_, oldValue, input []byte) int {
	if len(input) >= CounterInputLen {
		if p, ok := VarLenDecode(oldValue); !ok || len(p) != 8 {
			return len(oldValue)
		}
	}
	return varLenHeader + 8
}
