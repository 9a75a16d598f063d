package faster

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzVarLenFraming drives the VarLenOps length-framing helpers with
// arbitrary payloads and arbitrary raw buffers: encode/decode must
// round-trip, decoding must tolerate the oversized output buffers the
// read path hands it, and no input may panic the decoder or make it
// return out-of-bounds slices.
func FuzzVarLenFraming(f *testing.F) {
	f.Add([]byte(nil), []byte(nil))
	f.Add([]byte("hello"), []byte{8, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, []byte("trailing"))
	f.Add(bytes.Repeat([]byte{0xff}, 64), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, payload, raw []byte) {
		// Encode→decode round-trips.
		framed := VarLenEncode(payload)
		got, ok := VarLenDecode(framed)
		if !ok || !bytes.Equal(got, payload) {
			t.Fatalf("round-trip failed: ok=%v got=%q want=%q", ok, got, payload)
		}

		// Read output buffers are sized for the largest value, so the
		// decoder must also accept a frame with arbitrary trailing bytes
		// and still return exactly the framed payload.
		wide := append(append([]byte(nil), framed...), raw...)
		got, ok = VarLenDecode(wide)
		if !ok || !bytes.Equal(got, payload) {
			t.Fatalf("widened decode failed: ok=%v got=%q want=%q", ok, got, payload)
		}

		// Counter decoding agrees with the framing: exactly an 8-byte
		// payload is a counter.
		c, ok := VarLenCounter(framed)
		if ok != (len(payload) == 8) {
			t.Fatalf("VarLenCounter ok=%v for %d-byte payload", ok, len(payload))
		}
		if ok && c != int64(binary.LittleEndian.Uint64(payload)) {
			t.Fatalf("VarLenCounter = %d, want %d", c, int64(binary.LittleEndian.Uint64(payload)))
		}

		// Arbitrary bytes (torn frames, hostile headers) must decode
		// cleanly or fail cleanly — never panic, never escape the buffer.
		if p, ok := VarLenDecode(raw); ok {
			if len(p) > len(raw)-varLenHeader {
				t.Fatalf("decoded %d bytes from a %d-byte buffer", len(p), len(raw))
			}
			if n := binary.LittleEndian.Uint64(raw); uint64(len(p)) != n {
				t.Fatalf("payload length %d != header %d", len(p), n)
			}
		}
		VarLenCounter(raw)
	})
}

// FuzzCheckpointFiles feeds arbitrary bytes to the parsers of the three
// checkpoint files recovery reads before it trusts a generation: the
// manifest, a shard's meta and its session table. Each must accept or
// reject the bytes without panicking and without allocating by a count
// it read; what they accept must re-encode to the same bytes.
func FuzzCheckpointFiles(f *testing.F) {
	f.Add(sealWords(manifestMagic, 2, 1<<61)) // 8*count wraps to 0
	f.Add(binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, sessMagic), 1<<60))
	f.Add(manifest{seq: 3, t1s: []uint64{64, 4096}}.encode())
	f.Add(ckptMeta{CheckpointInfo: CheckpointInfo{T1: 64, T2: 128}, sessLen: 40, sessCRC: 7}.encode())
	f.Add(sealWords(metaMagic, 128, 64, 0, 0, 0))      // T1 > T2
	f.Add(sealWords(metaMagic, 64, 128, 0, 40, 1<<32)) // CRC word past 32 bits
	f.Fuzz(func(t *testing.T, raw []byte) {
		if m, err := parseManifest(raw); err == nil && !bytes.Equal(m.encode(), raw) {
			t.Fatalf("manifest %+v re-encodes differently", m)
		}
		if m, err := parseMeta(raw); err == nil {
			if !(m.Begin <= m.T1 && m.T1 <= m.T2) {
				t.Fatalf("meta bracket %+v accepted out of order", m.CheckpointInfo)
			}
			if !bytes.Equal(m.encode(), raw) {
				t.Fatalf("meta %+v re-encodes differently", m)
			}
		}
		if states, err := parseSessionTable(raw); err == nil && len(states)*sessMinEntry > len(raw) {
			t.Fatalf("%d session entries from %d bytes", len(states), len(raw))
		}
	})
}
