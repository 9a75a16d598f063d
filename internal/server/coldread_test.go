package server

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/faster"
	"repro/internal/resp"
	"repro/internal/testutil"
)

// TestServerColdGetLargeValues reads back, after eviction, a value larger
// than the 32 KiB coalescer block (its block read cannot hold it, so the
// fetch re-issues individually) and one of exactly MaxValueBytes, through
// the single-command, pipelined-batch and MGET paths. Every buffer on the
// way is sized from the value, so the exact bytes must come back although
// no buffer is sized for MaxValueBytes up front.
func TestServerColdGetLargeValues(t *testing.T) {
	testutil.CheckGoroutines(t)
	const maxValue = 512 << 10
	srv := newTestServerOver(t, 20, 4, Config{MaxValueBytes: maxValue})
	c := dialT(t, srv)

	pattern := func(n int, seed byte) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = seed + byte(i*7)
		}
		return b
	}
	values := map[string][]byte{
		"over-a-block": pattern(40<<10, 1),
		"at-the-limit": pattern(maxValue, 2),
		"small":        pattern(100, 3),
	}
	for k, v := range values {
		if r, err := c.Do([]byte("SET"), []byte(k), v); err != nil || string(r.Str) != "OK" {
			t.Fatalf("SET %s: %v %v", k, r, err)
		}
	}
	// Push all three below the head address: the buffer holds 4 MiB.
	filler := pattern(maxValue, 9)
	for i := 0; i < 12; i++ {
		if r, err := c.Do([]byte("SET"), []byte(fmt.Sprintf("filler-%d", i)), filler); err != nil || string(r.Str) != "OK" {
			t.Fatalf("SET filler: %v %v", r, err)
		}
	}

	check := func(how, k string, r resp.Value) {
		t.Helper()
		if r.Kind != resp.BulkString || !bytes.Equal(r.Str, values[k]) {
			t.Fatalf("%s %s: kind %c, %d bytes, want the exact %d bytes", how, k, r.Kind, len(r.Str), len(values[k]))
		}
	}
	keys := []string{"over-a-block", "at-the-limit", "small"}
	for _, k := range keys {
		r, err := c.Do([]byte("GET"), []byte(k))
		if err != nil {
			t.Fatal(err)
		}
		check("GET", k, r)
	}
	if n := srv.Metrics().IOAsync; n < uint64(len(keys)) {
		t.Fatalf("only %d reads went through the io-pool; the values were not cold", n)
	}
	var cmds [][][]byte
	mget := [][]byte{[]byte("MGET")}
	for _, k := range keys {
		cmds = append(cmds, [][]byte{[]byte("GET"), []byte(k)})
		mget = append(mget, []byte(k))
	}
	replies, err := c.Pipeline(cmds)
	if err != nil || len(replies) != len(keys) {
		t.Fatalf("pipeline: %d replies, %v", len(replies), err)
	}
	for i, k := range keys {
		check("pipelined GET", k, replies[i])
	}
	r, err := c.Do(mget...)
	if err != nil || r.Kind != resp.Array || len(r.Elems) != len(keys) {
		t.Fatalf("MGET: %v %v", r, err)
	}
	for i, k := range keys {
		check("MGET", k, r.Elems[i])
	}

	// Resident again (a fresh write), the limit-sized value also comes back
	// whole through the synchronous path, whose buffers start small.
	if r, err := c.Do([]byte("SET"), []byte("at-the-limit"), values["at-the-limit"]); err != nil || string(r.Str) != "OK" {
		t.Fatalf("SET: %v %v", r, err)
	}
	before := srv.Metrics().IOAsync
	if r, err = c.Do([]byte("GET"), []byte("at-the-limit")); err != nil {
		t.Fatal(err)
	}
	check("resident GET", "at-the-limit", r)
	if replies, err = c.Pipeline(cmds[1:]); err != nil || len(replies) != 2 {
		t.Fatalf("pipeline: %d replies, %v", len(replies), err)
	}
	check("resident pipelined GET", "at-the-limit", replies[0])
	if srv.Metrics().IOAsync != before+1 { // "small" in the pipeline is still cold
		t.Fatalf("resident reads went through the io-pool (%d → %d)", before, srv.Metrics().IOAsync)
	}
}

// TestServerRepeatedCompact issues four back-to-back generations of
// writes, each followed by COMPACT, then scans the log from its begin
// address. A compaction leaves begin in the middle of a page; the next
// pass (and any scan) reads that page from its first byte, so the device
// must still hold the whole page: device truncation is page-granular.
func TestServerRepeatedCompact(t *testing.T) {
	testutil.CheckGoroutines(t)
	srv := newTestServer(t, Config{})
	c := dialT(t, srv)
	log := srv.Store().Log()

	const keys = 3000 // ~370 KiB a generation, over a 256 KiB buffer
	val := func(gen, i int) []byte { return []byte(fmt.Sprintf("generation-%d-of-key-%05d-%048d", gen, i, i)) }
	midPage := false
	for gen := 0; gen < 4; gen++ {
		for i := 0; i < keys; i++ {
			k := []byte(fmt.Sprintf("k%05d", i))
			if v, err := c.Do([]byte("SET"), k, val(gen, i)); err != nil || string(v.Str) != "OK" {
				t.Fatalf("SET: %v %v", v, err)
			}
		}
		log.ShiftReadOnlyToTail()
		begin := log.BeginAddress()
		testutil.WaitUntil(t, 5*time.Second, func() bool {
			v, err := c.Do([]byte("COMPACT"))
			if err != nil || v.Kind != resp.Integer {
				t.Fatalf("COMPACT %d = %c %q %v", gen+1, v.Kind, v.Str, err)
			}
			return log.BeginAddress() > begin
		}, "COMPACT to advance begin once SafeReadOnly drains")
		midPage = midPage || log.BeginAddress()%log.PageSize() != 0
	}
	if !midPage {
		t.Fatal("begin never landed mid-page; the test exercises nothing")
	}
	if log.BeginAddress() < log.HeadAddress() {
		// The page holding begin is on the device only.
		if got, page := log.TruncatedUntil(), log.BeginAddress()&^(log.PageSize()-1); got > page {
			t.Fatalf("device truncated to %#x, inside or past the page (%#x) holding begin %#x", got, page, log.BeginAddress())
		}
	}
	seen := 0
	if err := srv.Store().Scan(faster.ScanOptions{}, func(faster.ScanRecord) bool { seen++; return true }); err != nil {
		t.Fatalf("scan from begin %#x: %v", log.BeginAddress(), err)
	}
	if seen < keys {
		t.Fatalf("scan saw %d records, want at least the %d live ones", seen, keys)
	}
	for i := 0; i < keys; i += 7 {
		k := []byte(fmt.Sprintf("k%05d", i))
		if v, err := c.Do([]byte("GET"), k); err != nil || !bytes.Equal(v.Str, val(3, i)) {
			t.Fatalf("GET %s after four COMPACTs: %q %v", k, v.Str, err)
		}
	}
}
