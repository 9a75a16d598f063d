package server

import (
	"bytes"
	"fmt"
	"net"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/arena"
	"repro/internal/device"
	"repro/internal/faster"
	"repro/internal/resp"
	"repro/internal/testutil"
)

// newTestServer opens a Mem-backed VarLenOps store and a front-end on a
// loopback port, torn down (drain first, then store) via t.Cleanup.
func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	return newTestServerOver(t, 14, 16, cfg)
}

// newTestServerOver is newTestServer with the log geometry chosen by the
// test.
func newTestServerOver(t *testing.T, pageBits uint, bufferPages int, cfg Config) *Server {
	t.Helper()
	dev := device.NewMem(device.MemConfig{})
	s, err := faster.Open(faster.Config{
		Ops: faster.VarLenOps{}, IndexBuckets: 1 << 10,
		PageBits: pageBits, BufferPages: bufferPages, MutableFraction: 0.75,
		Device: dev,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := ListenAndServe(s, "127.0.0.1:0", cfg)
	if err != nil {
		s.Close()
		dev.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		s.Close()
		dev.Close()
	})
	return srv
}

func dialT(t *testing.T, srv *Server) *resp.Client {
	t.Helper()
	c, err := resp.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestServerRoundTrips(t *testing.T) {
	testutil.CheckGoroutines(t)
	srv := newTestServer(t, Config{})
	c := dialT(t, srv)

	check := func(v resp.Value, err error, kind resp.Kind, str string, n int64) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if v.Kind != kind {
			t.Fatalf("kind = %c, want %c (%q)", v.Kind, kind, v.Str)
		}
		if str != "" && string(v.Str) != str {
			t.Fatalf("str = %q, want %q", v.Str, str)
		}
		if kind == resp.Integer && v.Int != n {
			t.Fatalf("int = %d, want %d", v.Int, n)
		}
	}

	v, err := c.Do([]byte("PING"))
	check(v, err, resp.SimpleString, "PONG", 0)
	v, err = c.Do([]byte("ECHO"), []byte("hello"))
	check(v, err, resp.BulkString, "hello", 0)

	v, err = c.Do([]byte("SET"), []byte("k1"), []byte("v1"))
	check(v, err, resp.SimpleString, "OK", 0)
	v, err = c.Do([]byte("GET"), []byte("k1"))
	check(v, err, resp.BulkString, "v1", 0)
	v, err = c.Do([]byte("GET"), []byte("missing"))
	check(v, err, resp.Nil, "", 0)

	// Binary-safe value.
	blob := []byte{0, 1, '\r', '\n', 255, 0}
	v, err = c.Do([]byte("SET"), []byte("bin"), blob)
	check(v, err, resp.SimpleString, "OK", 0)
	v, err = c.Do([]byte("GET"), []byte("bin"))
	if err != nil || !bytes.Equal(v.Str, blob) {
		t.Fatalf("binary round-trip: %q %v", v.Str, err)
	}

	v, err = c.Do([]byte("DEL"), []byte("k1"), []byte("missing"))
	check(v, err, resp.Integer, "", 1)
	v, err = c.Do([]byte("GET"), []byte("k1"))
	check(v, err, resp.Nil, "", 0)

	v, err = c.Do([]byte("INCRBY"), []byte("ctr"), []byte("5"))
	check(v, err, resp.Integer, "", 5)
	v, err = c.Do([]byte("INCRBY"), []byte("ctr"), []byte("-2"))
	check(v, err, resp.Integer, "", 3)

	// INCRBY over a blob is a type error, not a reset.
	c.Do([]byte("SET"), []byte("blob"), []byte("not a number"))
	v, err = c.Do([]byte("INCRBY"), []byte("blob"), []byte("1"))
	if err != nil || !v.IsError() || !strings.Contains(string(v.Str), "not an integer") {
		t.Fatalf("INCRBY over blob = %q %v", v.Str, err)
	}
	v, _ = c.Do([]byte("GET"), []byte("blob"))
	if string(v.Str) != "not a number" {
		t.Fatalf("blob clobbered by rejected INCRBY: %q", v.Str)
	}

	// Errors that keep the connection alive.
	v, err = c.Do([]byte("NOSUCH"))
	if err != nil || !v.IsError() {
		t.Fatalf("unknown command: %v %v", v, err)
	}
	v, err = c.Do([]byte("SET"), []byte("k"))
	if err != nil || !v.IsError() {
		t.Fatalf("bad arity: %v %v", v, err)
	}
	v, err = c.Do([]byte("PING"))
	check(v, err, resp.SimpleString, "PONG", 0)
}

func TestServerPipelining(t *testing.T) {
	testutil.CheckGoroutines(t)
	srv := newTestServer(t, Config{})
	c := dialT(t, srv)

	const n = 500
	cmds := make([][][]byte, 0, 2*n)
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("key-%d", i))
		v := []byte(fmt.Sprintf("val-%d", i))
		cmds = append(cmds, [][]byte{[]byte("SET"), k, v})
	}
	for i := 0; i < n; i++ {
		cmds = append(cmds, [][]byte{[]byte("GET"), []byte(fmt.Sprintf("key-%d", i))})
	}
	replies, err := c.Pipeline(cmds)
	if err != nil {
		t.Fatal(err)
	}
	if len(replies) != 2*n {
		t.Fatalf("%d replies, want %d", len(replies), 2*n)
	}
	for i := 0; i < n; i++ {
		if replies[i].Kind != resp.SimpleString {
			t.Fatalf("SET %d: %v", i, replies[i])
		}
		got := replies[n+i]
		if got.Kind != resp.BulkString || string(got.Str) != fmt.Sprintf("val-%d", i) {
			t.Fatalf("GET %d = %q", i, got.Str)
		}
	}
}

func TestServerValueTooLarge(t *testing.T) {
	testutil.CheckGoroutines(t)
	srv := newTestServer(t, Config{MaxValueBytes: 64})
	c := dialT(t, srv)

	v, err := c.Do([]byte("SET"), []byte("k"), bytes.Repeat([]byte("x"), 65))
	if err != nil || !v.IsError() || !strings.Contains(string(v.Str), "exceeds") {
		t.Fatalf("oversized SET = %q %v", v.Str, err)
	}
	// Connection still healthy, and a max-sized value fits exactly.
	v, err = c.Do([]byte("SET"), []byte("k"), bytes.Repeat([]byte("y"), 64))
	if err != nil || v.Kind != resp.SimpleString {
		t.Fatalf("max-sized SET = %v %v", v, err)
	}
	v, err = c.Do([]byte("GET"), []byte("k"))
	if err != nil || len(v.Str) != 64 {
		t.Fatalf("max-sized GET = %d bytes, %v", len(v.Str), err)
	}
}

func TestServerConnectionCap(t *testing.T) {
	testutil.CheckGoroutines(t)
	srv := newTestServer(t, Config{MaxConns: 1})

	c1 := dialT(t, srv)
	if v, err := c1.Do([]byte("PING")); err != nil || v.Kind != resp.SimpleString {
		t.Fatalf("first conn: %v %v", v, err)
	}

	// The second connection is shed at accept with an explicit error.
	c2, err := resp.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	v, err := c2.Do([]byte("PING"))
	if err == nil {
		if !v.IsError() || !strings.Contains(string(v.Str), "OVERLOADED") {
			t.Fatalf("second conn reply = %v, want -OVERLOADED", v)
		}
	}
	// Either way the connection must be closed promptly.
	c2.Conn().SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := c2.Conn().Read(make([]byte, 1)); err == nil {
		t.Fatal("shed connection left open")
	}

	if got := srv.Metrics().ConnsRejected; got != 1 {
		t.Fatalf("ConnsRejected = %d, want 1", got)
	}

	// Dropping the first connection frees the slot.
	c1.Close()
	testutil.WaitUntil(t, 2*time.Second, func() bool {
		c3, err := resp.Dial(srv.Addr())
		if err != nil {
			return false
		}
		v, err := c3.Do([]byte("PING"))
		c3.Close()
		return err == nil && v.Kind == resp.SimpleString
	}, "slot to free after close")
}

func TestServerIdleEviction(t *testing.T) {
	testutil.CheckGoroutines(t)
	srv := newTestServer(t, Config{IdleTimeout: 100 * time.Millisecond})

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Say nothing; the server must hang up on us.
	conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("idle connection not evicted")
	}
	testutil.WaitUntil(t, 2*time.Second,
		func() bool { return srv.Metrics().DeadlineEvictions > 0 },
		"eviction to be counted")
}

func TestServerPanicRecovery(t *testing.T) {
	testutil.CheckGoroutines(t)
	testPanicCommand = "BOOM"
	defer func() { testPanicCommand = "" }()
	srv := newTestServer(t, Config{})

	// The panicking handler loses its connection...
	c1 := dialT(t, srv)
	if _, err := c1.Do([]byte("BOOM")); err == nil {
		t.Fatal("poisoned command got a reply")
	}
	testutil.WaitUntil(t, 2*time.Second,
		func() bool { return srv.Metrics().Panics > 0 },
		"panic to be counted")

	// ...and the server keeps serving everyone else.
	c2 := dialT(t, srv)
	if v, err := c2.Do([]byte("PING")); err != nil || v.Kind != resp.SimpleString {
		t.Fatalf("server dead after handler panic: %v %v", v, err)
	}

	// Malformed-but-legal requests keep the connection alive.
	v, err := c2.Do([]byte("GET"), []byte{})
	if err != nil || !v.IsError() {
		t.Fatalf("empty key = %v %v", v, err)
	}
	if v, err := c2.Do([]byte("PING")); err != nil || v.Kind != resp.SimpleString {
		t.Fatalf("connection dead after bad request: %v %v", v, err)
	}
}

func TestServerAdminEndpoints(t *testing.T) {
	testutil.CheckGoroutines(t)
	srv := newTestServer(t, Config{})
	c := dialT(t, srv)
	if _, err := c.Do([]byte("SET"), []byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}

	admin := httptest.NewServer(srv.AdminHandler())
	defer admin.Close()

	get := func(path string) (int, string) {
		t.Helper()
		res, err := admin.Client().Get(admin.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer res.Body.Close()
		var sb strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := res.Body.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return res.StatusCode, sb.String()
	}

	code, body := get("/healthz")
	if code != 200 || !strings.Contains(body, `"ready": true`) {
		t.Fatalf("healthz = %d %q", code, body)
	}
	code, body = get("/metrics")
	if code != 200 || !strings.Contains(body, "server.commands") || !strings.Contains(body, "faster.reads") {
		t.Fatalf("metrics = %d %q", code, body[:min(len(body), 200)])
	}

	// Draining flips readiness.
	if err := srv.Close(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	code, body = get("/healthz")
	if code != 503 || !strings.Contains(body, `"draining": true`) {
		t.Fatalf("healthz after drain = %d %q", code, body)
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	testutil.CheckGoroutines(t)
	srv := newTestServer(t, Config{})
	c := dialT(t, srv)
	if _, err := c.Do([]byte("SET"), []byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("first close: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	// New connections are refused after drain.
	if c, err := resp.Dial(srv.Addr()); err == nil {
		c.Close()
		t.Fatal("dial succeeded after close")
	}
}

func TestServerSessionCapValidated(t *testing.T) {
	dev := device.NewMem(device.MemConfig{})
	defer dev.Close()
	s, err := faster.Open(faster.Config{
		Ops: faster.VarLenOps{}, IndexBuckets: 1 << 10,
		PageBits: 14, BufferPages: 16, MutableFraction: 0.75,
		Device: dev, MaxSessions: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := ListenAndServe(s, "127.0.0.1:0", Config{Sessions: 8}); err == nil {
		t.Fatal("oversized session pool accepted")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestServerPipelinedBatchMixed drives the batched window path with
// everything it has to get right at once: GET/SET runs split by barrier
// commands (DEL, INCRBY, PING), duplicate keys inside a run, payloads
// large enough to ride the vectored-write path, values too big for the
// pooled slot buffer (exact-size fallback re-read), and missing keys —
// all in one pipeline, with reply order checked slot by slot.
func TestServerPipelinedBatchMixed(t *testing.T) {
	testutil.CheckGoroutines(t)
	srv := newTestServer(t, Config{})
	c := dialT(t, srv)

	medium := bytes.Repeat([]byte("m"), 2000) // > inlineReplyMax, fits the slot buffer
	large := bytes.Repeat([]byte("L"), 8000)  // > slotOutBytes: fallback re-read
	cmds := [][][]byte{
		{[]byte("SET"), []byte("bk-1"), []byte("v1")},
		{[]byte("SET"), []byte("bk-2"), medium},
		{[]byte("SET"), []byte("bk-3"), large},
		{[]byte("SET"), []byte("bk-1"), []byte("v1b")}, // dup key, last write wins
		{[]byte("GET"), []byte("bk-1")},
		{[]byte("GET"), []byte("bk-2")},
		{[]byte("GET"), []byte("bk-3")},
		{[]byte("GET"), []byte("bk-none")},
		{[]byte("PING")}, // barrier mid-window
		{[]byte("SET"), []byte("ctr"), []byte("\x08\x00\x00\x00\x00\x00\x00\x00\x05\x00\x00\x00\x00\x00\x00\x00")},
		{[]byte("DEL"), []byte("bk-2")}, // barrier
		{[]byte("GET"), []byte("bk-2")},
		{[]byte("GET"), []byte("bk-1")},
	}
	replies, err := c.Pipeline(cmds)
	if err != nil {
		t.Fatal(err)
	}
	if len(replies) != len(cmds) {
		t.Fatalf("%d replies, want %d", len(replies), len(cmds))
	}
	expectBulk := func(i int, want []byte) {
		t.Helper()
		if replies[i].Kind != resp.BulkString || !bytes.Equal(replies[i].Str, want) {
			t.Fatalf("reply %d = kind %c, %d bytes; want bulk %d bytes", i,
				replies[i].Kind, len(replies[i].Str), len(want))
		}
	}
	for i := 0; i < 4; i++ {
		if replies[i].Kind != resp.SimpleString {
			t.Fatalf("SET %d: %v", i, replies[i])
		}
	}
	expectBulk(4, []byte("v1b"))
	expectBulk(5, medium)
	expectBulk(6, large)
	if replies[7].Kind != resp.Nil {
		t.Fatalf("missing key reply = %v, want nil", replies[7])
	}
	if replies[8].Kind != resp.SimpleString || string(replies[8].Str) != "PONG" {
		t.Fatalf("PING reply = %v", replies[8])
	}
	if replies[9].Kind != resp.SimpleString {
		t.Fatalf("counter SET reply = %v", replies[9])
	}
	if replies[10].Kind != resp.Integer || replies[10].Int != 1 {
		t.Fatalf("DEL reply = %v, want :1", replies[10])
	}
	if replies[11].Kind != resp.Nil {
		t.Fatalf("GET after DEL = %v, want nil", replies[11])
	}
	expectBulk(12, []byte("v1b"))

	// The store agrees with the replies after the batch.
	if v, err := c.Do([]byte("GET"), []byte("bk-3")); err != nil || !bytes.Equal(v.Str, large) {
		t.Fatalf("post-batch GET: %v %v", v.Kind, err)
	}
}

// TestServerPipelinedBatchDeep exercises window chunking: a pipeline far
// longer than one window must produce every reply, in order.
func TestServerPipelinedBatchDeep(t *testing.T) {
	testutil.CheckGoroutines(t)
	srv := newTestServer(t, Config{})
	c := dialT(t, srv)

	const n = 300 // several windows of 64
	cmds := make([][][]byte, 0, 2*n)
	for i := 0; i < n; i++ {
		cmds = append(cmds, [][]byte{[]byte("SET"),
			[]byte(fmt.Sprintf("deep-%d", i)), []byte(fmt.Sprintf("dv-%d", i))})
	}
	for i := n - 1; i >= 0; i-- {
		cmds = append(cmds, [][]byte{[]byte("GET"), []byte(fmt.Sprintf("deep-%d", i))})
	}
	replies, err := c.Pipeline(cmds)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if replies[i].Kind != resp.SimpleString {
			t.Fatalf("SET %d: %v", i, replies[i])
		}
		want := fmt.Sprintf("dv-%d", n-1-i)
		if got := replies[n+i]; got.Kind != resp.BulkString || string(got.Str) != want {
			t.Fatalf("GET %d = %q, want %q", i, got.Str, want)
		}
	}
}

func TestServerAdminPprofGated(t *testing.T) {
	testutil.CheckGoroutines(t)
	get := func(srv *Server, path string) int {
		t.Helper()
		admin := httptest.NewServer(srv.AdminHandler())
		defer admin.Close()
		res, err := admin.Client().Get(admin.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		res.Body.Close()
		return res.StatusCode
	}
	if code := get(newTestServer(t, Config{}), "/debug/pprof/heap"); code != 404 {
		t.Fatalf("pprof without EnablePprof = %d, want 404", code)
	}
	if code := get(newTestServer(t, Config{EnablePprof: true}), "/debug/pprof/heap"); code != 200 {
		t.Fatalf("pprof with EnablePprof = %d, want 200", code)
	}
}

func TestServerIncrOverflow(t *testing.T) {
	testutil.CheckGoroutines(t)
	srv := newTestServer(t, Config{})
	c := dialT(t, srv)

	max := fmt.Sprintf("%d", int64(^uint64(0)>>1))
	v, err := c.Do([]byte("INCRBY"), []byte("ctr"), []byte(max))
	if err != nil || v.Kind != resp.Integer {
		t.Fatalf("seed to MaxInt64: %v %v", v, err)
	}

	// One more would wrap: Redis-compatible error, counter untouched.
	v, err = c.Do([]byte("INCRBY"), []byte("ctr"), []byte("1"))
	if err != nil || !v.IsError() || !strings.Contains(string(v.Str), "increment or decrement would overflow") {
		t.Fatalf("overflowing INCRBY = %q %v", v.Str, err)
	}
	v, err = c.Do([]byte("INCRBY"), []byte("ctr"), []byte("0"))
	if err != nil || v.Kind != resp.Integer || fmt.Sprintf("%d", v.Int) != max {
		t.Fatalf("counter after rejected overflow = %v %v, want %s", v, err, max)
	}

	// Decrement below MinInt64 is rejected symmetrically.
	v, err = c.Do([]byte("INCRBY"), []byte("neg"), []byte("-9223372036854775808"))
	if err != nil || v.Kind != resp.Integer {
		t.Fatalf("seed to MinInt64: %v %v", v, err)
	}
	v, err = c.Do([]byte("INCRBY"), []byte("neg"), []byte("-1"))
	if err != nil || !v.IsError() || !strings.Contains(string(v.Str), "would overflow") {
		t.Fatalf("underflowing INCRBY = %q %v", v.Str, err)
	}

	// The rejection is a client error, not a store fault: the connection
	// stays up and the health ladder stays green.
	if v, err = c.Do([]byte("PING")); err != nil || string(v.Str) != "PONG" {
		t.Fatalf("connection lost after overflow error: %v %v", v, err)
	}
	if m := srv.Metrics(); m.FailedRejects != 0 || m.ReadonlyRejects != 0 {
		t.Fatalf("overflow errors tripped the health ladder: %+v", m)
	}
}

func TestServerMemoryReportsHugePages(t *testing.T) {
	testutil.CheckGoroutines(t)
	srv := newTestServerOver(t, 20, 4, Config{}) // a 4 MiB log ring: a huge block
	c := dialT(t, srv)

	v, err := c.Do([]byte("MEMORY"), []byte("STATS"))
	if err != nil || v.Kind != resp.Array || len(v.Elems)%2 != 0 {
		t.Fatalf("MEMORY STATS = %v %v", v, err)
	}
	stats := make(map[string]string, len(v.Elems)/2)
	for i := 0; i < len(v.Elems); i += 2 {
		stats[string(v.Elems[i].Str)] = string(v.Elems[i+1].Str)
	}
	info, err := c.Do([]byte("INFO"), []byte("memory"))
	if err != nil || info.Kind != resp.BulkString {
		t.Fatalf("INFO memory = %v %v", info, err)
	}
	for _, k := range []string{"arena_advised_bytes", "arena_huge_bytes"} {
		if _, err := strconv.ParseUint(stats[k], 10, 64); err != nil {
			t.Fatalf("MEMORY STATS %s = %q, want a byte count", k, stats[k])
		}
		if !bytes.Contains(info.Str, []byte("\r\n"+k+":")) {
			t.Fatalf("INFO memory lacks %s: %q", k, info.Str)
		}
	}
	// The ring is advised wherever the kernel has transparent huge pages.
	if _, err := os.Stat("/sys/kernel/mm/transparent_hugepage"); err == nil && arena.OffHeap {
		if n, _ := strconv.ParseUint(stats["arena_advised_bytes"], 10, 64); n < 4<<20 {
			t.Fatalf("arena_advised_bytes = %d with a 4 MiB ring open", n)
		}
	}
}

func TestServerCompactAndMemory(t *testing.T) {
	testutil.CheckGoroutines(t)
	srv := newTestServer(t, Config{})
	c := dialT(t, srv)

	// Write two generations so the stable prefix holds dead versions,
	// then push it out of the mutable region.
	val := bytes.Repeat([]byte("v"), 64)
	for round := 0; round < 2; round++ {
		for i := 0; i < 200; i++ {
			k := []byte(fmt.Sprintf("k%03d", i))
			if v, err := c.Do([]byte("SET"), k, val); err != nil || string(v.Str) != "OK" {
				t.Fatalf("set: %v %v", v, err)
			}
		}
	}
	srv.Store().Log().ShiftReadOnlyToTail()

	memStats := func() map[string]string {
		t.Helper()
		v, err := c.Do([]byte("MEMORY"), []byte("STATS"))
		if err != nil || v.Kind != resp.Array || len(v.Elems)%2 != 0 {
			t.Fatalf("MEMORY STATS = %v %v", v, err)
		}
		m := make(map[string]string, len(v.Elems)/2)
		for i := 0; i < len(v.Elems); i += 2 {
			m[string(v.Elems[i].Str)] = string(v.Elems[i+1].Str)
		}
		return m
	}

	before := memStats()
	for _, k := range []string{"begin_address", "tail_address", "compactions", "reclaimed_bytes", "device_stored_bytes"} {
		if _, ok := before[k]; !ok {
			t.Fatalf("MEMORY STATS missing %q: %v", k, before)
		}
	}
	if before["compactions"] != "0" {
		t.Fatalf("compactions before COMPACT = %s, want 0", before["compactions"])
	}

	// SafeReadOnly needs the epoch to drain past the shift; COMPACT
	// no-ops (0 reclaimed) until it has, so retry briefly.
	var reclaimed int64
	testutil.WaitUntil(t, 5*time.Second, func() bool {
		v, err := c.Do([]byte("COMPACT"))
		if err != nil || v.Kind != resp.Integer {
			t.Fatalf("COMPACT = %v %v", v, err)
		}
		reclaimed = v.Int
		return reclaimed > 0
	}, "COMPACT to reclaim bytes once SafeReadOnly drains")

	after := memStats()
	if after["compactions"] == "0" || after["reclaimed_bytes"] == "0" {
		t.Fatalf("MEMORY STATS did not reflect the compaction: %v", after)
	}
	if after["begin_address"] == "64" {
		t.Fatal("begin address did not advance past FirstValidAddress")
	}
	// Where the memory goes: arenas by owner next to the Go heap, in
	// MEMORY STATS and in INFO memory alike.
	for _, k := range []string{"go_heap_bytes", "arena_live_bytes", "arena_log_frames_bytes", "arena_index_bytes"} {
		if v := after[k]; v == "" || v == "0" {
			t.Fatalf("MEMORY STATS %s = %q, want a byte count", k, v)
		}
	}
	v, err := c.Do([]byte("INFO"), []byte("memory"))
	if err != nil || v.Kind != resp.BulkString || !bytes.HasPrefix(v.Str, []byte("# Memory\r\n")) {
		t.Fatalf("INFO memory = %v %v", v, err)
	}
	for _, k := range []string{"go_heap_bytes:", "arena_log_frames_bytes:"} {
		if !bytes.Contains(v.Str, []byte("\r\n"+k)) {
			t.Fatalf("INFO memory lacks %s: %q", k, v.Str)
		}
	}
	if v, _ := c.Do([]byte("INFO"), []byte("keyspace")); v.Kind != resp.BulkString || len(v.Str) != 0 {
		t.Fatalf("INFO keyspace = %v, want an empty section", v)
	}
	if m := srv.Metrics(); m.CompactRuns == 0 {
		t.Fatalf("compact_runs not counted: %+v", m)
	}

	// Every key must still read back after compaction.
	for i := 0; i < 200; i++ {
		k := []byte(fmt.Sprintf("k%03d", i))
		if v, err := c.Do([]byte("GET"), k); err != nil || !bytes.Equal(v.Str, val) {
			t.Fatalf("GET %s after COMPACT: %q %v", k, v.Str, err)
		}
	}

	// Arity/subcommand validation.
	if v, _ := c.Do([]byte("MEMORY"), []byte("DOCTOR")); !v.IsError() {
		t.Fatalf("MEMORY DOCTOR accepted: %v", v)
	}
	if v, _ := c.Do([]byte("COMPACT"), []byte("now")); !v.IsError() {
		t.Fatalf("COMPACT with args accepted: %v", v)
	}
}
