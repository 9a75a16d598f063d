package server

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/resp"
	"repro/internal/testutil"
)

// expectSimple asserts a +simple-string reply with the exact body.
func expectSimple(t *testing.T, v resp.Value, err error, want string) {
	t.Helper()
	if err != nil {
		t.Fatalf("transport: %v", err)
	}
	if v.Kind != resp.SimpleString || string(v.Str) != want {
		t.Fatalf("reply = %c %q, want +%s", v.Kind, v.Str, want)
	}
}

// expectErrContains asserts an -error reply mentioning want.
func expectErrContains(t *testing.T, v resp.Value, err error, want string) {
	t.Helper()
	if err != nil {
		t.Fatalf("transport: %v", err)
	}
	if !v.IsError() || !strings.Contains(string(v.Str), want) {
		t.Fatalf("reply = %c %q, want error containing %q", v.Kind, v.Str, want)
	}
}

// TestServerExactlyOnceProtocol drives the SESSION/SERIAL wire protocol
// end to end on one server: attach, ack, replay, stale/gap fencing,
// cross-connection takeover, and stamped SETs through the batch path.
func TestServerExactlyOnceProtocol(t *testing.T) {
	srv := newTestServer(t, Config{Sessions: 4})
	c := dialT(t, srv)

	// Attach: a fresh GUID starts at frontier 0.
	v, err := c.Do([]byte("SESSION"), []byte("proto-client"))
	if err != nil || v.Kind != resp.Integer || v.Int != 0 {
		t.Fatalf("SESSION = %+v %v, want :0", v, err)
	}

	// Stamped INCRBY applies and acks with the updated counter.
	v, err = c.Do([]byte("INCRBY"), []byte("ctr"), []byte("5"), []byte("SERIAL"), []byte("1"))
	expectSimple(t, v, err, "ACK 1 5")

	// Duplicate delivery of the frontier serial: replayed, not re-run.
	v, err = c.Do([]byte("INCRBY"), []byte("ctr"), []byte("5"), []byte("SERIAL"), []byte("1"))
	expectSimple(t, v, err, "ACK 1 5")
	if v, err = c.Do([]byte("INCRBY"), []byte("ctr"), []byte("0")); err != nil || v.Int != 5 {
		t.Fatalf("counter after replay = %+v %v, want :5 (duplicate re-applied)", v, err)
	}

	// Stamped SET and DEL ack with their usual results.
	v, err = c.Do([]byte("SET"), []byte("x"), []byte("v1"), []byte("SERIAL"), []byte("2"))
	expectSimple(t, v, err, "ACK 2 OK")
	v, err = c.Do([]byte("DEL"), []byte("x"), []byte("SERIAL"), []byte("3"))
	expectSimple(t, v, err, "ACK 3 1")

	// Serials at or below the frontier are fenced; skipping ahead is a
	// protocol error; both leave state untouched.
	v, err = c.Do([]byte("SET"), []byte("x"), []byte("zzz"), []byte("SERIAL"), []byte("2"))
	expectErrContains(t, v, err, "STALE")
	v, err = c.Do([]byte("SET"), []byte("x"), []byte("zzz"), []byte("SERIAL"), []byte("9"))
	expectErrContains(t, v, err, "skips")
	if v, err = c.Do([]byte("GET"), []byte("x")); err != nil || v.Kind != resp.Nil {
		t.Fatalf("fenced serial mutated state: GET x = %+v %v", v, err)
	}

	// Stamped SETs ride the pipelined batch path and ack in order.
	replies, err := c.Pipeline([][][]byte{
		{[]byte("SET"), []byte("a"), []byte("1"), []byte("SERIAL"), []byte("4")},
		{[]byte("GET"), []byte("a")},
		{[]byte("SET"), []byte("b"), []byte("2"), []byte("SERIAL"), []byte("5")},
	})
	if err != nil {
		t.Fatal(err)
	}
	expectSimple(t, replies[0], nil, "ACK 4 OK")
	if replies[1].Kind != resp.BulkString || string(replies[1].Str) != "1" {
		t.Fatalf("batched GET = %+v", replies[1])
	}
	expectSimple(t, replies[2], nil, "ACK 5 OK")
	// Replaying a batch-committed serial works like any other.
	v, err = c.Do([]byte("SET"), []byte("b"), []byte("2"), []byte("SERIAL"), []byte("5"))
	expectSimple(t, v, err, "ACK 5 OK")

	// Protocol guards: stamping requires a bound session, is rejected on
	// reads, and serials must be positive integers.
	fresh := dialT(t, srv)
	v, err = fresh.Do([]byte("SET"), []byte("k"), []byte("v"), []byte("SERIAL"), []byte("1"))
	expectErrContains(t, v, err, "no session bound")
	v, err = c.Do([]byte("GET"), []byte("a"), []byte("x"), []byte("SERIAL"), []byte("6"))
	expectErrContains(t, v, err, "not allowed on reads")
	v, err = c.Do([]byte("SET"), []byte("k"), []byte("v"), []byte("SERIAL"), []byte("0"))
	expectErrContains(t, v, err, "positive integer")
	v, err = c.Do([]byte("SESSION"), []byte("bad guid"))
	expectErrContains(t, v, err, "ERR")

	// Takeover: a reconnecting client re-binds the GUID, learns the
	// committed frontier, and the old connection is fenced out.
	c2 := dialT(t, srv)
	v, err = c2.Do([]byte("SESSION"), []byte("proto-client"))
	if err != nil || v.Kind != resp.Integer || v.Int != 5 {
		t.Fatalf("takeover SESSION = %+v %v, want :5", v, err)
	}
	v, err = c.Do([]byte("SET"), []byte("c"), []byte("3"), []byte("SERIAL"), []byte("6"))
	expectErrContains(t, v, err, "FENCED")
	v, err = c2.Do([]byte("SET"), []byte("c"), []byte("3"), []byte("SERIAL"), []byte("6"))
	expectSimple(t, v, err, "ACK 6 OK")

	// The metrics surface counts the session activity.
	m := srv.Store().Metrics()
	if m.SessionEntries != 1 || m.SessionBinds < 2 || m.SerialReplays < 2 || m.SerialFenced < 3 {
		t.Fatalf("session metrics = entries %d binds %d replays %d fenced %d",
			m.SessionEntries, m.SessionBinds, m.SerialReplays, m.SerialFenced)
	}
}

// TestServerStampedBatchPrefixCommit forces a failure inside a stamped
// batch window and asserts the strict prefix-commit contract: serials
// before the failure ack, the failed serial reports its error, and
// later executed serials reply -RETRY so the client resends them.
func TestServerStampedBatchPrefixCommit(t *testing.T) {
	srv := newTestServer(t, Config{Sessions: 4})
	c := dialT(t, srv)
	if v, err := c.Do([]byte("SESSION"), []byte("prefix-client")); err != nil || v.Int != 0 {
		t.Fatalf("SESSION: %+v %v", v, err)
	}
	// Serial 2 is a duplicate of serial 1 within the same window: it is
	// admitted as STALE (1 <= issued), which rolls the window's commit
	// cursor logic through the non-apply path while 3 still applies.
	replies, err := c.Pipeline([][][]byte{
		{[]byte("SET"), []byte("p1"), []byte("v"), []byte("SERIAL"), []byte("1")},
		{[]byte("SET"), []byte("p2"), []byte("v"), []byte("SERIAL"), []byte("1")},
		{[]byte("SET"), []byte("p3"), []byte("v"), []byte("SERIAL"), []byte("2")},
	})
	if err != nil {
		t.Fatal(err)
	}
	expectSimple(t, replies[0], nil, "ACK 1 OK")
	expectErrContains(t, replies[1], nil, "STALE")
	expectSimple(t, replies[2], nil, "ACK 2 OK")
	// The frontier advanced through both applied serials.
	c2 := dialT(t, srv)
	if v, err := c2.Do([]byte("SESSION"), []byte("prefix-client")); err != nil || v.Int != 2 {
		t.Fatalf("frontier after window = %+v %v, want :2", v, err)
	}
}

// TestServerStampedTimeoutAppliesOnce: a stamped INCRBY whose cold miss
// outlives OpTimeout replies -TIMEOUT and never applies, so the frontier
// stays put and the client's resend of the same serial applies it
// exactly once, even after the slow device read has landed.
func TestServerStampedTimeoutAppliesOnce(t *testing.T) {
	testutil.CheckGoroutines(t)
	srv, ss, faulties := newShardedTestServer(t, 1, Config{OpTimeout: 200 * time.Millisecond})
	c := dialT(t, srv)
	c.Timeout = 5 * time.Second
	if v, err := c.Do([]byte("INCRBY"), []byte("ctr"), []byte("1")); err != nil || v.Int != 1 {
		t.Fatalf("INCRBY ctr 1 = %+v %v", v, err)
	}
	filler := bytes.Repeat([]byte("f"), 512)
	for i := 0; ss.Shard(0).Log().HeadAddress() == 0 || i < 200; i++ {
		if v, err := c.Do([]byte("SET"), []byte(fmt.Sprintf("filler-%d", i)), filler); err != nil || string(v.Str) != "OK" {
			t.Fatalf("filler SET = %+v %v", v, err)
		}
	}
	if v, err := c.Do([]byte("SESSION"), []byte("timeout-client")); err != nil || v.Int != 0 {
		t.Fatalf("SESSION = %+v %v, want :0", v, err)
	}

	faulties[0].InjectLatency(350*time.Millisecond, 0)
	before := ss.Shard(0).Stats().PendingIOs
	v, err := c.Do([]byte("INCRBY"), []byte("ctr"), []byte("5"), []byte("SERIAL"), []byte("1"))
	expectErrContains(t, v, err, "TIMEOUT")
	if ss.Shard(0).Stats().PendingIOs == before {
		t.Fatal("the stamped INCRBY did not miss memory: ctr was not cold")
	}
	if v, err := c.Do([]byte("SESSION"), []byte("timeout-client")); err != nil || v.Int != 0 {
		t.Fatalf("frontier after -TIMEOUT = %+v %v, want :0", v, err)
	}

	// Let the slow read land (and anything that would apply it run), then
	// resend the serial on a device back at full speed.
	time.Sleep(500 * time.Millisecond)
	testutil.WaitUntil(t, 5*time.Second, func() bool { return ss.Shard(0).Metrics().IOInflight == 0 },
		"the shed miss's device read to land")
	faulties[0].InjectLatency(0, 0)
	v, err = c.Do([]byte("INCRBY"), []byte("ctr"), []byte("5"), []byte("SERIAL"), []byte("1"))
	expectSimple(t, v, err, "ACK 1 6")
	if v, err := c.Do([]byte("INCRBY"), []byte("ctr"), []byte("0")); err != nil || v.Int != 6 {
		t.Fatalf("counter = %+v %v, want :6", v, err)
	}
}
