package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/faster"
	"repro/internal/resp"
	"repro/internal/retry"
	"repro/internal/testutil"
)

// newShardedTestServer opens an n-shard VarLenOps ensemble, each shard
// on its own Faulty(Mem) device, and a cluster-aware front-end on a
// loopback port. The Faulty handles are returned unseeded so tests can
// poison individual shards.
func newShardedTestServer(t *testing.T, n int, cfg Config) (*Server, *faster.ShardedStore, []*device.Faulty) {
	t.Helper()
	mems := make([]*device.Mem, n)
	faulties := make([]*device.Faulty, n)
	for i := range mems {
		mems[i] = device.NewMem(device.MemConfig{})
		faulties[i] = device.NewFaulty(mems[i])
	}
	ss, err := faster.OpenSharded(faster.ShardedConfig{
		Shards: n,
		Base: faster.Config{
			Ops: faster.VarLenOps{}, IndexBuckets: 1 << 10,
			PageBits: 12, BufferPages: 8, MutableFraction: 0.5,
			WriteRetry: retry.Policy{MaxAttempts: 2, BaseDelay: time.Millisecond},
			ReadRetry:  retry.Policy{MaxAttempts: 2, BaseDelay: time.Millisecond},
		},
		NewDevice: func(i int) device.Device { return faulties[i] },
	})
	if err != nil {
		for _, m := range mems {
			m.Close()
		}
		t.Fatal(err)
	}
	srv, err := ListenAndServeSharded(ss, "127.0.0.1:0", cfg)
	if err != nil {
		ss.Close()
		for _, m := range mems {
			m.Close()
		}
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		ss.Close()
		for _, m := range mems {
			m.Close()
		}
	})
	return srv, ss, faulties
}

// shardKeys returns one key per shard, probing a deterministic name
// space until every shard is covered.
func shardKeys(t *testing.T, ss *faster.ShardedStore) [][]byte {
	t.Helper()
	keys := make([][]byte, ss.NumShards())
	found := 0
	for i := 0; found < len(keys) && i < 10000; i++ {
		k := []byte(fmt.Sprintf("probe-%04d", i))
		if sh := ss.ShardFor(k); keys[sh] == nil {
			keys[sh] = k
			found++
		}
	}
	if found < len(keys) {
		t.Fatalf("probe space covered only %d/%d shards", found, len(keys))
	}
	return keys
}

// TestServerShardedRoundTrips drives the cluster front-end over four
// shards: single ops and pipelined windows spanning every shard come
// back correct and in order.
func TestServerShardedRoundTrips(t *testing.T) {
	testutil.CheckGoroutines(t)
	srv, ss, _ := newShardedTestServer(t, 4, Config{Sessions: 4})
	c := dialT(t, srv)

	// Enough keys that every shard owns several.
	owned := make([]int, 4)
	for i := 0; i < 64; i++ {
		k := []byte(fmt.Sprintf("rt-%03d", i))
		owned[ss.ShardFor(k)]++
		want := fmt.Sprintf("val-%03d", i)
		if v, err := c.Do([]byte("SET"), k, []byte(want)); err != nil || string(v.Str) != "OK" {
			t.Fatalf("SET %s: %v %v", k, v, err)
		}
	}
	for sh, n := range owned {
		if n == 0 {
			t.Fatalf("shard %d owns no test keys (distribution %v)", sh, owned)
		}
	}
	for i := 0; i < 64; i++ {
		k := []byte(fmt.Sprintf("rt-%03d", i))
		want := fmt.Sprintf("val-%03d", i)
		if v, err := c.Do([]byte("GET"), k); err != nil || string(v.Str) != want {
			t.Fatalf("GET %s = %q %v, want %q", k, v.Str, err, want)
		}
	}

	// Counters and deletes route like everything else.
	if v, err := c.Do([]byte("INCRBY"), []byte("rt-ctr"), []byte("7")); err != nil || v.Int != 7 {
		t.Fatalf("INCRBY: %+v %v", v, err)
	}
	if v, err := c.Do([]byte("DEL"), []byte("rt-000"), []byte("rt-001")); err != nil || v.Int != 2 {
		t.Fatalf("DEL: %+v %v", v, err)
	}

	// A pipelined window spanning shards executes as concurrent
	// per-shard sub-batches and rejoins in command order.
	var window [][][]byte
	for i := 2; i < 34; i++ {
		k := []byte(fmt.Sprintf("rt-%03d", i))
		if i%2 == 0 {
			window = append(window, [][]byte{[]byte("SET"), k, []byte(fmt.Sprintf("w-%03d", i))})
		} else {
			window = append(window, [][]byte{[]byte("GET"), k})
		}
	}
	replies, err := c.Pipeline(window)
	if err != nil {
		t.Fatal(err)
	}
	for j, v := range replies {
		i := j + 2
		if i%2 == 0 {
			if string(v.Str) != "OK" {
				t.Fatalf("window slot %d (SET rt-%03d) = %+v", j, i, v)
			}
		} else if want := fmt.Sprintf("val-%03d", i); string(v.Str) != want {
			t.Fatalf("window slot %d (GET rt-%03d) = %q, want %q", j, i, v.Str, want)
		}
	}
}

// TestServerShardedMGetMSet exercises the explicit multi-key window
// commands across shards: MSET fans writes out, MGET rejoins reads in
// key order with nils for misses.
func TestServerShardedMGetMSet(t *testing.T) {
	testutil.CheckGoroutines(t)
	srv, _, _ := newShardedTestServer(t, 4, Config{Sessions: 4})
	c := dialT(t, srv)

	args := [][]byte{[]byte("MSET")}
	for i := 0; i < 16; i++ {
		args = append(args, []byte(fmt.Sprintf("mk-%02d", i)), []byte(fmt.Sprintf("mv-%02d", i)))
	}
	if v, err := c.Do(args...); err != nil || string(v.Str) != "OK" {
		t.Fatalf("MSET: %+v %v", v, err)
	}

	get := [][]byte{[]byte("MGET")}
	for i := 0; i < 16; i++ {
		get = append(get, []byte(fmt.Sprintf("mk-%02d", i)))
		get = append(get, []byte(fmt.Sprintf("missing-%02d", i)))
	}
	v, err := c.Do(get...)
	if err != nil || v.Kind != resp.Array || len(v.Elems) != 32 {
		t.Fatalf("MGET = %+v %v, want 32-element array", v, err)
	}
	for i := 0; i < 16; i++ {
		hit, miss := v.Elems[2*i], v.Elems[2*i+1]
		if want := fmt.Sprintf("mv-%02d", i); string(hit.Str) != want {
			t.Fatalf("MGET slot %d = %q, want %q", 2*i, hit.Str, want)
		}
		if miss.Kind != resp.Nil {
			t.Fatalf("MGET miss slot %d = %+v, want nil", 2*i+1, miss)
		}
	}

	// Arity and bounds validation.
	if v, _ := c.Do([]byte("MGET")); !v.IsError() {
		t.Fatalf("bare MGET accepted: %+v", v)
	}
	if v, _ := c.Do([]byte("MSET"), []byte("k")); !v.IsError() {
		t.Fatalf("odd MSET accepted: %+v", v)
	}
	big := [][]byte{[]byte("MGET")}
	for i := 0; i < maxWindowCmds+1; i++ {
		big = append(big, []byte(fmt.Sprintf("b-%d", i)))
	}
	if v, _ := c.Do(big...); !v.IsError() || !strings.Contains(string(v.Str), "at most") {
		t.Fatalf("oversized MGET accepted: %+v", v)
	}
}

// TestServerShardedHealthIsolation poisons one shard's device and
// asserts the cluster health contract: the sick shard's keys degrade to
// -READONLY/-FAILED while sibling shards keep full read-write service
// on the same connection, and the admin surface names the sick shard.
func TestServerShardedHealthIsolation(t *testing.T) {
	testutil.CheckGoroutines(t)
	srv, ss, faulties := newShardedTestServer(t, 2, Config{Sessions: 4})
	c := dialT(t, srv)
	probes := shardKeys(t, ss)

	// Both shards serve while healthy.
	for sh, k := range probes {
		if v, err := c.Do([]byte("SET"), k, []byte("alive")); err != nil || string(v.Str) != "OK" {
			t.Fatalf("healthy SET on shard %d: %+v %v", sh, v, err)
		}
	}

	// Kill shard 1's device and hammer shard-1 keys until its health
	// ladder surfaces on the wire.
	faulties[1].BreakPermanently()
	payload := bytes.Repeat([]byte("z"), 128)
	sawDegraded := false
	deadline := time.Now().Add(15 * time.Second)
	for i := 0; !sawDegraded; i++ {
		if time.Now().After(deadline) {
			t.Fatalf("shard 1 never degraded after %d writes; health=%v", i, ss.ShardHealth(1))
		}
		k := []byte(fmt.Sprintf("fill-%05d", i))
		if ss.ShardFor(k) != 1 {
			continue
		}
		v, err := c.Do([]byte("SET"), k, payload)
		if err != nil {
			t.Fatalf("write %d transport error: %v", i, err)
		}
		if v.IsError() && (strings.Contains(string(v.Str), "READONLY") ||
			strings.Contains(string(v.Str), "FAILED")) {
			sawDegraded = true
		}
	}

	// The sibling keeps full service on the very same connection: shard
	// 0 accepts writes and serves reads, and its ladder stays green.
	if v, err := c.Do([]byte("SET"), probes[0], []byte("still-writable")); err != nil || string(v.Str) != "OK" {
		t.Fatalf("healthy shard write after sibling degraded: %+v %v", v, err)
	}
	if v, err := c.Do([]byte("GET"), probes[0]); err != nil || string(v.Str) != "still-writable" {
		t.Fatalf("healthy shard read after sibling degraded: %+v %v", v, err)
	}
	if h := ss.ShardHealth(0); h != faster.Healthy {
		t.Fatalf("shard 0 health = %v, want Healthy (isolation failed)", h)
	}

	// The admin surface reports the per-shard ladder: aggregate not
	// ready, but the body names which shard is sick and how many serve.
	admin := httptest.NewServer(srv.AdminHandler())
	defer admin.Close()
	res, err := admin.Client().Get(admin.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		Shards        int      `json:"shards"`
		ShardHealth   []string `json:"shard_health"`
		ShardsServing int      `json:"shards_serving"`
	}
	derr := json.NewDecoder(res.Body).Decode(&body)
	res.Body.Close()
	if derr != nil {
		t.Fatal(derr)
	}
	if res.StatusCode != 503 {
		t.Fatalf("healthz with a sick shard = %d, want 503", res.StatusCode)
	}
	if body.Shards != 2 || len(body.ShardHealth) != 2 || body.ShardsServing != 1 {
		t.Fatalf("healthz shard detail = %+v, want 2 shards with 1 serving", body)
	}
	if body.ShardHealth[0] != faster.Healthy.String() {
		t.Fatalf("healthz reports shard 0 as %q, want healthy", body.ShardHealth[0])
	}
}

// TestServerShardedSessionProtocol drives SESSION/SERIAL across shards:
// serials scatter over the per-shard tables, the connection's token
// orders the whole stream, stamped batch windows span shards, and a
// re-binding takeover recovers the max-acked frontier.
func TestServerShardedSessionProtocol(t *testing.T) {
	testutil.CheckGoroutines(t)
	srv, _, _ := newShardedTestServer(t, 4, Config{Sessions: 4})
	c := dialT(t, srv)

	if v, err := c.Do([]byte("SESSION"), []byte("cluster-client")); err != nil || v.Int != 0 {
		t.Fatalf("SESSION = %+v %v, want :0", v, err)
	}

	// Serials 1..8 on distinct keys scatter over the shards' serial
	// tables; each must ack.
	for serial := 1; serial <= 8; serial++ {
		k := []byte(fmt.Sprintf("sk-%02d", serial))
		v, err := c.Do([]byte("SET"), k, []byte("v"), []byte("SERIAL"),
			[]byte(fmt.Sprintf("%d", serial)))
		expectSimple(t, v, err, fmt.Sprintf("ACK %d OK", serial))
	}

	// Re-delivering the newest serial replays its saved reply from its
	// shard's table without re-executing.
	v, err := c.Do([]byte("SET"), []byte("sk-08"), []byte("v"), []byte("SERIAL"), []byte("8"))
	expectSimple(t, v, err, "ACK 8 OK")

	// The token checks the whole stream: skipping ahead is rejected
	// without touching a table...
	v, err = c.Do([]byte("SET"), []byte("sk-20"), []byte("v"), []byte("SERIAL"), []byte("20"))
	expectErrContains(t, v, err, "skips")
	// ...and the next in-order serial still applies cleanly.
	v, err = c.Do([]byte("SET"), []byte("sk-09"), []byte("v"), []byte("SERIAL"), []byte("9"))
	expectSimple(t, v, err, "ACK 9 OK")

	// A stamped pipeline window spanning shards acks its serial run in
	// order through the per-shard windows.
	replies, err := c.Pipeline([][][]byte{
		{[]byte("SET"), []byte("sw-a"), []byte("1"), []byte("SERIAL"), []byte("10")},
		{[]byte("GET"), []byte("sk-09")},
		{[]byte("SET"), []byte("sw-b"), []byte("2"), []byte("SERIAL"), []byte("11")},
		{[]byte("SET"), []byte("sw-c"), []byte("3"), []byte("SERIAL"), []byte("12")},
	})
	if err != nil {
		t.Fatal(err)
	}
	expectSimple(t, replies[0], nil, "ACK 10 OK")
	if string(replies[1].Str) != "v" {
		t.Fatalf("windowed GET = %+v", replies[1])
	}
	expectSimple(t, replies[2], nil, "ACK 11 OK")
	expectSimple(t, replies[3], nil, "ACK 12 OK")

	// A window that skips ahead resolves the gap slot without touching
	// the store while in-order siblings still commit.
	replies, err = c.Pipeline([][][]byte{
		{[]byte("SET"), []byte("sw-d"), []byte("4"), []byte("SERIAL"), []byte("13")},
		{[]byte("SET"), []byte("sw-gap"), []byte("5"), []byte("SERIAL"), []byte("30")},
		{[]byte("SET"), []byte("sw-e"), []byte("6"), []byte("SERIAL"), []byte("14")},
	})
	if err != nil {
		t.Fatal(err)
	}
	expectSimple(t, replies[0], nil, "ACK 13 OK")
	expectErrContains(t, replies[1], nil, "skips")
	expectSimple(t, replies[2], nil, "ACK 14 OK")
	if v, err := c.Do([]byte("GET"), []byte("sw-gap")); err != nil || v.Kind != resp.Nil {
		t.Fatalf("gap serial mutated state: %+v %v", v, err)
	}

	// Takeover: the frontier is the max acked serial across shards.
	c2 := dialT(t, srv)
	if v, err := c2.Do([]byte("SESSION"), []byte("cluster-client")); err != nil || v.Int != 14 {
		t.Fatalf("takeover SESSION = %+v %v, want :14", v, err)
	}
	v, err = c.Do([]byte("SET"), []byte("sk-15"), []byte("v"), []byte("SERIAL"), []byte("15"))
	expectErrContains(t, v, err, "FENCED")
	v, err = c2.Do([]byte("SET"), []byte("sk-15"), []byte("v"), []byte("SERIAL"), []byte("15"))
	expectSimple(t, v, err, "ACK 15 OK")

	// A stamped DEL is a single-key operation on a cluster.
	v, err = c2.Do([]byte("DEL"), []byte("sk-01"), []byte("sk-02"), []byte("SERIAL"), []byte("16"))
	expectErrContains(t, v, err, "exactly one key")
	v, err = c2.Do([]byte("DEL"), []byte("sk-01"), []byte("SERIAL"), []byte("16"))
	expectSimple(t, v, err, "ACK 16 1")
}

// TestServerShardedStaleSerialOtherShard re-delivers an acknowledged
// serial with a key on another shard than the serials before it (any
// other key at one shard): the connection must refuse it -STALE without
// writing, and the stream must go on at the next serial.
func TestServerShardedStaleSerialOtherShard(t *testing.T) {
	for _, n := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			testutil.CheckGoroutines(t)
			srv, ss, _ := newShardedTestServer(t, n, Config{Sessions: 2})
			c := dialT(t, srv)
			a, b := []byte("a"), []byte("b")
			for i := 0; n > 1 && ss.ShardFor(b) == ss.ShardFor(a); i++ {
				b = []byte(fmt.Sprintf("b%d", i))
			}

			if v, err := c.Do([]byte("SESSION"), []byte("g")); err != nil || v.Int != 0 {
				t.Fatalf("SESSION = %+v %v, want :0", v, err)
			}
			v, err := c.Do([]byte("SET"), a, []byte("v"), []byte("SERIAL"), []byte("1"))
			expectSimple(t, v, err, "ACK 1 OK")
			v, err = c.Do([]byte("SET"), a, []byte("v"), []byte("SERIAL"), []byte("2"))
			expectSimple(t, v, err, "ACK 2 OK")
			v, err = c.Do([]byte("SET"), b, []byte("x"), []byte("SERIAL"), []byte("1"))
			expectErrContains(t, v, err, "STALE")
			if v, err := c.Do([]byte("GET"), b); err != nil || v.Kind != resp.Nil {
				t.Fatalf("stale serial wrote %q: %+v %v", b, v, err)
			}
			v, err = c.Do([]byte("SET"), a, []byte("v"), []byte("SERIAL"), []byte("3"))
			expectSimple(t, v, err, "ACK 3 OK")
		})
	}
}
