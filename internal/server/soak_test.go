package server

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/faster"
	"repro/internal/resp"
	"repro/internal/retry"
	"repro/internal/testutil"
)

// TestServerChaosSoak is the front-end's robustness gate (`make soak`):
// seeded chaos scenarios driven over real TCP connections under -race,
// each asserting the explicit failure contract and zero leaked
// goroutines.
//
//   - stallfree: a cold-key GET and a stamped cold INCRBY park on
//     injected device latency; both must release the single admission
//     token and their pooled sessions to the io-worker pool, so a second
//     client's hot GET completes at full speed while the misses are still
//     in flight, no handler goroutine sits inside the store's pending
//     machinery, and the parked requests still complete correctly out of
//     band (the stamped one with its ACK).
//   - readonly: the device dies mid-run; writes must start failing with
//     -READONLY while resident reads keep succeeding and /healthz goes
//     503.
//   - drain: pipelined clients are killed mid-burst, a slowloris client
//     stalls half-way through a command, and the server is drained;
//     every acknowledged SET must be readable from the store afterwards.
//   - exactlyonce: a flaky-network client drives serial-stamped INCRBYs
//     through connections that die mid-pipeline, resuming each time with
//     SESSION and resending from the server's committed frontier; every
//     seeded run must end with the exact counter value (nothing lost,
//     nothing double-applied).
func TestServerChaosSoak(t *testing.T) {
	t.Run("stallfree", soakStallFree)
	t.Run("readonly", soakReadOnly)
	t.Run("drain", soakDrain)
	t.Run("exactlyonce", soakExactlyOnce)
}

// soakSeeds returns how many seeded exactly-once chaos runs to execute:
// FASTER_EXACTLYONCE_SEEDS (the CI gate sets 100), else a quick default.
func soakSeeds(t *testing.T) int {
	if v := os.Getenv("FASTER_EXACTLYONCE_SEEDS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			t.Fatalf("bad FASTER_EXACTLYONCE_SEEDS %q", v)
		}
		return n
	}
	if testing.Short() {
		return 3
	}
	return 8
}

func soakExactlyOnce(t *testing.T) {
	seeds := soakSeeds(t)
	for seed := 0; seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			testutil.CheckGoroutines(t)
			srv := chaosServer(t)
			rng := rand.New(rand.NewSource(int64(seed)*104729 + 31))
			guid := fmt.Sprintf("chaos-%d", seed)

			const totalOps = 40
			deltas := make([]int64, totalOps+1)
			var want int64
			for i := 1; i <= totalOps; i++ {
				deltas[i] = int64(rng.Intn(9) + 1)
				want += deltas[i]
			}

			// The client loop: connect, resume from the server's committed
			// frontier, push stamped windows, and survive seeded connection
			// kills mid-pipeline. acked is the client's view; the server's
			// frontier (learned on every resume) may be ahead of it when a
			// kill swallowed in-flight acks — that is the lost-ack case the
			// protocol exists for.
			acked := uint64(0)
			for attempt := 0; acked < totalOps; attempt++ {
				if attempt > 200 {
					t.Fatal("chaos client failed to make progress")
				}
				c, err := resp.Dial(srv.Addr())
				if err != nil {
					t.Fatal(err)
				}
				c.Timeout = 10 * time.Second
				v, err := c.Do([]byte("SESSION"), []byte(guid))
				if err != nil || v.Kind != resp.Integer {
					c.Close()
					t.Fatalf("SESSION resume: %+v %v", v, err)
				}
				frontier := uint64(v.Int)
				if frontier < acked {
					c.Close()
					t.Fatalf("recovered frontier %d below client acks %d", frontier, acked)
				}
				acked = frontier

				// Push windows until this connection dies or the run is done.
				for acked < totalOps {
					n := 1 + rng.Intn(6)
					if acked+uint64(n) > totalOps {
						n = int(totalOps - acked)
					}
					cmds := make([][][]byte, 0, n)
					for j := 0; j < n; j++ {
						serial := acked + uint64(j) + 1
						cmds = append(cmds, [][]byte{
							[]byte("INCRBY"), []byte("chaos-ctr"),
							[]byte(strconv.FormatInt(deltas[serial], 10)),
							[]byte("SERIAL"), []byte(strconv.FormatUint(serial, 10)),
						})
					}
					if rng.Intn(4) == 0 {
						// Flaky network: the connection dies while replies are
						// in flight; the server may have committed any prefix
						// of the window.
						go func(die time.Duration) {
							time.Sleep(die)
							c.Conn().Close()
						}(time.Duration(rng.Intn(2)) * time.Millisecond)
						c.Pipeline(cmds)
						break
					}
					replies, err := c.Pipeline(cmds)
					if err != nil {
						break // transport died; resume on a fresh connection
					}
					for j, r := range replies {
						serial := acked + uint64(j) + 1
						wantAck := fmt.Sprintf("ACK %d ", serial)
						if r.Kind != resp.SimpleString || !strings.HasPrefix(string(r.Str), wantAck) {
							t.Fatalf("serial %d reply = %c %q, want +%s...", serial, r.Kind, r.Str, wantAck)
						}
					}
					acked += uint64(n)
				}
				c.Close()
			}

			// The final counter must reflect every delta exactly once.
			c := mustDial(t, srv)
			v, err := c.Do([]byte("INCRBY"), []byte("chaos-ctr"), []byte("0"))
			if err != nil || v.Kind != resp.Integer || v.Int != want {
				t.Fatalf("final counter = %+v %v, want :%d (lost or double-applied ops)", v, err, want)
			}
			if err := srv.Close(); err != nil {
				t.Fatalf("drain: %v", err)
			}
		})
	}
}

// chaosServer opens a Mem-backed VarLenOps store with a server for one
// seeded chaos run, torn down store-after-server via t.Cleanup.
func chaosServer(t *testing.T) *Server {
	t.Helper()
	mem := device.NewMem(device.MemConfig{})
	store, err := faster.Open(faster.Config{
		Ops: faster.VarLenOps{}, IndexBuckets: 1 << 10,
		PageBits: 13, BufferPages: 8, MutableFraction: 0.75,
		Device: mem,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := ListenAndServe(store, "127.0.0.1:0", Config{Sessions: 4})
	if err != nil {
		store.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		store.Close()
		mem.Close()
	})
	return srv
}

// soakStallFree is the stall detector: with one admission token and a
// device serving cold reads 1.5s late, neither a cold-miss GET nor a
// stamped cold INCRBY may hold the token, the session, or any goroutine
// inside the store's pending machinery — hot traffic keeps full speed
// and both misses complete out of band through the io-worker pool.
func soakStallFree(t *testing.T) {
	testutil.CheckGoroutines(t)
	mem := device.NewMem(device.MemConfig{})
	defer mem.Close()
	faulty := device.NewFaulty(mem)
	store, err := faster.Open(faster.Config{
		Ops: faster.VarLenOps{}, IndexBuckets: 1 << 10,
		PageBits: 12, BufferPages: 8, MutableFraction: 0.5,
		Device: faulty,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	// Fill past the resident region so early keys are evicted to the
	// device, then find one that actually reads cold (Pending). The
	// counter is written first, so it is evicted whenever that key is.
	const keys = 400
	val := func(i int) []byte { return []byte(fmt.Sprintf("cold-val-%03d-%s", i, strings.Repeat("x", 40))) }
	sess := store.StartSession()
	ctrKey := []byte("cold-ctr")
	if st, err := sess.Upsert(ctrKey, faster.VarLenEncode([]byte{1, 0, 0, 0, 0, 0, 0, 0})); st != faster.OK {
		t.Fatalf("counter fill: %v %v", st, err)
	}
	for i := 0; i < keys; i++ {
		if st, err := sess.Upsert([]byte(fmt.Sprintf("cold-%03d", i)), faster.VarLenEncode(val(i))); st != faster.OK {
			t.Fatalf("fill %d: %v %v", i, st, err)
		}
	}
	var coldKey []byte
	coldIdx := -1
	out := make([]byte, 8+128)
	for i := 0; i < keys; i++ {
		key := []byte(fmt.Sprintf("cold-%03d", i))
		st, err := sess.Read(key, nil, out, nil)
		if st == faster.Pending {
			if _, err := sess.CompletePendingTimeout(5 * time.Second); err != nil {
				t.Fatal(err)
			}
			coldKey, coldIdx = key, i
			break
		}
		if st != faster.OK || err != nil {
			t.Fatalf("probe %d: %v %v", i, st, err)
		}
	}
	sess.Close()
	if coldIdx < 0 {
		t.Fatal("no key was evicted; shrink the buffer")
	}

	srv, err := ListenAndServe(store, "127.0.0.1:0", Config{
		Sessions: 2, MaxInFlight: 1, OpTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Park a cold read on a device that now answers 1.5 seconds late.
	faulty.InjectLatency(1500*time.Millisecond, 0)
	conn1, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn1.Close()
	w1, r1 := resp.NewWriter(conn1), resp.NewReader(conn1)
	w1.WriteCommand([]byte("GET"), coldKey)
	if err := w1.Flush(); err != nil {
		t.Fatal(err)
	}
	testutil.WaitUntil(t, 5*time.Second,
		func() bool { return srv.Metrics().IOAsync > 0 },
		"cold GET to be re-routed through the io-worker pool")
	// IOAsync counts the hand-off; the miss is in flight only once an
	// io-worker has issued it to the device.
	testutil.WaitUntil(t, 5*time.Second,
		func() bool { return store.Metrics().IOInflight > 0 },
		"an io-worker to issue the cold GET to the device")

	// Park a stamped cold INCRBY beside it on a bound connection: its
	// serial window stays open across the miss, but the token and session
	// go back like any other window's.
	conn3, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn3.Close()
	conn3.SetReadDeadline(time.Now().Add(10 * time.Second))
	w3, r3 := resp.NewWriter(conn3), resp.NewReader(conn3)
	w3.WriteCommand([]byte("SESSION"), []byte("stallfree"))
	if err := w3.Flush(); err != nil {
		t.Fatal(err)
	}
	if v, err := r3.ReadReply(); err != nil || v.Kind != resp.Integer || v.Int != 0 {
		t.Fatalf("SESSION = %+v %v, want :0", v, err)
	}
	issued := store.Stats().PendingIOs
	w3.WriteCommand([]byte("INCRBY"), ctrKey, []byte("1"), []byte("SERIAL"), []byte("1"))
	if err := w3.Flush(); err != nil {
		t.Fatal(err)
	}
	testutil.WaitUntil(t, 5*time.Second,
		func() bool { return store.Stats().PendingIOs > issued },
		"the stamped INCRBY's miss to reach the device")

	// The stall detector proper: while the misses are in flight, no server
	// handler goroutine may be inside the store's pending-completion or
	// device machinery — the wait happens on a channel, with the session
	// and admission token already back in their pools.
	stacks := make([]byte, 1<<20)
	stacks = stacks[:runtime.Stack(stacks, true)]
	for _, g := range strings.Split(string(stacks), "\n\n") {
		if !strings.Contains(g, "internal/server.") {
			continue
		}
		if strings.Contains(g, "CompletePending") || strings.Contains(g, "internal/device.") {
			t.Fatalf("handler goroutine blocked in store I/O machinery:\n%s", g)
		}
	}

	// Hot traffic keeps full speed: the single admission token must be
	// free, so a resident-key GET on a second connection completes while
	// both cold misses are still parked on the slow device.
	c2, err := resp.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	c2.Timeout = 5 * time.Second
	hotKey := []byte(fmt.Sprintf("cold-%03d", keys-1)) // tail of the log: resident
	v, err := c2.Do([]byte("GET"), hotKey)
	if err != nil {
		t.Fatal(err)
	}
	if v.Kind != resp.BulkString || !bytes.Equal(v.Str, val(keys-1)) {
		t.Fatalf("hot GET under cold miss = %q (%c), want %q", v.Str, v.Kind, val(keys-1))
	}
	if fm := store.Metrics(); fm.IOInflight < 2 {
		t.Fatalf("hot GET did not overlap both cold misses (io_inflight=%d, io_delivered=%d)", fm.IOInflight, fm.IODelivered)
	}

	// The parked requests complete correctly once the device delivers.
	conn1.SetReadDeadline(time.Now().Add(10 * time.Second))
	got, err := r1.ReadReply()
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != resp.BulkString || !bytes.Equal(got.Str, val(coldIdx)) {
		t.Fatalf("cold GET = %q (%c), want %q", got.Str, got.Kind, val(coldIdx))
	}
	if got, err := r3.ReadReply(); err != nil || got.Kind != resp.SimpleString || string(got.Str) != "ACK 1 2" {
		t.Fatalf("stamped cold INCRBY = %c %q %v, want +ACK 1 2", got.Kind, got.Str, err)
	}
	if m := srv.Metrics(); m.IOShedTimeouts != 0 || m.IOShedQueueFull != 0 {
		t.Fatalf("unexpected sheds: %+v", m)
	}
	if h := store.Health(); h != faster.Healthy {
		t.Fatalf("health = %v after a slow (not failing) device, want Healthy", h)
	}

	faulty.InjectLatency(0, 0)
	if err := srv.Close(); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

func soakReadOnly(t *testing.T) {
	testutil.CheckGoroutines(t)
	mem := device.NewMem(device.MemConfig{})
	defer mem.Close()
	faulty := device.NewFaulty(mem)
	store, err := faster.Open(faster.Config{
		Ops: faster.VarLenOps{}, IndexBuckets: 1 << 10,
		PageBits: 12, BufferPages: 8, MutableFraction: 0.5,
		Device:     faulty,
		WriteRetry: retry.Policy{MaxAttempts: 2, BaseDelay: time.Millisecond},
		ReadRetry:  retry.Policy{MaxAttempts: 2, BaseDelay: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	srv, err := ListenAndServe(store, "127.0.0.1:0", Config{Sessions: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := mustDial(t, srv)

	// A hot key written and confirmed while healthy.
	if v, err := c.Do([]byte("SET"), []byte("hot"), []byte("alive")); err != nil || v.Kind != resp.SimpleString {
		t.Fatalf("hot SET: %v %v", v, err)
	}
	if v, err := c.Do([]byte("GET"), []byte("hot")); err != nil || string(v.Str) != "alive" {
		t.Fatalf("hot GET: %v %v", v, err)
	}

	// Kill the device mid-run and keep writing until the health ladder
	// surfaces as -READONLY on the wire.
	faulty.BreakPermanently()
	payload := bytes.Repeat([]byte("z"), 128)
	sawReadOnly := false
	deadline := time.Now().Add(15 * time.Second)
	for i := 0; !sawReadOnly; i++ {
		if time.Now().After(deadline) {
			t.Fatalf("no -READONLY after %d writes; health=%v", i, store.Health())
		}
		v, err := c.Do([]byte("SET"), []byte(fmt.Sprintf("fill-%05d", i)), payload)
		if err != nil {
			t.Fatalf("write %d transport error: %v", i, err)
		}
		if v.IsError() && strings.Contains(string(v.Str), "READONLY") {
			sawReadOnly = true
		}
	}

	// Reads of the resident region keep serving.
	v, err := c.Do([]byte("GET"), []byte("hot"))
	if err != nil || v.Kind != resp.BulkString || string(v.Str) != "alive" {
		t.Fatalf("resident GET under READONLY = %q %v", v.Str, err)
	}
	if got := srv.Metrics().ReadonlyRejects; got == 0 {
		t.Fatal("ReadonlyRejects not counted")
	}

	// The readiness probe pulls the node out of rotation.
	admin := httptest.NewServer(srv.AdminHandler())
	defer admin.Close()
	res, err := admin.Client().Get(admin.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != 503 {
		t.Fatalf("healthz under READONLY = %d, want 503", res.StatusCode)
	}

	if err := srv.Close(); err != nil {
		t.Fatalf("drain with dead device: %v", err)
	}
}

func soakDrain(t *testing.T) {
	testutil.CheckGoroutines(t)
	mem := device.NewMem(device.MemConfig{})
	defer mem.Close()
	store, err := faster.Open(faster.Config{
		Ops: faster.VarLenOps{}, IndexBuckets: 1 << 12,
		PageBits: 14, BufferPages: 16, MutableFraction: 0.75,
		Device: mem,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	srv, err := ListenAndServe(store, "127.0.0.1:0", Config{
		Sessions: 4, ReadTimeout: 200 * time.Millisecond,
		IdleTimeout: 10 * time.Second, DrainTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Acked SETs: key -> value for every +OK reply actually read back by
	// a client. The drain contract is that each survives in the store.
	var (
		ackMu sync.Mutex
		acked = map[string]string{}
	)

	const (
		workers = 6
		iters   = 30
		burst   = 10
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(0x50AC + int64(w)))
			killer := w >= workers-2 // the last two die mid-pipeline
			killAt := -1
			if killer {
				killAt = 5 + rng.Intn(iters-10)
			}
			c, err := resp.Dial(srv.Addr())
			if err != nil {
				return
			}
			defer c.Close()
			c.Timeout = 5 * time.Second
			for i := 0; i < iters; i++ {
				cmds := make([][][]byte, 0, burst)
				keys := make([]string, 0, burst)
				vals := make([]string, 0, burst)
				for j := 0; j < burst; j++ {
					k := fmt.Sprintf("w%d-i%d-j%d", w, i, j)
					v := fmt.Sprintf("v-%d-%d-%d-%d", w, i, j, rng.Int63())
					keys, vals = append(keys, k), append(vals, v)
					cmds = append(cmds, [][]byte{[]byte("SET"), []byte(k), []byte(v)})
				}
				if killer && i == killAt {
					// Die mid-pipeline: the connection is torn down while
					// replies are in flight, so nothing from this burst is
					// acked (and the server must just clean up).
					go func() {
						time.Sleep(time.Duration(rng.Intn(3)) * time.Millisecond)
						c.Conn().Close()
					}()
					c.Pipeline(cmds)
					return
				}
				replies, err := c.Pipeline(cmds)
				if err != nil {
					return
				}
				ackMu.Lock()
				for j, r := range replies {
					if r.Kind == resp.SimpleString {
						acked[keys[j]] = vals[j]
					}
				}
				ackMu.Unlock()
			}
		}(w)
	}

	// A slowloris client: half a command, then silence. It must be
	// evicted by the per-read deadline, not pin a handler until the
	// drain.
	stall, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer stall.Close()
	if _, err := stall.Write([]byte("*3\r\n$3\r\nSET\r\n$9\r\nstall-key\r\n$5\r\nhe")); err != nil {
		t.Fatal(err)
	}
	testutil.WaitUntil(t, 5*time.Second,
		func() bool { return srv.Metrics().DeadlineEvictions > 0 },
		"slowloris client to be evicted")

	wg.Wait()
	if err := srv.Close(); err != nil {
		t.Fatalf("graceful drain: %v", err)
	}
	m := srv.Metrics()
	if m.ConnsActive != 0 {
		t.Fatalf("%d connections still tracked after drain", m.ConnsActive)
	}

	// Every acknowledged write must be readable straight from the store.
	sess := store.StartSession()
	defer sess.Close()
	out := make([]byte, 8+256)
	checked := 0
	for k, want := range acked {
		st, err := sess.Read([]byte(k), nil, out, nil)
		if st == faster.Pending {
			results, derr := sess.CompletePendingTimeout(5 * time.Second)
			if derr != nil || len(results) != 1 {
				t.Fatalf("read %q stalled: %v", k, derr)
			}
			st, err = results[0].Status, results[0].Err
		}
		if st != faster.OK || err != nil {
			t.Fatalf("acked key %q lost: %v %v", k, st, err)
		}
		got, ok := faster.VarLenDecode(out)
		if !ok || string(got) != want {
			t.Fatalf("acked key %q = %q, want %q", k, got, want)
		}
		checked++
	}
	if checked < workers/2*iters*burst {
		t.Fatalf("only %d acked writes to verify; chaos killed too much", checked)
	}
}

func mustDial(t *testing.T, srv *Server) *resp.Client {
	t.Helper()
	c, err := resp.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	c.Timeout = 10 * time.Second
	return c
}
