package server

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/faster"
	"repro/internal/resp"
	"repro/internal/testutil"
)

// newBufferedServer opens an n-shard VarLenOps ensemble whose log buffers
// total 16 MiB (1 MiB pages), each shard on its own Mem device, and a
// front-end over it, torn down via t.Cleanup.
func newBufferedServer(t *testing.T, shards int) *Server {
	t.Helper()
	mems := make([]*device.Mem, shards)
	for i := range mems {
		mems[i] = device.NewMem(device.MemConfig{})
	}
	ss, err := faster.OpenSharded(faster.ShardedConfig{
		Shards: shards,
		Base: faster.Config{
			Ops: faster.VarLenOps{}, IndexBuckets: 1 << 12,
			PageBits: 20, BufferPages: 16 / shards, MutableFraction: 0.5,
		},
		NewDevice: func(i int) device.Device { return mems[i] },
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := ListenAndServeSharded(ss, "127.0.0.1:0", Config{})
	if err != nil {
		ss.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		ss.Close()
		for _, m := range mems {
			m.Close()
		}
	})
	return srv
}

// evictAll writes 32 MiB of filler, twice the 16 MiB buffer, so every key
// written before it lives below the head address, on the device only.
func evictAll(t *testing.T, c *resp.Client) {
	t.Helper()
	filler := bytes.Repeat([]byte("f"), 64<<10)
	for batch := 0; batch < 16; batch++ {
		var cmds [][][]byte
		for i := 0; i < 32; i++ {
			cmds = append(cmds, [][]byte{[]byte("SET"), []byte(fmt.Sprintf("filler-%d-%d", batch, i)), filler})
		}
		replies, err := c.Pipeline(cmds)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range replies {
			if string(r.Str) != "OK" {
				t.Fatalf("filler SET = %c %q", r.Kind, r.Str)
			}
		}
	}
}

// TestServerIncrByLinearizable: INCRBY is one RMW, so its reply is the
// value that RMW produced — a linearisation point. Concurrent increments
// of one counter must therefore reply every value from 1 to the total
// exactly once; a reply read back after the update could repeat a later
// value.
func TestServerIncrByLinearizable(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			testutil.CheckGoroutines(t)
			srv, _, _ := newShardedTestServer(t, shards, Config{})
			const clients, perClient, depth = 8, 500, 25
			replies := make([][]int64, clients)
			errs := make(chan error, clients)
			var wg sync.WaitGroup
			for i := 0; i < clients; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					c, err := resp.Dial(srv.Addr())
					if err != nil {
						errs <- err
						return
					}
					defer c.Close()
					c.Timeout = 20 * time.Second
					cmd := [][]byte{[]byte("INCRBY"), []byte("ctr"), []byte("1")}
					for sent := 0; sent < perClient; sent += depth {
						window := make([][][]byte, depth)
						for j := range window {
							window[j] = cmd
						}
						got, err := c.Pipeline(window)
						if err != nil {
							errs <- err
							return
						}
						for _, r := range got {
							if r.Kind != resp.Integer {
								errs <- fmt.Errorf("INCRBY reply %c %q", r.Kind, r.Str)
								return
							}
							replies[i] = append(replies[i], r.Int)
						}
					}
				}(i)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			seen := make([]bool, clients*perClient+1)
			for _, rs := range replies {
				for _, n := range rs {
					if n < 1 || n > int64(len(seen)-1) || seen[n] {
						t.Fatalf("INCRBY replied %d twice or out of range 1..%d", n, len(seen)-1)
					}
					seen[n] = true
				}
			}
			for n := 1; n < len(seen); n++ {
				if !seen[n] {
					t.Fatalf("no INCRBY replied %d", n)
				}
			}
		})
	}
}

// TestServerIncrByColdBlob: an INCRBY on a non-counter value that lives
// only on the device is resolved through the io-worker pool as one RMW,
// refused, and leaves the stored bytes exactly as they were.
func TestServerIncrByColdBlob(t *testing.T) {
	testutil.CheckGoroutines(t)
	srv := newBufferedServer(t, 1)
	c := dialT(t, srv)
	c.Timeout = 20 * time.Second
	blob := []byte("not a number, and 8 bytes is not its length either")
	if v, err := c.Do([]byte("SET"), []byte("blob"), blob); err != nil || string(v.Str) != "OK" {
		t.Fatalf("SET blob: %v %v", v, err)
	}
	evictAll(t, c)
	before := srv.Metrics().IOAsync
	v, err := c.Do([]byte("INCRBY"), []byte("blob"), []byte("1"))
	if err != nil || !v.IsError() || !strings.Contains(string(v.Str), "not an integer") {
		t.Fatalf("INCRBY over cold blob = %c %q %v", v.Kind, v.Str, err)
	}
	if srv.Metrics().IOAsync == before {
		t.Fatal("the INCRBY did not go through the io-pool: the blob was not cold")
	}
	if v, err := c.Do([]byte("GET"), []byte("blob")); err != nil || !bytes.Equal(v.Str, blob) {
		t.Fatalf("blob after refused INCRBY = %q %v, want %q", v.Str, err, blob)
	}
}

// TestServerPipelineMatchesSerial is the guard that single and batched
// execution are one path: one seeded script, sent once a command per
// round trip and once as a single write, must produce byte-identical
// reply streams. The script mixes reads, writes, multi-key DEL, INCRBY
// (including overflow and non-counter values), MGET/MSET, stamped SETs
// and INCRBYs, malformed arities, a value larger than the pooled slot
// buffer, and keys made cold by filling the buffer.
func TestServerPipelineMatchesSerial(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			testutil.CheckGoroutines(t)
			script := windowScript(rand.New(rand.NewSource(int64(shards) + 41)))
			var streams [2][]byte
			for mode, pipelined := range []bool{false, true} {
				srv := newBufferedServer(t, shards)
				preloadWindowKeys(t, srv)
				before := srv.Metrics().IOAsync
				streams[mode] = replyStream(t, srv, script, pipelined)
				if srv.Metrics().IOAsync == before {
					t.Fatalf("pipelined=%v: no command went through the io-pool; the cold keys were not cold", pipelined)
				}
				srv.Close()
			}
			if !bytes.Equal(streams[0], streams[1]) {
				a, b := streams[0], streams[1]
				i := 0
				for i < len(a) && i < len(b) && a[i] == b[i] {
					i++
				}
				lo := max(0, i-200)
				t.Fatalf("reply streams differ at byte %d:\none at a time: %q\npipelined:    %q",
					i, a[lo:min(len(a), i+200)], b[lo:min(len(b), i+200)])
			}
		})
	}
}

// Keys of the window script: hot and cold values, counters and blobs.
var (
	windowKeys = []string{"hot-0", "hot-1", "hot-2", "hot-3", "cold-0", "cold-1",
		"cold-2", "cold-3", "hot-ctr", "cold-ctr", "hot-blob", "cold-blob", "big", "missing"}
	windowCounters = []string{"hot-ctr", "cold-ctr", "hot-blob", "cold-blob", "new-ctr", "cold-0"}
)

// preloadWindowKeys writes the script's cold keys, evicts them, then
// writes its hot keys.
func preloadWindowKeys(t *testing.T, srv *Server) {
	t.Helper()
	c := dialT(t, srv)
	c.Timeout = 20 * time.Second
	do := func(args ...string) {
		t.Helper()
		b := make([][]byte, len(args))
		for i, a := range args {
			b[i] = []byte(a)
		}
		if v, err := c.Do(b...); err != nil || v.IsError() {
			t.Fatalf("%v: %c %q %v", args, v.Kind, v.Str, err)
		}
	}
	for i := 0; i < 4; i++ {
		do("SET", fmt.Sprintf("cold-%d", i), fmt.Sprintf("cold value %d", i))
	}
	do("INCRBY", "cold-ctr", "100")
	do("SET", "cold-blob", "cold blob")
	do("SET", "big", strings.Repeat("B", slotOutBytes+900))
	evictAll(t, c)
	for i := 0; i < 4; i++ {
		do("SET", fmt.Sprintf("hot-%d", i), fmt.Sprintf("hot value %d", i))
	}
	do("INCRBY", "hot-ctr", "7")
	do("SET", "hot-blob", "hot blob")
	do("INCRBY", "ovf", strconv.FormatInt(1<<63-10, 10))
}

// windowScript draws the seeded command script.
func windowScript(rng *rand.Rand) [][][]byte {
	key := func() string { return windowKeys[rng.Intn(len(windowKeys))] }
	cmd := func(args ...string) [][]byte {
		b := make([][]byte, len(args))
		for i, a := range args {
			b[i] = []byte(a)
		}
		return b
	}
	malformed := [][][]byte{cmd("GET"), cmd("GET", "a", "b"), cmd("SET", "k"), cmd("INCRBY", "k", "x"),
		cmd("INCRBY", "k"), cmd("MGET"), cmd("MSET", "k"), cmd("DEL"), cmd("SET", "k", "v", "SERIAL", "0"),
		cmd("GET", "k", "SERIAL", "3")}
	script := [][][]byte{cmd("SESSION", "window-script")}
	serial := 0
	for i := 0; i < 400; i++ {
		switch rng.Intn(12) {
		case 0, 1:
			script = append(script, cmd("GET", key()))
		case 2:
			script = append(script, cmd("SET", key(), fmt.Sprintf("v%d", i)))
		case 3:
			script = append(script, cmd("SET", key(), strings.Repeat("L", slotOutBytes+rng.Intn(3000))))
		case 4:
			args := []string{"DEL"}
			for n := 1 + rng.Intn(3); n > 0; n-- {
				args = append(args, key())
			}
			script = append(script, cmd(args...))
		case 5:
			script = append(script, cmd("INCRBY", windowCounters[rng.Intn(len(windowCounters))], strconv.Itoa(rng.Intn(11)-5)))
		case 6:
			script = append(script, cmd("INCRBY", "ovf", strconv.Itoa(rng.Intn(20))))
		case 7:
			args := []string{"MGET"}
			for n := 1 + rng.Intn(5); n > 0; n-- {
				args = append(args, key())
			}
			script = append(script, cmd(args...))
		case 8:
			args := []string{"MSET"}
			for n := 1 + rng.Intn(3); n > 0; n-- {
				args = append(args, key(), fmt.Sprintf("m%d", i))
			}
			script = append(script, cmd(args...))
		case 9:
			serial++
			if rng.Intn(2) == 0 {
				script = append(script, cmd("SET", key(), fmt.Sprintf("s%d", i), "SERIAL", strconv.Itoa(serial)))
			} else {
				script = append(script, cmd("INCRBY", windowCounters[rng.Intn(len(windowCounters))], "3", "SERIAL", strconv.Itoa(serial)))
			}
		case 10:
			script = append(script, malformed[rng.Intn(len(malformed))])
		default:
			script = append(script, cmd("PING"))
		}
	}
	return script
}

// replyStream sends script over a fresh connection — one command per
// round trip, or all of it in a single write — and returns the raw bytes
// of the replies.
func replyStream(t *testing.T, srv *Server, script [][][]byte, pipelined bool) []byte {
	t.Helper()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(60 * time.Second))
	var raw bytes.Buffer
	r := resp.NewReader(io.TeeReader(conn, &raw))
	var out bytes.Buffer
	w := resp.NewWriter(&out)
	send := func() {
		w.Flush()
		if _, err := conn.Write(out.Bytes()); err != nil {
			t.Error(err)
		}
		out.Reset()
	}
	if pipelined {
		for _, cmd := range script {
			w.WriteCommand(cmd...)
		}
		// Written concurrently with the reads below, so a long script can
		// never wedge both ends on full socket buffers.
		go send()
	}
	for _, cmd := range script {
		if !pipelined {
			w.WriteCommand(cmd...)
			send()
		}
		if _, err := r.ReadReply(); err != nil {
			t.Fatalf("reading replies (pipelined=%v): %v", pipelined, err)
		}
	}
	return raw.Bytes()
}
