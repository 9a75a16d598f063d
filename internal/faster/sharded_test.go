package faster

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/hlog"
	"repro/internal/index"
	"repro/internal/testutil"
)

// openTestSharded opens an n-shard store over fresh Mem devices; the
// devices are returned so recovery tests can reopen the same contents.
func openTestSharded(t testing.TB, n int, base Config) (*ShardedStore, []*device.Mem) {
	t.Helper()
	devs := make([]*device.Mem, n)
	for i := range devs {
		devs[i] = device.NewMem(device.MemConfig{})
	}
	t.Cleanup(func() {
		for _, d := range devs {
			d.Close()
		}
	})
	ss, err := OpenSharded(shardedTestConfig(n, base, devs))
	if err != nil {
		t.Fatal(err)
	}
	return ss, devs
}

func shardedTestConfig(n int, base Config, devs []*device.Mem) ShardedConfig {
	if base.Ops == nil {
		base.Ops = SumOps{}
	}
	if base.PageBits == 0 {
		base.PageBits = 12
	}
	if base.BufferPages == 0 {
		base.BufferPages = 8
	}
	if base.IndexBuckets == 0 {
		base.IndexBuckets = 1 << 9
	}
	return ShardedConfig{
		Shards:    n,
		Base:      base,
		NewDevice: func(i int) device.Device { return devs[i] },
	}
}

func TestShardedRoutingDeterministic(t *testing.T) {
	testutil.CheckGoroutines(t)
	const keys = 400_000
	const tags = 1 << index.MaxTagBits
	for _, n := range []int{4, 16} {
		ss, _ := openTestSharded(t, n, Config{})
		defer ss.Close()
		count := make([]int, n)
		tagSeen := make([][]bool, n)
		for sh := range tagSeen {
			tagSeen[sh] = make([]bool, tags)
		}
		for i := uint64(0); i < keys; i++ {
			k := key(i)
			sh := ss.ShardFor(k)
			if sh < 0 || sh >= n {
				t.Fatalf("%d shards: key %d routed to shard %d", n, i, sh)
			}
			count[sh]++
			tagSeen[sh][hashKey(k)>>(64-index.MaxTagBits)] = true
		}
		// Balance: each shard holds its share of the keys to within 2 %.
		mean := float64(keys) / float64(n)
		for sh, c := range count {
			if dev := float64(c)/mean - 1; dev < -0.02 || dev > 0.02 {
				t.Fatalf("%d shards: shard %d holds %d keys, %+.1f%% off the mean %.0f", n, sh, c, 100*dev, mean)
			}
		}
		// Tag space: the shard must not pick its keys by the hash bits the
		// index uses as the tag, or every key of a shard shares a slice of
		// the tag space and tags stop telling keys apart. Each shard must
		// cover 95 % of the distinct tags its key count draws uniformly.
		for sh, seen := range tagSeen {
			distinct := 0
			for _, ok := range seen {
				if ok {
					distinct++
				}
			}
			want := tags * (1 - math.Pow(1-1.0/tags, float64(count[sh])))
			if float64(distinct) < 0.95*want {
				t.Fatalf("%d shards: shard %d covers %d tag values, want at least 95%% of %.0f", n, sh, distinct, want)
			}
		}
	}
	// Routing is a pure function of the shard count: a second store
	// must route identically, or recovery would scatter keys.
	ss, _ := openTestSharded(t, 4, Config{})
	defer ss.Close()
	ss2, _ := openTestSharded(t, 4, Config{})
	defer ss2.Close()
	for i := uint64(0); i < 256; i++ {
		if a, b := ss.ShardFor(key(i)), ss2.ShardFor(key(i)); a != b {
			t.Fatalf("key %d routes to %d in one store, %d in another", i, a, b)
		}
	}
}

func TestShardedBasicOpsAndBatch(t *testing.T) {
	testutil.CheckGoroutines(t)
	ss, _ := openTestSharded(t, 4, Config{})
	defer ss.Close()

	sess := ss.StartSession()
	defer sess.Close()

	const n = 400
	for i := uint64(1); i <= n; i++ {
		if st, err := sess.Upsert(key(i), u64(i*10)); st != OK || err != nil {
			t.Fatalf("upsert %d: %v %v", i, st, err)
		}
	}
	for i := uint64(1); i <= n; i++ {
		out := make([]byte, 8)
		st, err := sess.Read(key(i), nil, out, nil)
		if st == Pending {
			for _, res := range sess.CompletePending(true) {
				st = res.Status
				if res.Output != nil {
					copy(out, res.Output)
				}
			}
		}
		if st != OK || err != nil {
			t.Fatalf("read %d: %v %v", i, st, err)
		}
		if got := leU64(out); got != i*10 {
			t.Fatalf("read %d = %d, want %d", i, got, i*10)
		}
	}

	// Mixed multi-shard batch window: RMW every key, read half, delete a
	// few — statuses and outputs must rejoin in the caller's slots.
	ops := make([]BatchOp, 0, 64)
	outs := make(map[int][]byte)
	for i := uint64(1); i <= 32; i++ {
		ops = append(ops, BatchOp{Kind: BatchRMW, Key: key(i), Value: u64(1)})
		if i%2 == 0 {
			out := make([]byte, 8)
			outs[len(ops)] = out
			ops = append(ops, BatchOp{Kind: BatchRead, Key: key(i), Output: out})
		}
	}
	if err := sess.ExecBatch(ops); err != nil {
		t.Fatal(err)
	}
	sess.CompletePending(true)
	for idx, out := range outs {
		op := ops[idx]
		if op.Status == OK {
			i := leU64(op.Key)
			if got := leU64(out); got != i*10+1 {
				t.Fatalf("batch read key %d = %d, want %d", i, got, i*10+1)
			}
		}
	}
	if st, _ := sess.Delete(key(7)); st != OK {
		t.Fatalf("delete: %v", st)
	}
	if st, _ := sess.Read(key(7), nil, make([]byte, 8), nil); st != NotFound {
		t.Fatalf("read after delete: %v", st)
	}
}

// TestShardedSparseSerialVerdicts checks the stream rule over shards:
// each shard's table sees an ascending subsequence of the connection's
// serials, while the token admits only the next serial of the whole
// stream and never applies a serial below it on any shard.
func TestShardedSparseSerialVerdicts(t *testing.T) {
	testutil.CheckGoroutines(t)
	ss, _ := openTestSharded(t, 4, Config{})
	defer ss.Close()

	sess := ss.StartSession()
	defer sess.Close()
	tok, _, _, err := ss.BindSession("sparse-client")
	if err != nil {
		t.Fatal(err)
	}

	// Pick two keys on different shards so the serial stream visibly
	// scatters.
	k1, k2 := key(1), key(1)
	for i := uint64(2); ; i++ {
		if ss.ShardFor(key(i)) != ss.ShardFor(k1) {
			k2 = key(i)
			break
		}
	}
	submit := func(k []byte, serial uint64) (SerialVerdict, []byte) {
		t.Helper()
		return stamped(tok, ss.ShardFor(k), serial, func() []byte {
			if st, _ := sess.RMW(k, u64(1), nil); st != OK {
				t.Fatalf("serial %d rmw: %v", serial, st)
			}
			return []byte("ok")
		})
	}
	apply := func(k []byte, serial uint64) {
		t.Helper()
		if v, _ := submit(k, serial); v != SerialApply {
			t.Fatalf("serial %d: verdict %v, want APPLY", serial, v)
		}
	}
	// Serials 1,2 on shard(k1); 3 on shard(k2); 4 back on shard(k1):
	// each shard sees an ascending subsequence with jumps.
	apply(k1, 1)
	apply(k1, 2)
	apply(k2, 3)
	apply(k1, 4)

	// Duplicate of the newest serial on each shard replays.
	if v, reply := submit(k1, 4); v != SerialReplay || string(reply) != "ok" {
		t.Fatalf("dup of newest on shard(k1): %v %q", v, reply)
	}
	if v, _ := submit(k2, 3); v != SerialReplay {
		t.Fatalf("dup of newest on shard(k2): %v", v)
	}
	// Older serials are stale, never re-applied — also when re-delivered
	// with a key on a shard that never saw them.
	if v, _ := submit(k1, 2); v != SerialStale {
		t.Fatalf("old serial: %v", v)
	}
	if v, _ := submit(k2, 1); v != SerialStale {
		t.Fatalf("old serial on another shard: %v", v)
	}
	// A jump forward is a gap on every shard, even one whose own
	// subsequence it would extend; once 5..8 commit, 9 applies.
	if v, _ := submit(k2, 9); v != SerialGap {
		t.Fatalf("serial 9 after 4: %v, want GAP", v)
	}
	for serial := uint64(5); serial <= 8; serial++ {
		apply(k1, serial)
	}
	apply(k2, 9)

	// Frontier reported on rebind is the max acked over shards.
	_, frontier, _, err := ss.BindSession("sparse-client")
	if err != nil {
		t.Fatal(err)
	}
	if frontier != 9 {
		t.Fatalf("rebound frontier %d, want 9", frontier)
	}
}

// shardedSeedData drives stamped serials and plain upserts through a
// sharded session: serial i RMWs key (i%5)+1 with delta i.
func shardedSeedData(t testing.TB, ss *ShardedStore, guid string, from, to uint64) {
	t.Helper()
	sess := ss.StartSession()
	defer sess.Close()
	tok, _, _, err := ss.BindSession(guid)
	if err != nil {
		t.Fatal(err)
	}
	for serial := from; serial <= to; serial++ {
		k := key(serial%5 + 1)
		v, _ := stamped(tok, ss.ShardFor(k), serial, func() []byte {
			if st, _ := sess.RMW(k, u64(serial), nil); st != OK {
				t.Fatalf("serial %d rmw status", serial)
			}
			return []byte(fmt.Sprintf("r%d", serial))
		})
		if v != SerialApply {
			t.Fatalf("serial %d: verdict %v", serial, v)
		}
	}
}

// shardedSums returns the expected per-key counter sums for serials
// [1, to] under shardedSeedData's layout.
func shardedSums(to uint64) map[uint64]uint64 {
	sums := map[uint64]uint64{}
	for serial := uint64(1); serial <= to; serial++ {
		sums[serial%5+1] += serial
	}
	return sums
}

func verifyShardedSums(t testing.TB, ss *ShardedStore, want map[uint64]uint64) {
	t.Helper()
	sess := ss.StartSession()
	defer sess.Close()
	for k, v := range want {
		out := make([]byte, 8)
		st, err := sess.Read(key(k), nil, out, nil)
		if st == Pending {
			for _, res := range sess.CompletePending(true) {
				st = res.Status
				if res.Output != nil {
					copy(out, res.Output)
				}
			}
		}
		if st != OK || err != nil {
			t.Fatalf("read key %d: %v %v", k, st, err)
		}
		if got := leU64(out); got != v {
			t.Fatalf("key %d = %d, want %d", k, got, v)
		}
	}
}

func TestShardedCheckpointRecoverRoundTrip(t *testing.T) {
	testutil.CheckGoroutines(t)
	dir := t.TempDir()
	ss, devs := openTestSharded(t, 4, Config{})

	shardedSeedData(t, ss, "rt-client", 1, 20)
	if _, err := ss.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	shardedSeedData(t, ss, "rt-client", 21, 40)
	info, err := ss.Checkpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if info.Seq != 2 || len(info.Shards) != 4 {
		t.Fatalf("checkpoint info %+v", info)
	}
	if err := ss.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := RecoverSharded(shardedTestConfig(4, Config{}, devs), dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	verifyShardedSums(t, r, shardedSums(40))
	// The generation sequence continues from the recovered manifest.
	if info, err := r.Checkpoint(dir); err != nil || info.Seq != 3 {
		t.Fatalf("checkpoint after recovery: seq %d, %v; want seq 3", info.Seq, err)
	}

	_, frontier, _, err := r.BindSession("rt-client")
	if err != nil {
		t.Fatal(err)
	}
	if frontier != 40 {
		t.Fatalf("recovered frontier %d, want 40", frontier)
	}

	// The offline sessions view agrees with the live rebind.
	states, err := ReadCheckpointSessions(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(states) != 1 || states[0].GUID != "rt-client" || states[0].Acked != 40 {
		t.Fatalf("offline sessions view: %+v", states)
	}
}

func TestShardedManifestFallbackConsistentPrefix(t *testing.T) {
	testutil.CheckGoroutines(t)
	dir := t.TempDir()
	ss, devs := openTestSharded(t, 4, Config{})

	shardedSeedData(t, ss, "fb-client", 1, 20)
	if _, err := ss.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	shardedSeedData(t, ss, "fb-client", 21, 40)
	if _, err := ss.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	ss.Close()

	// Tear one shard's generation-2 meta, modeling a crash that beat the
	// shard's fsync: the whole ensemble must fall back to generation 1 —
	// a consistent prefix — never mix gen-2 shards with a gen-1 shard.
	metaPath := filepath.Join(shardGenDir(dir, 2, 1), "meta.ckpt")
	raw, err := os.ReadFile(metaPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(metaPath, raw[:len(raw)-8], 0o644); err != nil {
		t.Fatal(err)
	}

	r, err := RecoverSharded(shardedTestConfig(4, Config{}, devs), dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	verifyShardedSums(t, r, shardedSums(20))
	_, frontier, _, err := r.BindSession("fb-client")
	if err != nil {
		t.Fatal(err)
	}
	if frontier != 20 {
		t.Fatalf("fallback frontier %d, want 20 (generation 1)", frontier)
	}
}

func TestShardedPerShardHealthIsolation(t *testing.T) {
	testutil.CheckGoroutines(t)
	ss, _ := openTestSharded(t, 4, Config{})
	defer ss.Close()

	bad := errors.New("injected shard fault")
	ss.Shard(2).raiseHealth(ReadOnly, bad)

	if h := ss.ShardHealth(2); h != ReadOnly {
		t.Fatalf("shard 2 health %v", h)
	}
	for i := 0; i < 4; i++ {
		if i != 2 && ss.ShardHealth(i) != Healthy {
			t.Fatalf("sibling shard %d degraded to %v", i, ss.ShardHealth(i))
		}
	}
	if ss.Health() != ReadOnly {
		t.Fatalf("aggregate health %v, want worst shard's", ss.Health())
	}
	if !errors.Is(ss.HealthCause(), bad) {
		t.Fatalf("aggregate cause %v", ss.HealthCause())
	}

	// Writes to the poisoned shard fail; the siblings keep serving both
	// reads and writes.
	sess := ss.StartSession()
	defer sess.Close()
	served, rejected := 0, 0
	for i := uint64(1); i <= 64; i++ {
		st, err := sess.Upsert(key(i), u64(i))
		if ss.ShardFor(key(i)) == 2 {
			if st != Err || !errors.Is(err, ErrReadOnly) {
				t.Fatalf("write to poisoned shard: %v %v", st, err)
			}
			rejected++
		} else {
			if st != OK || err != nil {
				t.Fatalf("write to healthy shard %d: %v %v", ss.ShardFor(key(i)), st, err)
			}
			served++
		}
	}
	if served == 0 || rejected == 0 {
		t.Fatalf("test keys never straddled the poisoned shard (served %d rejected %d)", served, rejected)
	}
}

// TestShardedSingleShardCheckpointLayoutCompat: a one-shard ShardedStore
// and a flat Store write the same layout, so each recovers the other's
// directory, and the generation sequence runs on across them.
func TestShardedSingleShardCheckpointLayoutCompat(t *testing.T) {
	testutil.CheckGoroutines(t)
	dir := t.TempDir()
	ss, devs := openTestSharded(t, 1, Config{})

	sess := ss.StartSession()
	for i := uint64(1); i <= 50; i++ {
		sess.Upsert(key(i), u64(i))
	}
	sess.Close()
	if info, err := ss.Checkpoint(dir); err != nil || info.Seq != 1 {
		t.Fatalf("sharded checkpoint: seq %d, %v", info.Seq, err)
	}
	ss.Close()

	// A flat Recover reads the one-shard ensemble's generation...
	scfg := shardedTestConfig(1, Config{}, devs)
	cfg := scfg.Base
	cfg.Device = devs[0]
	s, err := Recover(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	fsess := s.StartSession()
	if got, st := readU64(t, fsess, key(7)); st != OK || got != 7 {
		t.Fatalf("flat recovery: key 7 = %d (%v)", got, st)
	}
	for i := uint64(51); i <= 60; i++ {
		fsess.Upsert(key(i), u64(i))
	}
	fsess.Close()
	if _, err := s.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := os.Stat(filepath.Join(shardGenDir(dir, 2, 0), "meta.ckpt")); err != nil {
		t.Fatalf("flat checkpoint did not write generation 2: %v", err)
	}

	// ...and RecoverSharded reads the flat store's.
	r, err := RecoverSharded(scfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	verifyShardedSums(t, r, map[uint64]uint64{7: 7, 55: 55})
	if info, err := r.Checkpoint(dir); err != nil || info.Seq != 3 {
		t.Fatalf("checkpoint after recovery: seq %d, %v; want seq 3", info.Seq, err)
	}
}

func leU64(b []byte) uint64 {
	var v uint64
	for i := 7; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return v
}

var _ = hlog.Address(0)
var _ = bytes.Equal

// TestShardedSessionUseAfterClose checks that a closed ShardedSession
// behaves as a closed flat Session: a second Close and CompletePending
// return nothing, and every operation returns ErrSessionClosed.
func TestShardedSessionUseAfterClose(t *testing.T) {
	ss, _ := openTestSharded(t, 2, Config{})
	defer ss.Close()
	sess := ss.StartSession()
	if _, err := sess.Upsert(key(1), u64(1)); err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(); err != nil {
		t.Fatalf("second Close = %v", err)
	}
	if res := sess.CompletePending(true); len(res) != 0 {
		t.Fatalf("CompletePending after Close = %v", res)
	}
	if res, err := sess.CompletePendingTimeout(time.Second); len(res) != 0 || err != nil {
		t.Fatalf("CompletePendingTimeout after Close = %v, %v", res, err)
	}
	out := make([]byte, 8)
	for name, op := range map[string]func() (Status, error){
		"Read":   func() (Status, error) { return sess.Read(key(1), nil, out, nil) },
		"Upsert": func() (Status, error) { return sess.Upsert(key(2), u64(2)) },
		"RMW":    func() (Status, error) { return sess.RMW(key(1), u64(1), nil) },
		"Delete": func() (Status, error) { return sess.Delete(key(1)) },
	} {
		if st, err := op(); st != Err || !errors.Is(err, ErrSessionClosed) {
			t.Fatalf("%s after Close = %v, %v; want ErrSessionClosed", name, st, err)
		}
	}
	ops := []BatchOp{{Kind: BatchRead, Key: key(1), Output: out}}
	if err := sess.ExecBatch(ops); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("ExecBatch after Close = %v; want ErrSessionClosed", err)
	}
}
