package faster

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/device"
)

// bindFlat binds guid on s served as a one-shard ensemble, the shape a
// flat store gets exactly-once in.
func bindFlat(t testing.TB, s *Store, guid string) (*ShardedToken, uint64) {
	t.Helper()
	tok, frontier, _, err := (&ShardedStore{shards: []*Store{s}}).BindSession(guid)
	if err != nil {
		t.Fatalf("BindSession(%q): %v", guid, err)
	}
	return tok, frontier
}

// stamped runs one stamped operation on shard through tok the way the
// RESP front-end does: open the shard's window, check serial, and on
// SerialApply run do and commit the reply it renders. It returns the
// verdict and the reply (the saved one on replay).
func stamped(tok *ShardedToken, shard int, serial uint64, do func() []byte) (SerialVerdict, []byte) {
	tok.WindowEnter(shard)
	defer tok.WindowExit()
	v, reply := tok.Check(shard, serial)
	if v != SerialApply {
		return v, reply
	}
	reply = do()
	tok.Commit(shard, serial, reply)
	return v, reply
}

// submitSerial drives one serial-stamped RMW add on a flat store
// through the full protocol: check, execute (draining pending I/O), read
// back, commit the rendered reply. It returns the verdict and the reply
// bytes (the counter value after the op, or the saved reply on replay).
func submitSerial(t testing.TB, tok *ShardedToken, sess *Session, k []byte, serial, delta uint64) (SerialVerdict, []byte) {
	t.Helper()
	return stamped(tok, 0, serial, func() []byte {
		st, err := sess.RMW(k, u64(delta), nil)
		if err != nil {
			t.Fatalf("RMW serial %d: %v", serial, err)
		}
		if st == Pending {
			for _, r := range sess.CompletePending(true) {
				if r.Kind == "rmw" && r.Status != OK {
					t.Fatalf("pending RMW serial %d: %v %v", serial, r.Status, r.Err)
				}
			}
			st = OK
		}
		if st != OK {
			t.Fatalf("RMW serial %d: %v", serial, st)
		}
		out := make([]byte, 8)
		if rst, _ := sess.Read(k, nil, out, nil); rst == Pending {
			sess.CompletePending(true)
		}
		return out
	})
}

func TestSerialLifecycle(t *testing.T) {
	s, _ := openTestStore(t, Config{})
	sess := s.StartSession()
	defer sess.Close()

	tok, frontier := bindFlat(t, s, "client-a")
	if frontier != 0 {
		t.Fatalf("BindSession frontier = %d, want 0", frontier)
	}

	k := key(77)
	for serial := uint64(1); serial <= 5; serial++ {
		if v, _ := submitSerial(t, tok, sess, k, serial, 10); v != SerialApply {
			t.Fatalf("serial %d: verdict %v, want APPLY", serial, v)
		}
	}
	if got, st := readU64(t, sess, k); st != OK || got != 50 {
		t.Fatalf("after 5 adds: (%d, %v), want (50, OK)", got, st)
	}

	// Duplicate of the newest serial: replayed, not re-executed.
	v, reply := submitSerial(t, tok, sess, k, 5, 10)
	if v != SerialReplay || binary.LittleEndian.Uint64(reply) != 50 {
		t.Fatalf("duplicate serial 5: (%v, %x), want (REPLAY, 50)", v, reply)
	}
	if got, _ := readU64(t, sess, k); got != 50 {
		t.Fatalf("replay re-executed: counter %d, want 50", got)
	}
	// Older serials are fenced; skipping ahead is fenced.
	if v, _ := submitSerial(t, tok, sess, k, 3, 10); v != SerialStale {
		t.Fatalf("serial 3: verdict %v, want STALE", v)
	}
	if v, _ := submitSerial(t, tok, sess, k, 9, 10); v != SerialGap {
		t.Fatalf("serial 9: verdict %v, want GAP", v)
	}
	if got, _ := readU64(t, sess, k); got != 50 {
		t.Fatalf("fenced serials mutated state: counter %d, want 50", got)
	}

	// A failed serial — admitted, its window closed without a commit —
	// can be retried.
	tok.WindowEnter(0)
	if v, _ := tok.Check(0, 6); v != SerialApply {
		t.Fatal("serial 6 not admitted")
	}
	tok.WindowExit()
	if v, _ := submitSerial(t, tok, sess, k, 6, 1); v != SerialApply {
		t.Fatalf("retry of aborted serial 6: verdict %v, want APPLY", v)
	}
	if got, _ := readU64(t, sess, k); got != 51 {
		t.Fatalf("counter %d, want 51", got)
	}

	states := s.SessionStates()
	if len(states) != 1 || states[0].GUID != "client-a" || states[0].Acked != 6 || states[0].Durable != 0 {
		t.Fatalf("SessionStates = %+v", states)
	}
}

func TestBindFencesPreviousOwner(t *testing.T) {
	s, _ := openTestStore(t, Config{})
	old := s.StartSession()
	defer old.Close()
	oldTok, _ := bindFlat(t, s, "shared")
	submitSerial(t, oldTok, old, key(1), 1, 5)

	// A reconnecting client takes over the GUID; it sees the frontier the
	// old owner committed, and the old owner's next stamped op is fenced.
	fresh := s.StartSession()
	defer fresh.Close()
	freshTok, frontier := bindFlat(t, s, "shared")
	if frontier != 1 {
		t.Fatalf("takeover BindSession frontier = %d, want 1", frontier)
	}
	if v, _ := submitSerial(t, oldTok, old, key(1), 2, 5); v != SerialFenced {
		t.Fatalf("old owner serial 2: verdict %v, want FENCED", v)
	}
	if v, _ := submitSerial(t, freshTok, fresh, key(1), 2, 5); v != SerialApply {
		t.Fatalf("new owner serial 2: verdict %v, want APPLY", v)
	}
	if got, _ := readU64(t, fresh, key(1)); got != 10 {
		t.Fatalf("counter %d, want 10", got)
	}
}

func TestGUIDValidation(t *testing.T) {
	s, _ := openTestStore(t, Config{})
	ss := &ShardedStore{shards: []*Store{s}}
	for _, bad := range []string{"", "has space", "ctrl\x01byte", string(make([]byte, maxGUIDLen+1))} {
		if _, _, _, err := ss.BindSession(bad); err == nil {
			t.Errorf("BindSession(%q) accepted", bad)
		}
	}
	if _, _, _, err := ss.BindSession("ok-guid_1.2:3"); err != nil {
		t.Errorf("BindSession rejected valid guid: %v", err)
	}
}

// TestSessionTableCheckpointRecover is the tentpole round trip: serials
// committed before the checkpoint survive recovery as the session's
// frontier (with the saved reply replayable), serials after it are
// rolled back with the log prefix, and retries land exactly once.
func TestSessionTableCheckpointRecover(t *testing.T) {
	dir := t.TempDir()
	dev := device.NewMem(device.MemConfig{})
	cfg := Config{Ops: SumOps{}, PageBits: 12, BufferPages: 8,
		IndexBuckets: 1 << 10, Device: dev}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sess := s.StartSession()
	tok, _ := bindFlat(t, s, "client-r")
	k := key(42)
	for serial := uint64(1); serial <= 8; serial++ {
		submitSerial(t, tok, sess, k, serial, serial)
	}
	sess.Park()
	if _, err := s.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	sess.Unpark()
	// Post-checkpoint serials: applied now, lost by the crash.
	for serial := uint64(9); serial <= 12; serial++ {
		submitSerial(t, tok, sess, k, serial, serial)
	}
	if st := s.SessionStates(); st[0].Acked != 12 || st[0].Durable != 8 {
		t.Fatalf("pre-crash state = %+v, want acked 12 durable 8", st[0])
	}
	sess.Close()
	s.Close()

	r, err := Recover(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	rs := r.StartSession()
	defer rs.Close()
	rtok, frontier := bindFlat(t, r, "client-r")
	if frontier != 8 {
		t.Fatalf("recovered BindSession frontier = %d, want 8", frontier)
	}
	// The recovered store holds exactly serials 1..8: 1+2+..+8 = 36.
	if got, st := readU64(t, rs, k); st != OK || got != 36 {
		t.Fatalf("recovered counter = (%d, %v), want (36, OK)", got, st)
	}
	// Duplicate of the frontier serial replays the saved reply (the
	// counter as of serial 8) without re-executing.
	v, reply := submitSerial(t, rtok, rs, k, 8, 8)
	if v != SerialReplay || binary.LittleEndian.Uint64(reply) != 36 {
		t.Fatalf("frontier replay = (%v, %x), want (REPLAY, 36)", v, reply)
	}
	// Serials below the recovered commit point are fenced explicitly.
	if v, _ := submitSerial(t, rtok, rs, k, 5, 5); v != SerialStale {
		t.Fatalf("stale serial verdict %v, want STALE", v)
	}
	// The client re-submits the lost suffix; each op applies exactly once.
	for serial := uint64(9); serial <= 12; serial++ {
		if v, _ := submitSerial(t, rtok, rs, k, serial, serial); v != SerialApply {
			t.Fatalf("retry serial %d: verdict %v", serial, v)
		}
	}
	if got, _ := readU64(t, rs, k); got != 78 { // 1+..+12
		t.Fatalf("final counter %d, want 78", got)
	}
	if st := r.SessionStates(); st[0].Acked != 12 || st[0].Durable != 8 {
		t.Fatalf("post-retry state = %+v", st[0])
	}
}

// TestSerialTableCrashMatrix reconstructs every crash state the
// checkpoint commit sequence can leave behind — a kill after the
// generation's session table but before its meta, a kill before the
// manifest rename, and a committed generation whose table is torn or
// missing — and verifies recovery never double-applies a retried
// operation.
func TestSerialTableCrashMatrix(t *testing.T) {
	type crashPoint struct {
		name string
		// mangle turns a directory holding two committed generations into
		// the crash state under test.
		mangle func(t *testing.T, dir string)
	}
	gen2 := func(dir, name string) string { return filepath.Join(shardGenDir(dir, 2, 0), name) }
	points := []crashPoint{
		{"between-sessions-and-meta", func(t *testing.T, dir string) {
			// gen2's session table and index are written but its meta is
			// not, so no manifest was renamed: manifest.ckpt is still gen1.
			if err := os.Remove(gen2(dir, "meta.ckpt")); err != nil {
				t.Fatal(err)
			}
			if err := os.Rename(filepath.Join(dir, "manifest.prev"), filepath.Join(dir, "manifest.ckpt")); err != nil {
				t.Fatal(err)
			}
		}},
		{"before-manifest-rename", func(t *testing.T, dir string) {
			// gen2 is whole on disk and manifest.ckpt already rotated to
			// manifest.prev, but gen2's manifest never left its tmp name.
			man := filepath.Join(dir, "manifest.ckpt")
			if err := os.Rename(man, man+".tmp"); err != nil {
				t.Fatal(err)
			}
		}},
		{"torn-session-table", func(t *testing.T, dir string) {
			// gen2 committed but its session table lost a tail page: the
			// meta's CRC check must reject it and fall back to gen1.
			p := gen2(dir, "sessions.ckpt")
			raw, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(p, raw[:len(raw)-1], 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"missing-session-table", func(t *testing.T, dir string) {
			if err := os.Remove(gen2(dir, "sessions.ckpt")); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, pt := range points {
		t.Run(pt.name, func(t *testing.T) {
			dir := t.TempDir()
			dev := device.NewMem(device.MemConfig{})
			cfg := Config{Ops: SumOps{}, PageBits: 12, BufferPages: 8,
				IndexBuckets: 1 << 10, Device: dev}
			s, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			sess := s.StartSession()
			tok, _ := bindFlat(t, s, "client-m")
			k := key(7)
			for serial := uint64(1); serial <= 4; serial++ {
				submitSerial(t, tok, sess, k, serial, 1)
			}
			sess.Park()
			if _, err := s.Checkpoint(dir); err != nil { // gen1: frontier 4
				t.Fatal(err)
			}
			sess.Unpark()
			for serial := uint64(5); serial <= 9; serial++ {
				submitSerial(t, tok, sess, k, serial, 1)
			}
			sess.Park()
			if _, err := s.Checkpoint(dir); err != nil { // gen2: frontier 9
				t.Fatal(err)
			}
			sess.Unpark()
			sess.Close()
			s.Close()

			pt.mangle(t, dir)

			r, err := Recover(cfg, dir)
			if err != nil {
				t.Fatalf("recovery after %s: %v", pt.name, err)
			}
			defer r.Close()
			rs := r.StartSession()
			defer rs.Close()
			rtok, frontier := bindFlat(t, r, "client-m")
			// Every crash state recovers gen1 (frontier 4, counter 4): the
			// log cut and the session frontier moved back together.
			if frontier != 4 {
				t.Fatalf("recovered frontier %d, want 4", frontier)
			}
			if got, st := readU64(t, rs, k); st != OK || got != 4 {
				t.Fatalf("recovered counter = (%d, %v), want (4, OK)", got, st)
			}
			// The client retries everything unacked beyond the frontier;
			// the final count proves nothing double-applied.
			for serial := frontier + 1; serial <= 9; serial++ {
				if v, _ := submitSerial(t, rtok, rs, k, serial, 1); v != SerialApply {
					t.Fatalf("retry serial %d: verdict %v", serial, v)
				}
			}
			if got, _ := readU64(t, rs, k); got != 9 {
				t.Fatalf("final counter %d, want 9 (exactly once)", got)
			}
		})
	}
}

// exactlyOnceSeeds returns how many seeded schedules the torture runs:
// FASTER_EXACTLYONCE_SEEDS (the CI gate sets 100), else a quick default.
func exactlyOnceSeeds(t *testing.T) int {
	if v := os.Getenv("FASTER_EXACTLYONCE_SEEDS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			t.Fatalf("bad FASTER_EXACTLYONCE_SEEDS %q", v)
		}
		return n
	}
	if testing.Short() {
		return 4
	}
	return 12
}

// TestExactlyOnceCrashRetryTorture runs seeded crash/retry schedules: a
// client stamps serial RMW adds while the schedule interleaves duplicate
// deliveries, lost acks, checkpoints and whole-store crash/recover
// cycles with protocol-driven retry. The final counter must equal the
// sum of every delta applied exactly once, on every schedule.
func TestExactlyOnceCrashRetryTorture(t *testing.T) {
	seeds := exactlyOnceSeeds(t)
	for seed := 0; seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(seed)*7919 + 17))
			dir := t.TempDir()
			dev := device.NewMem(device.MemConfig{})
			cfg := Config{Ops: SumOps{}, PageBits: 12, BufferPages: 8,
				IndexBuckets: 1 << 9, Device: dev}
			s, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			sess := s.StartSession()
			tok, _ := bindFlat(t, s, "torture-client")
			k := key(1)

			const totalOps = 60
			var want uint64
			deltas := make([]uint64, totalOps+1)
			for i := 1; i <= totalOps; i++ {
				deltas[i] = uint64(rng.Intn(9) + 1)
				want += deltas[i]
			}
			var (
				clientAcked uint64 // highest serial whose ack the client saw
				checkpoints int
			)
			replies := make(map[uint64]uint64) // serial -> acked counter value

			submit := func(serial uint64) {
				v, reply := submitSerial(t, tok, sess, k, serial, deltas[serial])
				switch v {
				case SerialApply, SerialReplay:
					got := binary.LittleEndian.Uint64(reply)
					if wantReply, seen := replies[serial]; seen && got != wantReply {
						t.Fatalf("serial %d reply %d, previously acked %d", serial, got, wantReply)
					}
					replies[serial] = got
					if rng.Intn(8) == 0 && v == SerialApply {
						return // ack lost in flight: client will retry this serial
					}
					if serial > clientAcked {
						clientAcked = serial
					}
				default:
					t.Fatalf("serial %d: verdict %v", serial, v)
				}
			}

			for clientAcked < totalOps {
				next := clientAcked + 1
				submit(next)
				if rng.Intn(10) == 0 {
					// Duplicate delivery of an already-submitted serial.
					submit(next)
				}
				if rng.Intn(12) == 0 {
					sess.Park()
					if _, err := s.Checkpoint(dir); err != nil {
						t.Fatal(err)
					}
					sess.Unpark()
					checkpoints++
				}
				if checkpoints > 0 && rng.Intn(15) == 0 {
					// Crash: everything above the newest checkpoint's cut is
					// gone; the client re-attaches and resumes its stream
					// from the recovered frontier.
					sess.Close()
					s.Close()
					s, err = Recover(cfg, dir)
					if err != nil {
						t.Fatal(err)
					}
					sess = s.StartSession()
					var frontier uint64
					tok, frontier = bindFlat(t, s, "torture-client")
					if frontier > clientAcked {
						// Server acked ops whose acks the client lost; all of
						// them are covered by the recovered frontier.
						clientAcked = frontier
					} else {
						clientAcked = frontier
					}
					// Replies above the cut are forgotten along with the ops.
					for serial := range replies {
						if serial > frontier {
							delete(replies, serial)
						}
					}
				}
			}
			if got, st := readU64(t, sess, k); st != OK || got != want {
				t.Fatalf("final counter = (%d, %v), want (%d, OK): ops double- or never-applied", got, st, want)
			}
			sess.Close()
			s.Close()
		})
	}
}

// TestSessionTableSerializeRoundTrip pins the on-disk format: serialize,
// parse, compare — including reply payloads and empty tables.
func TestSessionTableSerializeRoundTrip(t *testing.T) {
	tbl := newSessionTable()
	tbl.load([]SessionState{
		{GUID: "a", Acked: 3, LastReply: []byte("x"), UpdatedUnix: 100},
		{GUID: "bb", Acked: 9, LastReply: nil, UpdatedUnix: 200},
	})
	payload, snaps := tbl.serialize()
	if len(snaps) != 2 {
		t.Fatalf("%d snaps", len(snaps))
	}
	states, err := parseSessionTable(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(states) != 2 || states[0].GUID != "a" || states[0].Acked != 3 ||
		!bytes.Equal(states[0].LastReply, []byte("x")) || states[0].UpdatedUnix != 100 ||
		states[1].GUID != "bb" || states[1].Acked != 9 {
		t.Fatalf("round trip = %+v", states)
	}
	// Corruption is detected.
	if _, err := parseSessionTable(payload[:len(payload)-1]); err == nil {
		t.Fatal("truncated payload parsed")
	}
	payload[0] ^= 0xff
	if _, err := parseSessionTable(payload); err == nil {
		t.Fatal("bad magic parsed")
	}
	// Empty tables serialize to the bare header.
	empty, _ := newSessionTable().serialize()
	if len(empty) != sessHeaderLen {
		t.Fatalf("empty table payload %d bytes, want %d", len(empty), sessHeaderLen)
	}
	// A hostile count is an error, never an allocation of its size.
	hostile := binary.LittleEndian.AppendUint64(append([]byte(nil), empty[:8]...), 1<<60)
	if _, err := parseSessionTable(hostile); err == nil {
		t.Fatal("16-byte table claiming 1<<60 entries parsed")
	}
}

// TestReadCheckpointSessions exercises the offline session-table reader
// behind `faster-cli sessions`: it must print the committed generation
// without a log device and fall back to manifest.prev's generation when
// the current generation's table is torn.
func TestReadCheckpointSessions(t *testing.T) {
	dir := t.TempDir()
	s, _ := openTestStore(t, Config{})
	sess := s.StartSession()
	defer sess.Close()
	tok, _ := bindFlat(t, s, "offline-a")
	for serial := uint64(1); serial <= 3; serial++ {
		submitSerial(t, tok, sess, key(1), serial, 10)
	}
	sess.Park()
	if _, err := s.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	sess.Unpark()
	submitSerial(t, tok, sess, key(1), 4, 10)
	sess.Park()
	if _, err := s.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	sess.Unpark()

	states, err := ReadCheckpointSessions(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(states) != 1 || states[0].GUID != "offline-a" || states[0].Acked != 4 {
		t.Fatalf("offline dump = %+v, want offline-a at serial 4", states)
	}

	// Tear the newest generation's table: the reader must fall back to
	// the previous generation, like Recover does.
	name := filepath.Join(shardGenDir(dir, 2, 0), "sessions.ckpt")
	raw, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(name, raw[:len(raw)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	states, err = ReadCheckpointSessions(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(states) != 1 || states[0].Acked != 3 {
		t.Fatalf("fallback dump = %+v, want offline-a at serial 3", states)
	}
}
