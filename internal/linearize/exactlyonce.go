package linearize

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/faster"
)

// Exactly-once model and driver: duplicate-delivery crash/retry
// workloads over the store's durable session serials. The sequential
// specification keeps one counter register per key and one
// committed-serial frontier per session; a stamped RMW applies iff its
// serial is the frontier's successor and is a no-op otherwise, whatever
// key it names. A history in which a retried serial adds its delta twice,
// a duplicate aimed at another key applies there, or a recovered store
// forgets an acknowledged serial — say a recovery that mixes checkpoint
// generations across shards, losing one shard's committed serials while
// the reported frontier says they are durable — has no linearization.
//
// The driver runs on a sharded store of any shard count (a flat store is
// the one-shard case) and makes the token calls the RESP front-end makes.

// EOMaxSessions bounds the stamped sessions a run may use and EOMaxKeys
// its key space; the model state embeds fixed-size arrays so it stays
// comparable and cheap to fingerprint.
const (
	EOMaxSessions = 4
	EOMaxKeys     = 8
)

// EOInput is the invocation half of an exactly-once operation. Session
// is the 1-based stamped session of a KVRMW; reads are unstamped and
// observe Key's counter. Keys are 1-based and at most EOMaxKeys.
type EOInput struct {
	Kind    KVKind
	Key     uint64
	Arg     uint64
	Session int
	Serial  uint64
	// Dup marks a deliberate duplicate re-delivery of Serial, which was
	// acknowledged before the duplicate was sent. The model does not care
	// (dedup is the specification under test), but the driver uses it to
	// keep the crash window checkable: the specification gives an
	// *unacked* duplicate no effect whatever key it names, so it can be
	// dropped from the history — were it applied, the counter it touched
	// would show a delta no operation explains.
	Dup bool
}

// EOOutput is the response half. Verdict is meaningful only for stamped
// operations: SerialApply acknowledges a first delivery, SerialReplay
// and SerialStale acknowledge duplicates without re-applying.
type EOOutput struct {
	Found   bool
	Val     uint64
	Verdict faster.SerialVerdict
}

// eoState is the sequential state: one counter register per key plus
// each session's committed-serial frontier.
type eoState struct {
	exists    [EOMaxKeys]bool
	vals      [EOMaxKeys]uint64
	frontiers [EOMaxSessions]uint64
}

// EOModel returns the dedup-aware multi-key counter specification.
func EOModel() Model {
	return Model{
		Name: "exactly-once-counters",
		Init: func() any { return eoState{} },
		Step: func(state, input, output any) (bool, any) {
			st := state.(eoState)
			in := input.(EOInput)
			out, observed := output.(EOOutput)
			ki := int(in.Key) - 1
			if ki < 0 || ki >= EOMaxKeys {
				return false, st
			}
			switch in.Kind {
			case KVRead:
				if !observed {
					return true, st
				}
				if out.Found != st.exists[ki] {
					return false, st
				}
				if st.exists[ki] && out.Val != st.vals[ki] {
					return false, st
				}
				return true, st
			case KVRMW:
				si := in.Session - 1
				if si < 0 || si >= EOMaxSessions {
					return false, st
				}
				next := st.frontiers[si] + 1
				dup := in.Serial < next
				if observed {
					switch out.Verdict {
					case faster.SerialApply:
						if dup {
							return false, st // double-apply
						}
					case faster.SerialReplay, faster.SerialStale:
						if !dup {
							return false, st
						}
					default:
						return false, st
					}
				}
				if dup {
					return true, st // duplicate delivery: no effect
				}
				if in.Serial > next {
					// The driver submits serials densely in order and the
					// token admits only the frontier's successor, so a gap
					// can never take effect.
					return false, st
				}
				ns := st
				ns.exists[ki] = true
				if st.exists[ki] {
					ns.vals[ki] = st.vals[ki] + in.Arg
				} else {
					ns.vals[ki] = in.Arg
				}
				ns.frontiers[si] = in.Serial
				return true, ns
			default:
				return false, st
			}
		},
		Key: func(state any) string {
			st := state.(eoState)
			return fmt.Sprintf("%v/%v/%v", st.exists, st.vals, st.frontiers)
		},
		// Frontiers span keys and keys span shards: one partition.
		Partition: nil,
		Describe: func(input, output any) string {
			in := input.(EOInput)
			out, complete := output.(EOOutput)
			if in.Kind == KVRead {
				res := "?"
				if complete {
					if out.Found {
						res = fmt.Sprintf("OK(%d)", out.Val)
					} else {
						res = "NOT_FOUND"
					}
				}
				return fmt.Sprintf("read(k%d) -> %s", in.Key, res)
			}
			res := "?"
			if complete {
				res = out.Verdict.String()
			}
			return fmt.Sprintf("s%d#%d rmw(k%d, +%d) -> %s", in.Session, in.Serial, in.Key, in.Arg, res)
		},
	}
}

// EOWorkload describes one duplicate-delivery crash/retry run.
type EOWorkload struct {
	// Sessions is the number of concurrent stamped sessions (default 3,
	// at most EOMaxSessions).
	Sessions int
	// Serials is how many serials each session commits before the crash
	// (default 16).
	Serials int
	// Keys is the key-space size; each serial targets a seeded key in
	// [1, Keys] (default EOMaxKeys), spreading a session's serials across
	// shards. Key k is stored under a key the store routes to shard
	// (k-1) mod Shards, and each session's first Shards serials visit
	// every shard once, so Keys and Serials must be at least the shard
	// count.
	Keys uint64
	// Seed makes the schedule, keys and deltas reproducible.
	Seed int64
}

// RunExactlyOnce drives w against a fresh sharded store opened from cfg:
// Sessions concurrent stamped clients each commit Serials serials
// against per-key counters spread over the shards, with seeded duplicate
// re-deliveries — a share of them aimed at a different key, as a
// misbehaving client would send them — and interleaved unstamped reads.
// Two checkpoints fire mid-run (so recovery has an older generation to
// fall back to), the store crashes (Close) and recovers from the
// manifest, each client re-binds its GUID, learns the connection
// frontier (max acked over shards) and resubmits every serial above it
// with the original keys and deltas — the retry rule an exactly-once
// client follows — and a final sweep reads every key. The returned
// history has the second checkpoint's window crash-marked and is ready
// for Check against EOModel(). The run fails unless every shard's table
// holds a committed serial the checkpoints made durable: a shard without
// one has nothing for recovery to lose.
func RunExactlyOnce(cfg faster.ShardedConfig, dir string, w EOWorkload) ([]Op, error) {
	if w.Sessions == 0 {
		w.Sessions = 3
	}
	if w.Sessions > EOMaxSessions {
		return nil, fmt.Errorf("linearize: %d sessions exceeds EOMaxSessions=%d", w.Sessions, EOMaxSessions)
	}
	if w.Serials == 0 {
		w.Serials = 16
	}
	if w.Keys == 0 {
		w.Keys = EOMaxKeys
	}
	if w.Keys > EOMaxKeys {
		return nil, fmt.Errorf("linearize: %d keys exceeds EOMaxKeys=%d", w.Keys, EOMaxKeys)
	}
	n := uint64(max(cfg.Shards, 1))
	if w.Keys < n || uint64(w.Serials) < n {
		return nil, fmt.Errorf("linearize: %d keys and %d serials cannot cover %d shards", w.Keys, w.Serials, n)
	}
	// Keys and deltas are fixed per (session, serial) up front so the
	// post-crash retry resends byte-identical operations.
	keys := make([][]uint64, w.Sessions+1)
	deltas := make([][]uint64, w.Sessions+1)
	drng := rand.New(rand.NewSource(w.Seed ^ 0x5eed))
	for i := 1; i <= w.Sessions; i++ {
		keys[i] = make([]uint64, w.Serials+1)
		deltas[i] = make([]uint64, w.Serials+1)
		for s := 1; s <= w.Serials; s++ {
			keys[i][s] = drng.Uint64()%w.Keys + 1
			if uint64(s) <= n {
				// One of the keys on shard s-1.
				keys[i][s] = uint64(s) + n*(drng.Uint64()%(w.Keys/n))
			}
			deltas[i][s] = drng.Uint64()%9 + 1
		}
	}

	ss, err := faster.OpenSharded(cfg)
	if err != nil {
		return nil, err
	}
	storeKeys := dealKeys(ss, w.Keys)
	rec := NewRecorder()
	// covered[j] is set once shard j committed a serial.
	covered := make([]atomic.Bool, n)
	allCovered := func() bool {
		for j := range covered {
			if !covered[j].Load() {
				return false
			}
		}
		return true
	}

	// The chaos goroutine commits generation 1 at roughly a third of the
	// committed serials' events and generation 2 at roughly two thirds,
	// each once every shard has committed a serial;
	// only the second bracket is crash-marked — recovery lands on it (or
	// falls whole-ensemble back to generation 1, which the first
	// checkpoint's own completed bracket covers: everything acked before
	// gen 2 began is either in gen 2's cut or resubmitted).
	var ckptStart, ckptEnd int64
	ckptDone := make(chan error, 1)
	stop := make(chan struct{})
	go func() {
		total := int64(w.Sessions * w.Serials)
		wait := func(target int64) bool {
			for rec.Peek() < target || !allCovered() {
				select {
				case <-stop:
					return false
				default:
					runtime.Gosched()
				}
			}
			return true
		}
		wait(total * 2 / 3)
		if _, err := ss.Checkpoint(dir); err != nil {
			ckptDone <- err
			return
		}
		wait(total * 4 / 3)
		ckptStart = rec.Now()
		_, err := ss.Checkpoint(dir)
		ckptEnd = rec.Now()
		ckptDone <- err
	}()

	errs := make(chan error, w.Sessions)
	var clients sync.WaitGroup
	for i := 1; i <= w.Sessions; i++ {
		clients.Add(1)
		go func(id int) {
			defer clients.Done()
			rng := rand.New(rand.NewSource(w.Seed*1_000_003 + int64(id)))
			sess := ss.StartSession()
			defer sess.Close()
			c, err := bindEOClient(ss, sess, rec.Client(id), storeKeys, id)
			if err != nil {
				errs <- err
				return
			}
			for serial := uint64(1); serial <= uint64(w.Serials); serial++ {
				k, d := keys[id][serial], deltas[id][serial]
				if err := c.submit(k, serial, d, false); err != nil {
					errs <- err
					return
				}
				covered[(k-1)%n].Store(true)
				if rng.Intn(3) == 0 {
					// Duplicate re-delivery of the serial just acked; one
					// in three names a different key.
					dk := k
					if w.Keys > 1 && rng.Intn(3) == 0 {
						dk = (k+rng.Uint64()%(w.Keys-1))%w.Keys + 1
					}
					if err := c.submit(dk, serial, d, true); err != nil {
						errs <- err
						return
					}
				}
				if rng.Intn(4) == 0 {
					if err := c.read(rng.Uint64()%w.Keys + 1); err != nil {
						errs <- err
						return
					}
				}
			}
		}(i)
	}
	clients.Wait()
	close(stop)
	if err := <-ckptDone; err != nil {
		ss.Close()
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	select {
	case err := <-errs:
		ss.Close()
		return nil, err
	default:
	}
	for i := range ss.NumShards() {
		if !slices.ContainsFunc(ss.Shard(i).SessionStates(), func(st faster.SessionState) bool { return st.Durable > 0 }) {
			ss.Close()
			return nil, fmt.Errorf("linearize: shard %d checkpointed no committed serial", i)
		}
	}

	pre := PruneCrashWindow(rec.History(), ckptStart, ckptEnd)
	ss.Close() // the "crash": recovery trusts only the manifest

	r, err := faster.RecoverSharded(cfg, dir)
	if err != nil {
		return nil, err
	}
	defer r.Close()

	// Retry phase: re-bind each GUID, learn the recovered connection
	// frontier, and resubmit everything above it.
	post := rec.Client(100)
	sess := r.StartSession()
	defer sess.Close()
	for i := 1; i <= w.Sessions; i++ {
		c, err := bindEOClient(r, sess, post, storeKeys, i)
		if err != nil {
			return nil, err
		}
		if c.frontier > uint64(w.Serials) {
			return nil, fmt.Errorf("recovered frontier %d for session %d exceeds %d serials issued", c.frontier, i, w.Serials)
		}
		for serial := c.frontier + 1; serial <= uint64(w.Serials); serial++ {
			if err := c.submit(keys[i][serial], serial, deltas[i][serial], false); err != nil {
				return nil, err
			}
		}
	}
	reader := eoClient{ss: r, sess: sess, log: post, keys: storeKeys}
	for k := uint64(1); k <= w.Keys; k++ {
		if err := reader.read(k); err != nil {
			return nil, err
		}
	}
	return append(pre, post.History()...), nil
}

// dealKeys returns the store key of each model key in [1, keys]: model
// key k gets a key ss routes to shard (k-1) mod NumShards, whatever the
// router, so the model keys are dealt evenly over the shards.
func dealKeys(ss *faster.ShardedStore, keys uint64) [][]byte {
	out := make([][]byte, keys+1)
	n := uint64(ss.NumShards())
	v := uint64(0)
	for k := uint64(1); k <= keys; k++ {
		for v++; uint64(ss.ShardFor(u64le(v))) != (k-1)%n; v++ {
		}
		out[k] = u64le(v)
	}
	return out
}

// eoClient is one stamped session of the driver, bound to the GUID
// "eo-<id>"; frontier is the connection frontier its binding returned.
type eoClient struct {
	ss       *faster.ShardedStore
	sess     *faster.ShardedSession
	tok      *faster.ShardedToken
	frontier uint64
	log      *ClientLog
	keys     [][]byte // store key of each model key
	id       int
}

func bindEOClient(ss *faster.ShardedStore, sess *faster.ShardedSession, log *ClientLog, keys [][]byte, id int) (*eoClient, error) {
	tok, frontier, _, err := ss.BindSession(fmt.Sprintf("eo-%d", id))
	if err != nil {
		return nil, err
	}
	return &eoClient{ss: ss, sess: sess, tok: tok, frontier: frontier, log: log, keys: keys, id: id}, nil
}

// submit delivers one stamped RMW of model key k the way the RESP
// front-end runs a stamped command: open the key's shard window, check
// the serial, execute and commit on SerialApply, close the window. The
// invoke is recorded before admission, the acknowledgement only once
// the serial is committed (or classified as a duplicate).
func (c *eoClient) submit(k, serial, delta uint64, dup bool) error {
	key := c.keys[k]
	id := c.log.Begin(EOInput{Kind: KVRMW, Key: k, Arg: delta, Session: c.id, Serial: serial, Dup: dup})
	shard := c.ss.ShardFor(key)
	c.tok.WindowEnter(shard)
	defer c.tok.WindowExit()
	v, _ := c.tok.Check(shard, serial)
	if v != faster.SerialApply {
		if v != faster.SerialReplay && v != faster.SerialStale {
			return fmt.Errorf("session %d serial %d: unexpected verdict %v", c.id, serial, v)
		}
		c.log.End(id, EOOutput{Verdict: v})
		return nil
	}
	st, rerr := c.sess.RMW(key, u64le(delta), nil)
	if st == faster.Pending {
		for _, res := range c.sess.CompletePending(true) {
			st, rerr = res.Status, res.Err
		}
	}
	if st != faster.OK {
		return fmt.Errorf("session %d serial %d: rmw failed: %v %v", c.id, serial, st, rerr)
	}
	c.tok.Commit(shard, serial, []byte("ACK"))
	c.log.End(id, EOOutput{Verdict: faster.SerialApply})
	return nil
}

// read records one unstamped read of model key k.
func (c *eoClient) read(k uint64) error {
	out := make([]byte, 8)
	id := c.log.Begin(EOInput{Kind: KVRead, Key: k})
	st, err := c.sess.Read(c.keys[k], nil, out, nil)
	if st == faster.Pending {
		for _, res := range c.sess.CompletePending(true) {
			st, err = res.Status, res.Err
			if res.Output != nil {
				copy(out, res.Output)
			}
		}
	}
	switch st {
	case faster.OK:
		c.log.End(id, EOOutput{Found: true, Val: binary.LittleEndian.Uint64(out)})
		return nil
	case faster.NotFound:
		c.log.End(id, EOOutput{})
		return nil
	default:
		return fmt.Errorf("read: %v %v", st, err)
	}
}
