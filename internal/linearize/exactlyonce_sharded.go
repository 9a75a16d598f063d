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

// Sharded exactly-once model and driver. A stamped session's serials
// spread across keys owned by different shards, so each shard's session
// table sees only an ascending subsequence (the sparse admission rule);
// the connection frontier is the max committed serial over shards. The
// model keeps one counter per key and one frontier per session: a
// stamped RMW applies iff its serial is the frontier's successor, so a
// recovery that mixes checkpoint generations across shards — losing one
// shard's committed serials while the reported frontier says they are
// durable — has no linearization.

// EOShardedMaxKeys bounds the key space so the model state embeds fixed
// arrays and stays cheap to fingerprint.
const EOShardedMaxKeys = 8

// eoShardedState is the sequential state: one counter register per key
// plus each session's committed-serial frontier.
type eoShardedState struct {
	exists    [EOShardedMaxKeys]bool
	vals      [EOShardedMaxKeys]uint64
	frontiers [EOMaxSessions]uint64
}

// EOShardedModel returns the dedup-aware multi-key counter
// specification. Keys are 1-based and at most EOShardedMaxKeys.
func EOShardedModel() Model {
	return Model{
		Name: "exactly-once-sharded-counters",
		Init: func() any { return eoShardedState{} },
		Step: func(state, input, output any) (bool, any) {
			st := state.(eoShardedState)
			in := input.(EOInput)
			out, observed := output.(EOOutput)
			ki := int(in.Key) - 1
			if ki < 0 || ki >= EOShardedMaxKeys {
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
					// The driver submits serials densely in order, so a
					// gap can never take effect (per-shard subsequences
					// are sparse, the session's stream is not).
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
			st := state.(eoShardedState)
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
				switch out.Verdict {
				case faster.SerialApply:
					res = "APPLY"
				case faster.SerialReplay:
					res = "REPLAY"
				case faster.SerialStale:
					res = "STALE"
				default:
					res = fmt.Sprintf("verdict(%d)", out.Verdict)
				}
			}
			return fmt.Sprintf("s%d#%d rmw(k%d, +%d) -> %s", in.Session, in.Serial, in.Key, in.Arg, res)
		},
	}
}

// EOShardedWorkload describes one sharded duplicate-delivery crash/retry
// run.
type EOShardedWorkload struct {
	// Sessions is the number of concurrent stamped sessions (default 3,
	// at most EOMaxSessions).
	Sessions int
	// Serials is how many serials each session commits before the crash
	// (default 16).
	Serials int
	// Keys is the key-space size; each serial targets a seeded key in
	// [1, Keys] (default EOShardedMaxKeys), spreading a session's
	// serials across shards. Key k is stored under a key the store
	// routes to shard (k-1) mod Shards, and each session's first Shards
	// serials visit every shard once, so Keys and Serials must be at
	// least the shard count.
	Keys uint64
	// Seed makes the schedule, keys and deltas reproducible.
	Seed int64
}

// RunExactlyOnceSharded drives w against a fresh sharded store opened
// from cfg: Sessions concurrent stamped clients each commit Serials
// serials against per-key counters spread over the shards, with seeded
// duplicate re-deliveries and interleaved unstamped reads. Two sharded
// checkpoints fire mid-run (so recovery has an older generation to fall
// back to), the store crashes (Close) and recovers from the manifest,
// each client re-binds its GUID, learns the connection frontier (max
// acked over shards) and resubmits every serial above it with the
// original keys and deltas — the retry rule an exactly-once client
// follows — and a final sweep reads every key. The returned history has
// the second checkpoint's window crash-marked and is ready for Check
// against EOShardedModel(). The run fails unless every shard's table
// holds a committed serial the checkpoints made durable: a shard without
// one has nothing for recovery to lose.
func RunExactlyOnceSharded(cfg faster.ShardedConfig, dir string, w EOShardedWorkload) ([]Op, error) {
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
		w.Keys = EOShardedMaxKeys
	}
	if w.Keys > EOShardedMaxKeys {
		return nil, fmt.Errorf("linearize: %d keys exceeds EOShardedMaxKeys=%d", w.Keys, EOShardedMaxKeys)
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
			log := rec.Client(id)
			sess := ss.StartSession()
			defer sess.Close()
			if _, err := sess.Bind(fmt.Sprintf("eo-%d", id)); err != nil {
				errs <- err
				return
			}
			for serial := uint64(1); serial <= uint64(w.Serials); serial++ {
				k, d := keys[id][serial], deltas[id][serial]
				if err := submitEOSharded(sess, log, storeKeys[k], k, id, serial, d, false); err != nil {
					errs <- err
					return
				}
				covered[(k-1)%n].Store(true)
				if rng.Intn(3) == 0 {
					// Duplicate re-delivery of the serial just acked.
					if err := submitEOSharded(sess, log, storeKeys[k], k, id, serial, d, true); err != nil {
						errs <- err
						return
					}
				}
				if rng.Intn(4) == 0 {
					rk := rng.Uint64()%w.Keys + 1
					if err := observeEOShardedRead(sess, log, storeKeys[rk], rk); err != nil {
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
		frontier, err := sess.Bind(fmt.Sprintf("eo-%d", i))
		if err != nil {
			return nil, err
		}
		if frontier > uint64(w.Serials) {
			return nil, fmt.Errorf("recovered frontier %d for session %d exceeds %d serials issued", frontier, i, w.Serials)
		}
		for serial := frontier + 1; serial <= uint64(w.Serials); serial++ {
			k := keys[i][serial]
			if err := submitEOSharded(sess, post, storeKeys[k], k, i, serial, deltas[i][serial], false); err != nil {
				return nil, err
			}
		}
	}
	sess.Unbind()
	for k := uint64(1); k <= w.Keys; k++ {
		if err := observeEOShardedRead(sess, post, storeKeys[k], k); err != nil {
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

// submitEOSharded delivers one stamped RMW of model key k (stored under
// key) through the per-key serial protocol: the verdict comes from the
// key's shard table, the commit closes that shard's stamped window.
func submitEOSharded(sess *faster.ShardedSession, log *ClientLog, key []byte, k uint64, session int, serial, delta uint64, dup bool) error {
	id := log.Begin(EOInput{Kind: KVRMW, Key: k, Arg: delta, Session: session, Serial: serial, Dup: dup})
	v, _, err := sess.SerialCheckKey(key, serial)
	if err != nil {
		return err
	}
	if v != faster.SerialApply {
		if v != faster.SerialReplay && v != faster.SerialStale {
			return fmt.Errorf("session %d serial %d: unexpected verdict %v", session, serial, v)
		}
		log.End(id, EOOutput{Verdict: v})
		return nil
	}
	st, rerr := sess.RMW(key, u64le(delta), nil)
	if st == faster.Pending {
		for _, res := range sess.CompletePending(true) {
			st, rerr = res.Status, res.Err
		}
	}
	if st != faster.OK {
		sess.SerialAbort()
		return fmt.Errorf("session %d serial %d: rmw failed: %v %v", session, serial, st, rerr)
	}
	sess.SerialCommitKey(serial, []byte("ACK"))
	log.End(id, EOOutput{Verdict: faster.SerialApply})
	return nil
}

// observeEOShardedRead records one unstamped read of model key k, stored
// under key.
func observeEOShardedRead(sess *faster.ShardedSession, log *ClientLog, key []byte, k uint64) error {
	out := make([]byte, 8)
	id := log.Begin(EOInput{Kind: KVRead, Key: k})
	st, err := sess.Read(key, nil, out, nil)
	if st == faster.Pending {
		for _, res := range sess.CompletePending(true) {
			st, err = res.Status, res.Err
			if res.Output != nil {
				copy(out, res.Output)
			}
		}
	}
	switch st {
	case faster.OK:
		log.End(id, EOOutput{Found: true, Val: binary.LittleEndian.Uint64(out)})
		return nil
	case faster.NotFound:
		log.End(id, EOOutput{})
		return nil
	default:
		return fmt.Errorf("read: %v %v", st, err)
	}
}
