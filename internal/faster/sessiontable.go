package faster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"runtime"
	"sort"
	"sync"
	"time"
)

// Exactly-once sessions: the CPR commit model of §4 grown to durable
// client state. A client names itself with a GUID and stamps every
// mutating operation with a monotone serial number. The store keeps one
// entry per GUID — the highest serial whose operation completed (the
// acked frontier) and the rendered reply of that newest operation — and
// persists the whole table crash-atomically with each checkpoint. After
// recovery a reconnecting client re-attaches by GUID and learns exactly
// which of its operations survived the prefix cut: everything at or
// below the recovered frontier is applied (exactly once), everything
// above it is gone and safe to re-submit.
//
// Dedup and fencing follow from the frontier. ShardedToken (sharded.go)
// applies the rule once per connection, over the whole serial stream;
// each shard's table here sees only the ascending subsequence of the
// serials its keys receive, so it fences owners and keeps that
// subsequence strictly ascending, nothing more:
//
//   - serial == frontier+1: fresh — execute, then commit;
//   - serial <= frontier:   a duplicate — replay the saved reply when it
//     is the newest committed serial on its key's shard, else stale,
//     fenced with an explicit error (the reply for it is gone, so replay
//     is impossible and silent re-execution would double-apply);
//   - serial >  frontier+1: a gap — the client skipped a serial, fenced.
//
// The correctness hinge is the cut: a checkpoint must record, per
// session, a frontier F such that the records of every operation ≤ F lie
// below t2 (durable) and the records of every operation > F lie at or
// above t2 (discarded by recovery). Sampling the frontier at any single
// instant is not enough — an operation can publish its record below t2
// and commit its serial after the sample, double-applying on retry. The
// table therefore keeps a cut lock (cutMu): every stamped operation runs
// inside a read-locked window spanning [admission, commit], and the
// checkpoint write-locks it around [table snapshot, t2 capture]. While
// the write lock is held no stamped window is open, so every admitted
// serial has committed (its record is below the current tail ≤ t2) and
// any window opened after release publishes at addresses ≥ t2. The stall
// is bounded by the snapshot plus one read-only shift — no flush waits
// happen under the lock.
//
// Single ownership per GUID is enforced by fencing tokens: binding
// bumps the entry's owner, and stamped calls from a superseded token
// report SerialFenced without executing. Bind waits for the previous
// owner's in-flight stamped window to close first, so a fenced zombie
// connection can never have applied an operation the new owner's
// frontier does not cover.

// SerialVerdict classifies a submitted session serial against the
// session's acked frontier. Only SerialApply permits execution.
type SerialVerdict int

const (
	// SerialApply admits a fresh serial (frontier+1): execute the
	// operation, then commit it with the rendered reply.
	SerialApply SerialVerdict = iota
	// SerialReplay marks a duplicate of the newest serial committed on its
	// key's shard: the saved reply must be returned verbatim and the
	// operation must NOT be re-executed.
	SerialReplay
	// SerialStale fences any other duplicate: its reply is no longer
	// retained and re-execution would double-apply.
	SerialStale
	// SerialGap fences a serial that skips ahead of frontier+1.
	SerialGap
	// SerialFenced rejects a token superseded by a newer binding of the
	// same GUID.
	SerialFenced
)

func (v SerialVerdict) String() string {
	switch v {
	case SerialApply:
		return "APPLY"
	case SerialReplay:
		return "REPLAY"
	case SerialStale:
		return "STALE"
	case SerialGap:
		return "GAP"
	case SerialFenced:
		return "FENCED"
	default:
		return fmt.Sprintf("SerialVerdict(%d)", int(v))
	}
}

// maxGUIDLen bounds client-chosen GUIDs.
const maxGUIDLen = 128

// validateGUID enforces RESP- and file-format-safe GUIDs: printable
// ASCII, no spaces, bounded length.
func validateGUID(guid string) error {
	if len(guid) == 0 || len(guid) > maxGUIDLen {
		return fmt.Errorf("faster: session GUID length %d (want 1..%d)", len(guid), maxGUIDLen)
	}
	for i := 0; i < len(guid); i++ {
		if c := guid[i]; c <= ' ' || c > '~' {
			return fmt.Errorf("faster: session GUID contains byte %#x (printable ASCII only)", c)
		}
	}
	return nil
}

// sessionEntry is one GUID's durable state. mu guards every field;
// issued/acked/lastReply are additionally written only by the current
// owner token (single goroutine), so the owner may read them unlocked.
type sessionEntry struct {
	guid string
	mu   sync.Mutex

	owner   uint64 // fencing token of the newest binding
	issued  uint64 // highest serial admitted for execution
	acked   uint64 // highest serial whose operation completed (the frontier)
	durable uint64 // highest frontier covered by a committed checkpoint

	lastReply   []byte // rendered reply of serial == acked, for replay
	updatedUnix int64  // wall-clock of the newest commit (operator "age")
}

// sessionTable is the store-wide GUID → entry registry plus the
// checkpoint cut lock.
type sessionTable struct {
	// cutMu is the serial/checkpoint cut: stamped windows hold it shared,
	// Checkpoint holds it exclusive across [snapshot, t2 capture].
	cutMu sync.RWMutex

	mu      sync.Mutex
	entries map[string]*sessionEntry
}

func newSessionTable() *sessionTable {
	return &sessionTable{entries: make(map[string]*sessionEntry)}
}

// sessionToken is one shard table's capability for a bound GUID. The
// stream rule lives in ShardedToken (sharded.go), which owns one of these
// per shard; the table behind it only fences owners and keeps its serials
// strictly ascending. Exactly one goroutine may drive a token.
type sessionToken struct {
	s     *Store
	e     *sessionEntry
	owner uint64
}

// bindSession attaches to (or creates) the durable exactly-once entry
// for guid on this shard and fences any previous owner. It returns the
// shard's token, its acked serial and a copy of that serial's saved
// reply (nil when the session is new).
//
// Bind waits for a previous owner's in-flight stamped window to close
// (bounded by one operation), so the returned serial covers every
// operation any prior owner applied on this shard.
func (s *Store) bindSession(guid string) (*sessionToken, uint64, []byte, error) {
	if err := validateGUID(guid); err != nil {
		return nil, 0, nil, err
	}
	t := s.sessions
	t.mu.Lock()
	e := t.entries[guid]
	if e == nil {
		e = &sessionEntry{guid: guid, updatedUnix: time.Now().Unix()}
		t.entries[guid] = e
	}
	t.mu.Unlock()

	for spin := 0; ; spin++ {
		e.mu.Lock()
		if e.issued == e.acked {
			e.owner++
			tok := &sessionToken{s: s, e: e, owner: e.owner}
			acked := e.acked
			var reply []byte
			if len(e.lastReply) > 0 {
				reply = append([]byte(nil), e.lastReply...)
			}
			e.mu.Unlock()
			s.mx.sessionBinds.Inc()
			return tok, acked, reply, nil
		}
		// The previous owner is mid-operation; taking over now would
		// leave its applied-but-uncommitted serial outside the frontier.
		e.mu.Unlock()
		if spin < 100 {
			runtime.Gosched()
		} else {
			time.Sleep(100 * time.Microsecond)
		}
	}
}

// enter opens the shard's stamped window: it holds the checkpoint cut
// shared until exit.
func (tok *sessionToken) enter() { tok.s.sessions.cutMu.RLock() }

// exit closes the window. Serials admitted but never committed (failed
// operations) are rolled back so the client can retry them.
func (tok *sessionToken) exit() {
	// Under mu: a token fenced by a newer binding still exits its window
	// while the new owner commits to the same entry.
	e := tok.e
	e.mu.Lock()
	if e.owner == tok.owner && e.issued != e.acked {
		e.issued = e.acked
	}
	e.mu.Unlock()
	tok.s.sessions.cutMu.RUnlock()
}

// check classifies serial on this shard's table. next says the stream
// rule found serial to be the connection's next serial: the table admits
// it if it ascends past every serial the table admitted. Any other serial
// is a re-delivery: SerialReplay with a copy of the saved reply when it
// is this table's newest committed serial, SerialStale otherwise.
func (tok *sessionToken) check(serial uint64, next bool) (SerialVerdict, []byte) {
	e := tok.e
	e.mu.Lock()
	switch {
	case e.owner != tok.owner:
		e.mu.Unlock()
		tok.s.mx.serialFenced.Inc()
		return SerialFenced, nil
	case next && serial > e.issued:
		e.issued = serial
		e.mu.Unlock()
		return SerialApply, nil
	case !next && serial > 0 && serial == e.acked && e.issued == e.acked:
		reply := append([]byte(nil), e.lastReply...)
		e.mu.Unlock()
		tok.s.mx.serialReplays.Inc()
		return SerialReplay, reply
	default:
		e.mu.Unlock()
		tok.s.mx.serialFenced.Inc()
		return SerialStale, nil
	}
}

// commit marks the admitted serial's operation complete and saves its
// rendered reply for replay. Committing a serial at or below the table's
// acked one, or one it never admitted, panics (a protocol bug, not a
// runtime condition). Returns false if the token was fenced mid-window
// (cannot happen while bind honors the in-flight wait; kept as a hard
// failure signal).
func (tok *sessionToken) commit(serial uint64, reply []byte) bool {
	e := tok.e
	e.mu.Lock()
	if e.owner != tok.owner {
		e.mu.Unlock()
		return false
	}
	if serial <= e.acked || serial > e.issued {
		e.mu.Unlock()
		panic(fmt.Sprintf("faster: commit of serial %d with acked %d issued %d", serial, e.acked, e.issued))
	}
	e.acked = serial
	e.lastReply = append(e.lastReply[:0], reply...)
	e.updatedUnix = time.Now().Unix()
	e.mu.Unlock()
	return true
}

// ---------------------------------------------------------------------------
// Snapshot, persistence and recovery
// ---------------------------------------------------------------------------

// SessionState is one GUID's externally visible exactly-once state.
type SessionState struct {
	GUID string
	// Acked is the frontier: every serial ≤ Acked applied exactly once.
	Acked uint64
	// Durable is the highest frontier covered by a committed checkpoint;
	// serials in (Durable, Acked] would be lost by a crash right now.
	Durable uint64
	// LastReply is the saved reply of serial == Acked.
	LastReply []byte
	// UpdatedUnix is the wall-clock second of the newest commit.
	UpdatedUnix int64
}

// SessionStates snapshots the session table, sorted by GUID.
func (s *Store) SessionStates() []SessionState {
	t := s.sessions
	t.mu.Lock()
	entries := make([]*sessionEntry, 0, len(t.entries))
	for _, e := range t.entries {
		entries = append(entries, e)
	}
	t.mu.Unlock()
	out := make([]SessionState, 0, len(entries))
	for _, e := range entries {
		e.mu.Lock()
		out = append(out, SessionState{
			GUID:        e.guid,
			Acked:       e.acked,
			Durable:     e.durable,
			LastReply:   append([]byte(nil), e.lastReply...),
			UpdatedUnix: e.updatedUnix,
		})
		e.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].GUID < out[j].GUID })
	return out
}

// sessMagic heads the serialized session table.
const sessMagic uint64 = 0xFA57E2C05E550001

// sessMinEntry is the smallest serialized entry: GUID length, acked,
// updated time and reply length, with an empty GUID and reply.
const sessMinEntry = 4 + 8 + 8 + 4

// sessSnap is one entry's state captured under the cut lock, kept so the
// checkpoint can raise durable frontiers after its meta commits.
type sessSnap struct {
	e     *sessionEntry
	acked uint64
}

// serialize captures the table under the caller-held cut write lock and
// renders it to the on-disk format. With the write lock held no stamped
// window is open, so every entry's issued == acked and the captured
// frontiers are exactly the serials whose records lie below the t2 the
// caller captures next. Entries are sorted by GUID for deterministic
// bytes.
func (t *sessionTable) serialize() ([]byte, []sessSnap) {
	t.mu.Lock()
	entries := make([]*sessionEntry, 0, len(t.entries))
	for _, e := range t.entries {
		entries = append(entries, e)
	}
	t.mu.Unlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].guid < entries[j].guid })

	snaps := make([]sessSnap, 0, len(entries))
	var buf []byte
	putU64 := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		buf = append(buf, b[:]...)
	}
	putU32 := func(v uint32) {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], v)
		buf = append(buf, b[:]...)
	}
	putU64(sessMagic)
	putU64(uint64(len(entries)))
	for _, e := range entries {
		e.mu.Lock()
		if debugAssert() && e.issued != e.acked {
			e.mu.Unlock()
			panic("faster: session window open under checkpoint cut lock")
		}
		putU32(uint32(len(e.guid)))
		buf = append(buf, e.guid...)
		putU64(e.acked)
		putU64(uint64(e.updatedUnix))
		putU32(uint32(len(e.lastReply)))
		buf = append(buf, e.lastReply...)
		snaps = append(snaps, sessSnap{e: e, acked: e.acked})
		e.mu.Unlock()
	}
	return buf, snaps
}

// markDurable raises entries' durable frontiers to the snapshot a
// now-committed checkpoint persisted.
func (t *sessionTable) markDurable(snaps []sessSnap) {
	for _, sn := range snaps {
		sn.e.mu.Lock()
		if sn.e.durable < sn.acked {
			sn.e.durable = sn.acked
		}
		sn.e.mu.Unlock()
	}
}

// sessCRC is the integrity check the checkpoint meta records alongside
// the payload length.
func sessCRC(payload []byte) uint32 { return crc32.ChecksumIEEE(payload) }

// parseSessionTable decodes a serialized session table. Truncated or
// corrupt payloads fail (the caller falls back to the previous
// checkpoint generation) — except under the skip-serial-fsync mutation,
// which models the naive implementation that trusts whatever tail
// survived: parsing stops at the tear and the lost entries silently
// revert to serial 0.
func parseSessionTable(payload []byte) ([]SessionState, error) {
	rd := payload
	take := func(n int) ([]byte, bool) {
		if len(rd) < n {
			return nil, false
		}
		b := rd[:n]
		rd = rd[n:]
		return b, true
	}
	hdr, ok := take(16)
	if !ok {
		return nil, errors.New("faster: session table truncated header")
	}
	if binary.LittleEndian.Uint64(hdr) != sessMagic {
		return nil, errors.New("faster: session table bad magic")
	}
	count := binary.LittleEndian.Uint64(hdr[8:])
	// The count comes from the file: preallocate no more entries than
	// the bytes left could hold.
	out := make([]SessionState, 0, min(count, uint64(len(rd)/sessMinEntry)))
	for i := uint64(0); i < count; i++ {
		var st SessionState
		ok := false
		if b, have := take(4); have {
			if g, have := take(int(binary.LittleEndian.Uint32(b))); have {
				st.GUID = string(g)
				if b, have := take(8); have {
					st.Acked = binary.LittleEndian.Uint64(b)
					if b, have := take(8); have {
						st.UpdatedUnix = int64(binary.LittleEndian.Uint64(b))
						if b, have := take(4); have {
							if r, have := take(int(binary.LittleEndian.Uint32(b))); have {
								st.LastReply = append([]byte(nil), r...)
								ok = true
							}
						}
					}
				}
			}
		}
		if !ok {
			if mutationsEnabled && mutSkipSerialFsync() {
				return out, nil // torn tail: surviving prefix only
			}
			return nil, fmt.Errorf("faster: session table truncated at entry %d/%d", i, count)
		}
		out = append(out, st)
	}
	if len(rd) != 0 {
		return nil, errors.New("faster: session table trailing bytes")
	}
	return out, nil
}

// load installs a recovered session table: the checkpointed frontier is
// both acked and durable (recovery made it so).
func (t *sessionTable) load(states []SessionState) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, st := range states {
		t.entries[st.GUID] = &sessionEntry{
			guid:        st.GUID,
			issued:      st.Acked,
			acked:       st.Acked,
			durable:     st.Acked,
			lastReply:   append([]byte(nil), st.LastReply...),
			updatedUnix: st.UpdatedUnix,
		}
	}
}
