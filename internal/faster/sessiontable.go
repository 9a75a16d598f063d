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
// Dedup and fencing follow from the frontier:
//
//   - serial == frontier+1: fresh — execute, then commit;
//   - serial == frontier:   duplicate of the newest committed operation —
//     replay the saved reply, never re-execute;
//   - serial <  frontier:   stale — fenced with an explicit error (the
//     reply for it is long gone, so replay is impossible and silent
//     re-execution would double-apply);
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
// Single ownership per GUID is enforced by fencing tokens: BindSession
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
	// SerialReplay marks a duplicate of the newest committed serial: the
	// saved reply must be returned verbatim and the operation must NOT be
	// re-executed.
	SerialReplay
	// SerialStale fences a serial below the frontier (and not the newest):
	// its reply is no longer retained and re-execution would double-apply.
	SerialStale
	// SerialGap fences a serial that skips ahead of frontier+1.
	SerialGap
	// SerialFenced rejects a token superseded by a newer BindSession for
	// the same GUID.
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

// ErrNotBound is returned by serial operations on a session with no
// bound GUID.
var ErrNotBound = errors.New("faster: session not bound to a durable GUID")

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

	owner   uint64 // fencing token of the newest BindSession
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

	// sparse relaxes serial admission from strictly-successive to
	// strictly-ascending. A sharded store routes each stamped operation
	// to its key's shard, so one shard's table observes an ascending
	// subsequence of a connection's serial stream — jumps are normal, and
	// gap detection moves up to the facade, which sees the whole stream.
	sparse bool

	mu      sync.Mutex
	entries map[string]*sessionEntry
}

func newSessionTable() *sessionTable {
	return &sessionTable{entries: make(map[string]*sessionEntry)}
}

// SessionToken is the capability a bound client holds for stamping
// serials. Exactly one goroutine may drive a token, mirroring Session.
type SessionToken struct {
	s        *Store
	e        *sessionEntry
	owner    uint64
	inWindow bool
}

// BindSession attaches to (or creates) the durable exactly-once entry
// for guid and fences any previous owner. It returns the capability
// token, the session's acked frontier, and a copy of the frontier
// operation's saved reply (nil when the session is new). The caller now
// owns the serial stream: frontier+1 is the next fresh serial.
//
// Bind waits for a previous owner's in-flight stamped window to close
// (bounded by one operation), so the returned frontier covers every
// operation any prior owner applied.
func (s *Store) BindSession(guid string) (*SessionToken, uint64, []byte, error) {
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
			tok := &SessionToken{s: s, e: e, owner: e.owner}
			frontier := e.acked
			var reply []byte
			if len(e.lastReply) > 0 {
				reply = append([]byte(nil), e.lastReply...)
			}
			e.mu.Unlock()
			s.mx.sessionBinds.Inc()
			return tok, frontier, reply, nil
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

// GUID returns the bound session GUID.
func (tok *SessionToken) GUID() string { return tok.e.guid }

// WindowEnter opens a stamped window: Check/Commit calls must happen
// inside one. The window holds the store's checkpoint cut shared-locked,
// so it must be kept tight — admission, execution (including pending-I/O
// completion), commit — and must not span client round-trips.
func (tok *SessionToken) WindowEnter() {
	if tok.inWindow {
		panic("faster: nested SessionToken window")
	}
	tok.s.sessions.cutMu.RLock()
	tok.inWindow = true
}

// WindowExit closes the window. Serials admitted but never committed
// (failed operations) are rolled back so the client can retry them.
func (tok *SessionToken) WindowExit() {
	if !tok.inWindow {
		panic("faster: WindowExit outside a window")
	}
	// Under mu: a token fenced by a newer binding still exits its window
	// while the new owner commits to the same entry.
	e := tok.e
	e.mu.Lock()
	if e.owner == tok.owner && e.issued != e.acked {
		e.issued = e.acked
	}
	e.mu.Unlock()
	tok.inWindow = false
	tok.s.sessions.cutMu.RUnlock()
}

// Check classifies serial. On SerialApply the serial is admitted: the
// caller must execute the operation and Commit it (or exit the window to
// roll the admission back). On SerialReplay the returned bytes are a
// copy of the saved reply.
func (tok *SessionToken) Check(serial uint64) (SerialVerdict, []byte) {
	if !tok.inWindow {
		panic("faster: SessionToken.Check outside a window")
	}
	e := tok.e
	e.mu.Lock()
	if e.owner != tok.owner {
		e.mu.Unlock()
		tok.s.mx.serialFenced.Inc()
		return SerialFenced, nil
	}
	sparse := tok.s.sessions.sparse
	switch {
	case serial == e.issued+1 || (sparse && serial > e.issued):
		e.issued = serial
		e.mu.Unlock()
		return SerialApply, nil
	case serial == e.acked && serial > 0 && e.issued == e.acked:
		reply := append([]byte(nil), e.lastReply...)
		e.mu.Unlock()
		tok.s.mx.serialReplays.Inc()
		return SerialReplay, reply
	case serial <= e.issued:
		e.mu.Unlock()
		tok.s.mx.serialFenced.Inc()
		return SerialStale, nil
	default:
		e.mu.Unlock()
		tok.s.mx.serialFenced.Inc()
		return SerialGap, nil
	}
}

// Commit marks serial's operation complete and saves its rendered reply
// for replay. Serials commit in admission order; committing out of order
// or without admission panics (a protocol bug, not a runtime condition).
// Returns false if the token was fenced mid-window (cannot happen while
// Bind honors the in-flight wait; kept as a hard failure signal).
func (tok *SessionToken) Commit(serial uint64, reply []byte) bool {
	if !tok.inWindow {
		panic("faster: SessionToken.Commit outside a window")
	}
	e := tok.e
	e.mu.Lock()
	if e.owner != tok.owner {
		e.mu.Unlock()
		return false
	}
	ordered := serial == e.acked+1
	if tok.s.sessions.sparse {
		ordered = serial > e.acked
	}
	if !ordered || serial > e.issued {
		e.mu.Unlock()
		panic(fmt.Sprintf("faster: commit of serial %d with acked %d issued %d", serial, e.acked, e.issued))
	}
	e.acked = serial
	e.lastReply = append(e.lastReply[:0], reply...)
	e.updatedUnix = time.Now().Unix()
	e.mu.Unlock()
	return true
}

// Release closes any open window. The entry itself is durable state and
// outlives the token.
func (tok *SessionToken) Release() {
	if tok.inWindow {
		tok.WindowExit()
	}
}

// ---------------------------------------------------------------------------
// Session convenience layer: a faster.Session bound to a GUID stamps its
// mutating operations through these helpers.
// ---------------------------------------------------------------------------

// Bind attaches the session to the durable exactly-once entry for guid
// and returns the acked frontier (see Store.BindSession). Any previous
// binding of this session is released.
func (sess *Session) Bind(guid string) (uint64, error) {
	tok, frontier, _, err := sess.s.BindSession(guid)
	if err != nil {
		return 0, err
	}
	if sess.token != nil {
		sess.token.Release()
	}
	sess.token = tok
	return frontier, nil
}

// Token exposes the session's bound capability (nil when unbound).
func (sess *Session) Token() *SessionToken { return sess.token }

// Unbind releases the session's durable binding.
func (sess *Session) Unbind() {
	if sess.token != nil {
		sess.token.Release()
		sess.token = nil
	}
}

// SerialCheck classifies serial for the bound GUID and, on SerialApply,
// opens the stamped window the following operation runs in. The caller
// must then execute the operation and call SerialCommit (success) or
// SerialAbort (failure). Non-apply verdicts leave no window open.
func (sess *Session) SerialCheck(serial uint64) (SerialVerdict, []byte, error) {
	if sess.token == nil {
		return SerialFenced, nil, ErrNotBound
	}
	if !sess.token.inWindow {
		sess.token.WindowEnter()
	}
	v, reply := sess.token.Check(serial)
	if v != SerialApply {
		sess.token.WindowExit()
	}
	return v, reply, nil
}

// SerialCommit commits an admitted serial with its rendered reply and
// closes the stamped window.
func (sess *Session) SerialCommit(serial uint64, reply []byte) {
	sess.token.Commit(serial, reply)
	if sess.token.inWindow {
		sess.token.WindowExit()
	}
}

// SerialAbort rolls back an admitted serial whose operation failed
// before applying, closing the stamped window; the client may retry the
// same serial.
func (sess *Session) SerialAbort() {
	if sess.token != nil && sess.token.inWindow {
		sess.token.WindowExit()
	}
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
