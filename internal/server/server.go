// Package server is the FASTER network front-end: a RESP2-speaking TCP
// server over a sharded FASTER store, designed around failure from day
// one.
//
// The front-end is cluster-aware: it serves a *faster.ShardedStore
// whose shards are independent stores (own index, log, epoch domain,
// io-pool and checkpoint generation) behind a hash split of the keys.
// Single-key commands route to their key's shard; pipelined windows and
// the multi-key MGET/MSET split into concurrent per-shard sub-batches
// inside the session facade and rejoin in command order. The health
// ladder is per shard: one poisoned shard degrades or sheds only the
// keys it owns while its siblings keep full service, and only a fully
// failed ensemble sheds connections. ListenAndServe wraps a flat store
// as a one-shard ensemble, so the single-store behaviour is unchanged.
//
// The ROADMAP's north star is a store "serving heavy traffic from
// millions of users"; what turns a storage engine into such a service is
// not the happy path but the overload and failure behaviour of the layer
// in front of it. Skewed workloads concentrate load on hot keys and hot
// connections (F2, Kanellis et al.), so shedding and bounded queueing
// are correctness concerns; unbounded per-request threading stalls the
// whole store (Lomet & Wang), so work is admitted through a bounded
// session pool in front of FASTER's epoch-slot sessions. Concretely:
//
//   - Connection cap: beyond Config.MaxConns, new connections receive
//     "-OVERLOADED max connections" and are closed — shed, not queued.
//   - Admission semaphore: at most Config.MaxInFlight command windows
//     execute at once; excess requests are answered "-OVERLOADED" immediately
//     instead of queueing unboundedly.
//   - Bounded session pool: Config.Sessions FASTER sessions are created
//     up front and multiplexed across connections, so connection churn
//     can never exhaust the store's epoch-table slots.
//   - Deadlines: idle/read and write deadlines evict slow or wedged
//     clients instead of parking handler goroutines forever.
//   - Accept-loop backoff: transient accept errors retry under a bounded
//     internal/retry policy with the device-style error classification.
//   - Panic recovery: a panicking handler closes its connection and is
//     counted; the server keeps serving.
//   - Health ladder: with the store ReadOnly, writes fail fast with
//     "-READONLY" while reads keep serving; with the store Failed, data
//     commands are shed with "-FAILED" and the connection is closed.
//   - Graceful drain: Close (or SIGTERM in cmd/faster-server) stops
//     accepting, lets in-flight commands finish under a deadline, closes
//     every pooled session (resident-only, so none holds pending I/O),
//     and optionally takes a final checkpoint — provably leak-free (the
//     chaos soak asserts zero leaked goroutines under -race).
//
// Every data command takes one path: decode → plan → admit → execute →
// resolve → encode. A pipelined burst is decoded as a window; the planner
// turns each data command into store slots (GET one read, SET one upsert,
// DEL one delete per key, INCRBY one RMW, MGET/MSET one read or upsert per
// key) and a single command is simply a window of one. The window is
// admitted once (one in-flight token, one pooled session) and runs as one
// ShardedSession.ExecBatch, which splits it into concurrent per-shard
// sub-batches. The session and token go back to their pools before the
// slots that missed memory are resolved through the shards' io-worker
// pools — stamped windows included, so there is one miss path; the
// replies are then encoded in command order through one renderer.
// INCRBY is the paper's RMW with faster.VarLenOps counter
// semantics (the store must be opened with Ops: faster.VarLenOps{}): one
// atomic step that reports the value it produced. PING/ECHO/QUIT/COMMAND
// cover interop. Values are framed server-side with faster.VarLenEncode.
//
// Exactly-once sessions (the CPR session extension): "SESSION <guid>"
// binds the connection to a durable store session and replies :<acked>,
// the highest serial whose effect is guaranteed recovered after a crash
// (the committed frontier). A bound connection may tag SET/DEL/INCRBY
// with a trailing "SERIAL <n>"; serials are issued by the client,
// starting at frontier+1 and increasing by one. A stamped op that
// applies replies "+ACK <n> <result>"; re-delivering the frontier serial
// replays the saved reply without re-executing; other serials at or
// below the frontier are fenced with -STALE, serials that skip ahead
// with a serial gap error, and a connection whose GUID was re-bound
// elsewhere gets -FENCED. The connection's faster.ShardedToken applies
// that rule. After a crash the client re-issues SESSION, reads the
// recovered frontier from the reply, and resends everything above it —
// each retried op applies exactly once. A stamped op that replies
// -TIMEOUT was shed at its deadline and never applies, so it is resent
// the same way. Stamped SETs share windows; a window commits its serial
// run in order and stops acking at the first failed op, so the client's
// resend-from-frontier rule stays sufficient (uncommitted SET
// re-application is idempotent; a stamped DEL or INCRBY is always a
// window of its own).
package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faster"
	"repro/internal/resp"
	"repro/internal/retry"
)

// Config tunes the front-end's robustness surface. The zero value of
// every field selects a sensible default.
type Config struct {
	// MaxConns caps concurrently served connections (default 256).
	// Excess connections are shed with -OVERLOADED at accept time.
	MaxConns int
	// MaxInFlight caps command windows executing at once across all
	// connections (default 4*Sessions). Excess requests are shed with
	// -OVERLOADED, never queued unboundedly.
	MaxInFlight int
	// Sessions is the FASTER session-pool size (default 16). It must not
	// exceed the store's MaxSessions.
	Sessions int

	// IdleTimeout bounds the wait for the first byte of the next command
	// on a connection (default 5m); ReadTimeout bounds every subsequent
	// read once bytes have started flowing, so a client cannot stall
	// half-way through a command and pin a handler (default 10s);
	// WriteTimeout bounds flushing replies (default 10s). Deadline hits
	// evict the client.
	IdleTimeout  time.Duration
	ReadTimeout  time.Duration
	WriteTimeout time.Duration

	// AcquireTimeout bounds the wait for a pooled session (default
	// 100ms); on expiry the request is shed with -OVERLOADED.
	AcquireTimeout time.Duration
	// OpTimeout bounds one command window's io-pool misses (default 5s):
	// a miss unresolved at the deadline replies -TIMEOUT and never
	// applies.
	OpTimeout time.Duration
	// DrainTimeout bounds the graceful drain in Close (default 10s).
	DrainTimeout time.Duration

	// MaxValueBytes rejects oversized SET values (default 512 KiB).
	MaxValueBytes int

	// AcceptRetry bounds accept-loop backoff on transient errors; the
	// zero value selects a patient default (~1s cumulative).
	AcceptRetry retry.Policy

	// CheckpointDir, when set, makes the graceful drain finish with a
	// store checkpoint into this directory (skipped when the store's
	// write path is already gone).
	CheckpointDir string

	// EnablePprof mounts net/http/pprof profiling handlers under
	// /debug/pprof/ on the admin mux. The admin listener is expected to
	// be private; still, profiling is off unless asked for.
	EnablePprof bool
}

func (c *Config) setDefaults() {
	if c.MaxConns <= 0 {
		c.MaxConns = 256
	}
	if c.Sessions <= 0 {
		c.Sessions = 16
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 4 * c.Sessions
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = 5 * time.Minute
	}
	if c.ReadTimeout <= 0 {
		c.ReadTimeout = 10 * time.Second
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 10 * time.Second
	}
	if c.AcquireTimeout <= 0 {
		c.AcquireTimeout = 100 * time.Millisecond
	}
	if c.OpTimeout <= 0 {
		c.OpTimeout = 5 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 10 * time.Second
	}
	if c.MaxValueBytes <= 0 {
		c.MaxValueBytes = 512 << 10
	}
	if c.AcceptRetry == (retry.Policy{}) {
		c.AcceptRetry = retry.Policy{MaxAttempts: 8, BaseDelay: time.Millisecond,
			MaxDelay: 250 * time.Millisecond}
	}
}

// ErrDrainTimeout reports that graceful drain hit its deadline and had
// to force-close connections.
var ErrDrainTimeout = errors.New("server: graceful drain exceeded its deadline")

// Server is a running front-end.
type Server struct {
	store *faster.ShardedStore
	cfg   Config
	ln    net.Listener

	sessions chan *faster.ShardedSession
	inflight chan struct{}

	connMu sync.Mutex
	conns  map[net.Conn]struct{}

	wg        sync.WaitGroup
	done      chan struct{}
	draining  atomic.Bool
	closeOnce sync.Once
	closeErr  error

	mx serverMetrics
}

// ListenAndServe starts a front-end for a flat store on addr
// ("127.0.0.1:0" picks a free port; see Addr). The store is served as a
// one-shard ensemble; semantics are identical to the pre-sharding
// server.
func ListenAndServe(store *faster.Store, addr string, cfg Config) (*Server, error) {
	ss, err := faster.NewShardedFromStores([]*faster.Store{store})
	if err != nil {
		return nil, err
	}
	return ListenAndServeSharded(ss, addr, cfg)
}

// ListenAndServeSharded starts a cluster-aware front-end over a sharded
// store: commands route to their keys' shards, pipelined and multi-key
// windows fan out per shard, and the health ladder gates per shard.
func ListenAndServeSharded(store *faster.ShardedStore, addr string, cfg Config) (*Server, error) {
	cfg.setDefaults()
	if cfg.Sessions > store.MaxSessions() {
		return nil, fmt.Errorf("server: %d sessions exceed the store's cap of %d",
			cfg.Sessions, store.MaxSessions())
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{
		store:    store,
		cfg:      cfg,
		ln:       ln,
		sessions: make(chan *faster.ShardedSession, cfg.Sessions),
		inflight: make(chan struct{}, cfg.MaxInFlight),
		conns:    make(map[net.Conn]struct{}),
		done:     make(chan struct{}),
	}
	for i := 0; i < cfg.Sessions; i++ {
		// Pooled sessions are resident-only: a storage miss returns
		// WouldBlock instead of going Pending, and the handler re-routes the
		// miss through the store's io-worker pool after releasing the session
		// and admission token — no pooled session ever blocks on device I/O,
		// so a device latency spike slows only the cold misses that touch it
		// while hot in-memory traffic keeps its full speed. (Their shard
		// sub-sessions stay parked between operations, so an idle pool pins
		// no epoch.)
		sess := store.StartSession()
		sess.SetResidentOnly(true)
		s.sessions <- sess
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the server's listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Store exposes shard 0's flat store (single-shard servers, tests).
func (s *Server) Store() *faster.Store { return s.store.Shard(0) }

// allShardsFailed reports whether every shard has lost its device — the
// only condition under which the ensemble as a whole sheds connections.
func (s *Server) allShardsFailed() bool {
	for i := 0; i < s.store.NumShards(); i++ {
		if s.store.ShardHealth(i) != faster.Failed {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------------
// Accept loop
// ---------------------------------------------------------------------------

// classifyAcceptErr maps accept errors onto the retry taxonomy: a closed
// listener is permanent (shutdown); timeouts, EMFILE bursts and other
// transient conditions are retried under the bounded policy.
func classifyAcceptErr(err error) retry.Class {
	if errors.Is(err, net.ErrClosed) {
		return retry.Permanent
	}
	return retry.Transient
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	failures := 0
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			select {
			case <-s.done:
				return
			default:
			}
			failures++
			s.mx.acceptRetries.Inc()
			if !s.cfg.AcceptRetry.Budget(classifyAcceptErr(err), failures) {
				return
			}
			select {
			case <-time.After(s.cfg.AcceptRetry.Delay(failures)):
			case <-s.done:
				return
			}
			continue
		}
		failures = 0

		if !s.trackConn(conn) {
			// Connection cap: shed with an explicit error, never queue.
			s.mx.connsRejected.Inc()
			conn.SetWriteDeadline(time.Now().Add(time.Second))
			w := resp.NewWriter(conn)
			w.WriteError("OVERLOADED max connections")
			w.Flush()
			conn.Close()
			continue
		}
		s.mx.connsAccepted.Inc()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// trackConn registers conn, failing when the cap is reached or the
// server is draining.
func (s *Server) trackConn(conn net.Conn) bool {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	if s.draining.Load() || len(s.conns) >= s.cfg.MaxConns {
		return false
	}
	s.conns[conn] = struct{}{}
	s.mx.connsActive.Inc()
	return true
}

func (s *Server) untrackConn(conn net.Conn) {
	s.connMu.Lock()
	if _, ok := s.conns[conn]; ok {
		delete(s.conns, conn)
		s.mx.connsActive.Dec()
	}
	s.connMu.Unlock()
}

func (s *Server) closeConns() {
	s.connMu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.connMu.Unlock()
}

// ---------------------------------------------------------------------------
// Connection handler
// ---------------------------------------------------------------------------

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer s.untrackConn(conn)
	defer conn.Close()
	// Panic recovery: one handler's bug (or a poisoned input) costs one
	// connection, not the process.
	defer func() {
		if r := recover(); r != nil {
			s.mx.panics.Inc()
		}
	}()

	c := &connState{
		s:    s,
		conn: conn,
		r: resp.NewReaderLimits(&slowConn{Conn: conn, per: s.cfg.ReadTimeout},
			resp.Limits{MaxBulk: s.cfg.MaxValueBytes + 1}),
		w:    resp.NewWriter(conn),
		cmds: make([]resp.Command, maxWindowCmds),
	}
	// The durable session entry outlives the connection (that is the
	// point), but this connection's ownership of it does not.
	defer func() {
		if c.token != nil {
			c.token.Release()
		}
	}()
	closing := false
	for !closing {
		// The idle deadline bounds the wait for the command's first byte;
		// slowConn then bumps the deadline to the tighter ReadTimeout on
		// every delivering read, so a half-sent command cannot pin this
		// handler past ReadTimeout (slowloris defence).
		conn.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout))
		if err := c.r.ReadCommandInto(&c.cmds[0]); err != nil {
			if isTimeout(err) {
				s.mx.deadlineEvictions.Inc()
			}
			return
		}
		// Extend the window while pipelined input is already buffered, so
		// a burst executes as batches instead of one command at a time.
		// The byte budget bounds the decoded arguments a window may pin.
		n, window := 1, c.cmds[0].Size()
		for n < maxWindowCmds && window < windowByteBudget && c.r.Buffered() > 0 {
			if err := c.r.ReadCommandInto(&c.cmds[n]); err != nil {
				// Framing is lost: serve what was decoded, then close.
				closing = true
				break
			}
			window += c.cmds[n].Size()
			n++
		}
		if !c.processWindow(c.cmds[:n]) {
			closing = true
		}
		// Batch replies across a pipelined burst: flush only when no
		// further input is already buffered.
		if closing || c.r.Buffered() == 0 {
			conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
			if err := c.w.Flush(); err != nil {
				if isTimeout(err) {
					s.mx.deadlineEvictions.Inc()
				}
				return
			}
		}
	}
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// slowConn is the read side of a connection with per-read deadline
// renewal: every read that delivers bytes pushes the deadline out by
// per. The handler's idle deadline governs the silent wait before a
// command; this governs the flow once bytes started arriving.
type slowConn struct {
	net.Conn
	per time.Duration
}

func (c *slowConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 && c.per > 0 {
		c.Conn.SetReadDeadline(time.Now().Add(c.per))
	}
	return n, err
}

// ---------------------------------------------------------------------------
// Non-data commands
// ---------------------------------------------------------------------------

// testPanicCommand, when set (tests only, before serving starts), makes
// the window panic on that command — the recovery tests use it to prove a
// handler panic costs one connection, not the process.
var testPanicCommand string

// dispatch executes one command that is not a data command; false means
// the connection must close.
func (c *connState) dispatch(args [][]byte) bool {
	if len(args) == 0 {
		c.w.WriteError("ERR empty command")
		return true
	}
	name := commandName(args[0])
	switch name {
	case "PING":
		if len(args) > 1 {
			c.w.WriteBulk(args[1])
		} else {
			c.w.WriteSimple("PONG")
		}
		return true
	case "ECHO":
		if len(args) != 2 {
			c.w.WriteError("ERR wrong number of arguments for 'echo'")
			return true
		}
		c.w.WriteBulk(args[1])
		return true
	case "COMMAND":
		// Enough for redis-cli's handshake.
		c.w.WriteArrayHeader(0)
		return true
	case "QUIT":
		c.w.WriteSimple("OK")
		return false
	case "SESSION":
		return c.doSession(args)
	case "COMPACT":
		return c.doCompact(args)
	case "MEMORY":
		return c.doMemory(args)
	case "INFO":
		return c.doInfo(args)
	default:
		c.s.mx.unknownCommands.Inc()
		c.w.WriteError(fmt.Sprintf("ERR unknown command '%s'", name))
		return true
	}
}

// commandName upper-cases an ASCII command word without allocating for
// the already-uppercase common case.
func commandName(b []byte) string {
	for _, ch := range b {
		if 'a' <= ch && ch <= 'z' {
			up := make([]byte, len(b))
			for i, c := range b {
				if 'a' <= c && c <= 'z' {
					c -= 'a' - 'A'
				}
				up[i] = c
			}
			return string(up)
		}
	}
	return string(b)
}

// doSession binds the connection to a durable exactly-once session and
// replies :<acked>, the committed frontier the client must resume from.
// Rebinding a GUID (from this or another connection) fences the previous
// owner's pending serials.
func (c *connState) doSession(args [][]byte) bool {
	if len(args) != 2 || len(args[1]) == 0 {
		c.w.WriteError("ERR wrong number of arguments for 'session'")
		return true
	}
	tok, acked, _, err := c.s.store.BindSession(string(args[1]))
	if err != nil {
		c.w.WriteError("ERR " + err.Error())
		return true
	}
	if c.token != nil {
		c.token.Release()
	}
	c.token = tok
	// The frontier is the maximum committed serial across shards; the
	// barrier inside the sharded checkpoint guarantees the committed
	// serials form a prefix, so frontier+1 is the next expected serial.
	c.w.WriteInt(int64(acked))
	return true
}

// acquireSession takes a pooled session under the acquire timeout.
// shed means the pool stayed empty past the timeout (-OVERLOADED);
// down means the server is shutting down (close the connection).
func (s *Server) acquireSession() (sess *faster.ShardedSession, shed, down bool) {
	select {
	case sess = <-s.sessions:
		return sess, false, false
	default:
	}
	t := time.NewTimer(s.cfg.AcquireTimeout)
	select {
	case sess = <-s.sessions:
		t.Stop()
		return sess, false, false
	case <-t.C:
		s.mx.overloadSheds.Inc()
		return nil, true, false
	case <-s.done:
		t.Stop()
		return nil, false, true
	}
}

// doCompact runs a log compaction over every shard's stable region and
// replies with the total log bytes reclaimed. The command runs on the
// connection goroutine without a pooled session (each shard's Compact
// drives its own); concurrent COMPACTs serialize inside the shards.
func (c *connState) doCompact(args [][]byte) bool {
	s := c.s
	if len(args) != 1 {
		c.w.WriteError("ERR wrong number of arguments for 'compact'")
		return true
	}
	switch s.store.Health() {
	case faster.Failed:
		c.writeErr(faster.ErrStoreFailed)
		return !s.allShardsFailed()
	case faster.ReadOnly:
		c.writeErr(faster.ErrReadOnly)
		return true
	}
	s.mx.compactRuns.Inc()
	stats, err := s.store.CompactAll()
	if err != nil {
		c.writeErr(err)
		return true
	}
	c.w.WriteInt(int64(stats.ReclaimedBytes))
	return true
}

// doMemory reports the log's space accounting as a flat array of
// name/value bulk-string pairs (MEMORY or MEMORY STATS), summing the byte
// and event counters over the shards. Log addresses do not aggregate: a
// single-shard server leads with its addresses and reports its
// truncated_until, a sharded one leads with a "shards" pair instead.
func (c *connState) doMemory(args [][]byte) bool {
	if len(args) > 2 || (len(args) == 2 && commandName(args[1]) != "STATS") {
		c.w.WriteError("ERR unknown MEMORY subcommand")
		return true
	}
	n := c.s.store.NumShards()
	var logBytes, stable, mutable, compactions, compacted, reclaimed, truncated, stored uint64
	var rc faster.ReadCacheMetrics
	haveStored := false
	for i := range n {
		s := c.s.store.Shard(i)
		l := s.Log()
		m := s.Metrics()
		logBytes += l.TailAddress() - l.BeginAddress()
		stable += m.Log.StableBytes
		mutable += m.Log.MutableBytes
		compactions += m.Compactions
		compacted += m.CompactedBytes
		reclaimed += m.ReclaimedBytes
		truncated += m.Log.TruncatedBytes
		rc.Bytes += m.ReadCache.Bytes
		rc.Hits += m.ReadCache.Hits
		rc.Misses += m.ReadCache.Misses
		rc.Fills += m.ReadCache.Fills
		rc.Evictions += m.ReadCache.Evictions
		rc.Invalidations += m.ReadCache.Invalidations
		if db, ok := s.DeviceStoredBytes(); ok {
			stored += db
			haveStored = true
		}
	}
	var pairs [][2]string
	add := func(name string, v uint64) { pairs = append(pairs, [2]string{name, strconv.FormatUint(v, 10)}) }
	l := c.s.store.Shard(0).Log()
	if n == 1 {
		add("begin_address", l.BeginAddress())
		add("head_address", l.HeadAddress())
		add("safe_read_only_address", l.SafeReadOnlyAddress())
		add("tail_address", l.TailAddress())
	} else {
		add("shards", uint64(n))
	}
	add("log_bytes", logBytes)
	add("stable_bytes", stable)
	add("mutable_bytes", mutable)
	add("compactions", compactions)
	add("compacted_bytes", compacted)
	add("reclaimed_bytes", reclaimed)
	if n == 1 {
		add("truncated_until", l.TruncatedUntil())
	}
	add("truncated_bytes", truncated)
	if haveStored {
		add("device_stored_bytes", stored)
	}
	pairs = append(pairs, [2]string{"read_cache_bytes", strconv.FormatInt(rc.Bytes, 10)})
	add("read_cache_hits", rc.Hits)
	add("read_cache_misses", rc.Misses)
	add("read_cache_fills", rc.Fills)
	add("read_cache_evictions", rc.Evictions)
	add("read_cache_invalidations", rc.Invalidations)
	pairs = append(pairs, memoryOwnerPairs(c.s.memory())...)
	c.w.WriteArrayHeader(2 * len(pairs))
	for _, p := range pairs {
		c.w.WriteBulk([]byte(p[0]))
		c.w.WriteBulk([]byte(p[1]))
	}
	return true
}

// memory sums the shards' arena owners; the process-wide figures are
// taken once.
func (s *Server) memory() faster.MemoryMetrics {
	var sum faster.MemoryMetrics
	for i := range s.store.NumShards() {
		m := s.store.Shard(i).MemoryMetrics()
		sum.LogFrames += m.LogFrames
		sum.ReadCache += m.ReadCache
		sum.Index += m.Index
		sum.ArenaLive, sum.ArenaPeak, sum.GoHeap = m.ArenaLive, m.ArenaPeak, m.GoHeap
		sum.ArenaAdvised, sum.ArenaHuge = m.ArenaAdvised, m.ArenaHuge
	}
	return sum
}

// memoryOwnerPairs says where the process's memory goes: the Go heap,
// every arena block in the process, and the store's arenas by owner.
func memoryOwnerPairs(m faster.MemoryMetrics) [][2]string {
	return [][2]string{
		{"go_heap_bytes", strconv.FormatUint(m.GoHeap, 10)},
		{"arena_live_bytes", strconv.FormatUint(m.ArenaLive, 10)},
		{"arena_peak_bytes", strconv.FormatUint(m.ArenaPeak, 10)},
		{"arena_advised_bytes", strconv.FormatUint(m.ArenaAdvised, 10)},
		{"arena_huge_bytes", strconv.FormatUint(m.ArenaHuge, 10)},
		{"arena_log_frames_bytes", strconv.FormatUint(m.LogFrames, 10)},
		{"arena_read_cache_bytes", strconv.FormatUint(m.ReadCache, 10)},
		{"arena_index_bytes", strconv.FormatUint(m.Index, 10)},
	}
}

// doInfo answers INFO with its one section, memory (INFO, INFO memory,
// INFO all); any other section is empty, as in Redis.
func (c *connState) doInfo(args [][]byte) bool {
	if len(args) > 2 {
		c.w.WriteError("ERR wrong number of arguments for 'info'")
		return true
	}
	if len(args) == 2 {
		switch commandName(args[1]) {
		case "MEMORY", "ALL", "EVERYTHING", "DEFAULT":
		default:
			c.w.WriteBulk([]byte{})
			return true
		}
	}
	var b strings.Builder
	b.WriteString("# Memory\r\n")
	for _, p := range memoryOwnerPairs(c.s.memory()) {
		b.WriteString(p[0] + ":" + p[1] + "\r\n")
	}
	c.w.WriteBulk([]byte(b.String()))
	return true
}

// ---------------------------------------------------------------------------
// The data pipeline: decode → plan → admit → execute → resolve → encode
// ---------------------------------------------------------------------------

// Pipelining window shape: a burst of buffered commands is decoded into
// pooled per-command storage and executed as planned store windows.
const (
	// maxWindowCmds caps the commands decoded per window and the slots a
	// planned window holds (a DEL of more keys is a window of its own:
	// deletes never leave the session).
	maxWindowCmds = 64
	// windowByteBudget caps the decoded argument bytes a window may pin.
	windowByteBudget = 256 << 10
	// slotOutBytes sizes the pooled per-slot read output (frame header +
	// payload); larger stored values take the exact-size re-read.
	slotOutBytes = 8 + 4096
)

// Data commands: the commands the window planner turns into store slots.
const (
	cmdGet byte = iota + 1
	cmdSet
	cmdDel
	cmdIncrBy
	cmdMGet
	cmdMSet
)

var cmdNames = [...]string{cmdGet: "get", cmdSet: "set", cmdDel: "del",
	cmdIncrBy: "incrby", cmdMGet: "mget", cmdMSet: "mset"}

// dataOp classifies a data command, or returns 0 for any other.
func dataOp(cmd *resp.Command) byte {
	switch {
	case cmd.Is("GET"):
		return cmdGet
	case cmd.Is("SET"):
		return cmdSet
	case cmd.Is("DEL"):
		return cmdDel
	case cmd.Is("INCRBY"):
		return cmdIncrBy
	case cmd.Is("MGET"):
		return cmdMGet
	case cmd.Is("MSET"):
		return cmdMSet
	}
	return 0
}

// connState is one connection's decode, plan and reply state. Everything
// a window needs is pooled per connection, so a steady pipelined workload
// decodes, executes and replies without per-command allocations.
type connState struct {
	s    *Server
	conn net.Conn
	r    *resp.Reader
	w    *resp.Writer

	cmds []resp.Command // per-command pooled decode storage

	// The planned window: its commands in order, their store slots, and
	// the pooled storage the slots point into.
	plans   []cmdPlan
	bops    []faster.BatchOp
	redo    []faster.BatchOp                            // exact-size re-reads of oversized values
	outs    [][]byte                                    // per-slot pooled read outputs (lazily allocated)
	val     []byte                                      // arena for the decoded window's framed values
	ctr     [maxWindowCmds][faster.CounterInputLen]byte // per-command INCRBY inputs
	sealed  bool                                        // the window takes no further command
	closing bool                                        // close once the window's replies are out

	// Miss resolution: ioch is the connection's completion channel, iodone
	// the one callback that delivers into it and iotimer the backstop
	// timer: all three are made at the first miss and reused by every
	// later one. ioch holds a full window of results, so a delivery can
	// never block a worker, even a late one after the backstop tripped.
	ioch    chan faster.Result
	iodone  func(faster.Result)
	iotimer *time.Timer

	// Exactly-once session state: token is the connection's durable
	// session binding (SESSION <guid>), released on teardown, and the one
	// place the serial stream rule is applied.
	token  *faster.ShardedToken
	spans  []int  // shards a stamped window's commands route to
	ackBuf []byte // scratch for rendering "ACK <serial> <result>" bodies
}

// cmdPlan is one data command of a planned window: its slots are
// c.bops[first:first+n]. err is a reply decided at plan time (usage,
// stamp or health gate), in which case the command has no slots.
type cmdPlan struct {
	cmd   byte
	first int
	n     int
	err   error

	// A stamped command's serial, the verdict its shard token gave it
	// (saved is the reply a replay repeats), and whether it committed.
	serial    uint64
	shard     int
	verdict   faster.SerialVerdict
	saved     []byte
	committed bool
}

// replyError is an error whose text is the RESP error reply itself.
type replyError string

func (e replyError) Error() string { return string(e) }

var (
	errInflightFull = replyError("OVERLOADED too many requests in flight")
	errNoSession    = replyError("OVERLOADED no session available")
	errUnresolved   = replyError("TIMEOUT operation did not complete in time")
	errNotInteger   = replyError("ERR value is not an integer or out of range")
	errOverflow     = replyError("ERR increment or decrement would overflow")
	errOversized    = replyError("ERR stored value exceeds server read buffer")
	errEmptyKey     = replyError("ERR empty key")
	errBadSerial    = replyError("ERR SERIAL must be a positive integer")
	errSerialRead   = replyError("ERR SERIAL is not allowed on reads")
	errUnbound      = replyError("ERR no session bound; send SESSION <guid> first")
	errStampedDel   = replyError("ERR a stamped DEL takes exactly one key")
	errUnknownStore = replyError("ERR unknown store error")
)

func wrongArity(op byte) error {
	return replyError("ERR wrong number of arguments for '" + cmdNames[op] + "'")
}

// writeErr renders an error reply: the one table from store errors to
// RESP replies. Deadline and admission sheds from the io-worker pool are
// explicit, counted replies — back-pressure, not silent drops — and
// deliberately do not feed the health ladder.
func (c *connState) writeErr(err error) {
	mx := &c.s.mx
	var re replyError
	switch {
	case err == nil:
		err = errUnknownStore
	case errors.Is(err, faster.ErrOpDeadline):
		mx.ioShedTimeouts.Inc()
		err = replyError("TIMEOUT operation deadline expired")
	case errors.Is(err, faster.ErrIOQueueFull):
		mx.ioShedQueueFull.Inc()
		err = replyError("OVERLOADED io queue full")
	case errors.Is(err, faster.ErrStoreClosed):
		err = replyError("ERR server shutting down")
	case errors.Is(err, faster.ErrReadOnly):
		mx.readonlyRejects.Inc()
		err = replyError("READONLY store is read-only (write path lost)")
	case errors.Is(err, faster.ErrStoreFailed):
		mx.failedRejects.Inc()
		err = replyError("FAILED store failed (device lost)")
	case err == errUnresolved:
		mx.pendingTimeouts.Inc()
	case !errors.As(err, &re):
		err = replyError("ERR " + err.Error())
	}
	c.w.WriteError(err.Error())
}

// processWindow executes a decoded window in command order: data
// commands are planned into store windows, and any other command runs in
// place once the window planned before it has executed. Returns false
// when the connection must close.
func (c *connState) processWindow(cmds []resp.Command) bool {
	c.s.mx.commands.Add(uint64(len(cmds)))
	c.reserveValues(cmds)
	for i := range cmds {
		args := cmds[i].Args
		if testPanicCommand != "" && len(args) > 0 && commandName(args[0]) == testPanicCommand {
			panic("injected handler panic: " + testPanicCommand)
		}
		op := dataOp(&cmds[i])
		if op == 0 {
			if !c.runWindow() || !c.dispatch(args) {
				return false
			}
			continue
		}
		if !c.plan(op, args) {
			if !c.runWindow() {
				return false
			}
			c.plan(op, args) // an empty window takes any command
		}
		if c.sealed && !c.runWindow() {
			return false
		}
	}
	return c.runWindow()
}

// reserveValues sizes the value arena for every SET and MSET of the
// decoded window up front, so framing a value never regrows it under the
// slices earlier slots hold.
func (c *connState) reserveValues(cmds []resp.Command) {
	need := 0
	for i := range cmds {
		if cmds[i].Is("SET") || cmds[i].Is("MSET") {
			for _, a := range cmds[i].Args[1:] {
				need += 8 + len(a)
			}
		}
	}
	if cap(c.val) < need {
		c.val = make([]byte, 0, need)
	}
	c.val = c.val[:0]
}

// plan adds one data command to the window: its store slots — GET one
// read, SET one upsert, DEL one delete per key, INCRBY one RMW, MGET and
// MSET one read or upsert per key — plus what its reply needs. false
// means the command does not fit the window planned so far and the
// window must run first; an empty window takes any command.
func (c *connState) plan(op byte, args [][]byte) bool {
	p := cmdPlan{cmd: op, first: len(c.bops)}
	serial, args, err := c.stamp(op, args)
	var delta int64
	if err == nil {
		delta, err = c.validate(op, args)
	}
	keys, stride := args, 1
	if err == nil {
		keys, stride = slotKeys(op, args)
		err = c.gate(op, keys, stride)
	}
	if err != nil {
		p.err = err
		c.plans = append(c.plans, p)
		return true
	}
	// A stamped DEL or INCRBY is a window of its own: it is not idempotent,
	// so it must never be the uncommitted suffix of a partly failed window
	// that the client resends.
	barrier := serial > 0 && (op == cmdDel || op == cmdIncrBy)
	if len(c.bops) > 0 && (barrier || len(c.bops)+len(keys)/stride > maxWindowCmds ||
		c.conflicts(op, keys, stride)) {
		return false
	}
	c.sealed = barrier
	if serial > 0 {
		p.serial, p.shard = serial, c.s.store.ShardFor(args[1])
	}
	for j := 0; j < len(keys); j += stride {
		slot := faster.BatchOp{Key: keys[j]}
		switch op {
		case cmdGet, cmdMGet:
			slot.Kind, slot.Output, slot.Ctx = faster.BatchRead, c.slotOut(len(c.bops)), len(c.bops)
		case cmdSet, cmdMSet:
			frame := faster.VarLenAppend(c.val, keys[j+1])
			slot.Kind, slot.Value = faster.BatchUpsert, frame[len(c.val):]
			c.val = frame
		case cmdDel:
			if len(keys[j]) == 0 {
				continue
			}
			slot.Kind = faster.BatchDelete
		case cmdIncrBy:
			in := c.ctr[len(c.plans)][:]
			clear(in)
			binary.LittleEndian.PutUint64(in, uint64(delta))
			slot.Kind, slot.Value, slot.Ctx = faster.BatchRMW, in, len(c.bops)
		}
		c.bops = append(c.bops, slot)
	}
	p.n = len(c.bops) - p.first
	c.plans = append(c.plans, p)
	return true
}

// stamp strips a trailing "SERIAL <n>" from a GET, SET, DEL or INCRBY
// and checks the command may carry it: only writes, only on a bound
// connection, and a stamped DEL takes one key (a serial lives on exactly
// one shard, its key's).
func (c *connState) stamp(op byte, args [][]byte) (uint64, [][]byte, error) {
	n := len(args)
	if op > cmdIncrBy || n < 4 || !bytes.EqualFold(args[n-2], []byte("SERIAL")) {
		return 0, args, nil
	}
	serial, err := strconv.ParseUint(string(args[n-1]), 10, 64)
	switch {
	case err != nil || serial == 0:
		return 0, args, errBadSerial
	case op == cmdGet:
		return 0, args, errSerialRead
	case c.token == nil:
		return 0, args, errUnbound
	case op == cmdDel && n != 4:
		return 0, args, errStampedDel
	}
	return serial, args[:n-2], nil
}

// validate checks a data command's arity and arguments; for INCRBY it
// returns the parsed delta.
func (c *connState) validate(op byte, args [][]byte) (int64, error) {
	limit := c.s.cfg.MaxValueBytes
	tooBig := func() error { return replyError(fmt.Sprintf("ERR value exceeds %d bytes", limit)) }
	switch op {
	case cmdGet, cmdSet, cmdIncrBy:
		want := 3
		if op == cmdGet {
			want = 2
		}
		if len(args) != want || len(args[1]) == 0 {
			return 0, wrongArity(op)
		}
		if op == cmdSet && len(args[2]) > limit {
			return 0, tooBig()
		}
		if op == cmdIncrBy {
			delta, err := strconv.ParseInt(string(args[2]), 10, 64)
			if err != nil {
				return 0, errNotInteger
			}
			return delta, nil
		}
	case cmdDel:
		if len(args) < 2 {
			return 0, wrongArity(op)
		}
	case cmdMGet:
		if len(args) < 2 {
			return 0, wrongArity(op)
		}
		if len(args)-1 > maxWindowCmds {
			return 0, replyError(fmt.Sprintf("ERR MGET takes at most %d keys", maxWindowCmds))
		}
		for _, k := range args[1:] {
			if len(k) == 0 {
				return 0, errEmptyKey
			}
		}
	case cmdMSet:
		if len(args) < 3 || len(args)%2 != 1 {
			return 0, wrongArity(op)
		}
		if (len(args)-1)/2 > maxWindowCmds {
			return 0, replyError(fmt.Sprintf("ERR MSET takes at most %d pairs", maxWindowCmds))
		}
		for i := 1; i < len(args); i += 2 {
			if len(args[i]) == 0 {
				return 0, errEmptyKey
			}
			if len(args[i+1]) > limit {
				return 0, tooBig()
			}
		}
	}
	return 0, nil
}

// slotKeys returns the command's keys as keys[0], keys[stride], ...
// (SET and MSET interleave each key with its value).
func slotKeys(op byte, args [][]byte) (keys [][]byte, stride int) {
	switch op {
	case cmdGet, cmdIncrBy:
		return args[1:2], 1
	case cmdSet:
		return args[1:3], 2
	case cmdMSet:
		return args[1:], 2
	}
	return args[1:], 1
}

// gate applies the per-shard health ladder to the command's keys: a key
// on a Failed shard fails the command with -FAILED, a write to a
// ReadOnly shard with -READONLY, while keys on sibling shards keep full
// service. Once every shard has failed, a Failed command also closes the
// connection.
func (c *connState) gate(op byte, keys [][]byte, stride int) error {
	s := c.s
	if s.store.Health() <= faster.Degraded {
		return nil
	}
	worst := faster.Healthy
	for j := 0; j < len(keys); j += stride {
		if h := s.store.HealthFor(keys[j]); h > worst {
			worst = h
		}
	}
	switch {
	case worst == faster.Failed:
		if s.allShardsFailed() {
			c.closing, c.sealed = true, true
		}
		return faster.ErrStoreFailed
	case worst == faster.ReadOnly && op != cmdGet && op != cmdMGet:
		return faster.ErrReadOnly
	}
	return nil
}

// conflicts reports whether the command touches a key the window already
// reads or read-modify-writes in a way whose order matters (a write after
// a read, anything after an RMW). Such a slot may miss memory and finish
// through the io-worker pool after the rest of the window has run, so a
// later slot on its key waits for the next window: per-connection program
// order holds whether or not a key is cold.
func (c *connState) conflicts(op byte, keys [][]byte, stride int) bool {
	write := op != cmdGet && op != cmdMGet
	for i := range c.bops {
		b := &c.bops[i]
		if b.Kind != faster.BatchRMW && (!write || b.Kind != faster.BatchRead) {
			continue
		}
		for j := 0; j < len(keys); j += stride {
			if bytes.Equal(b.Key, keys[j]) {
				return true
			}
		}
	}
	return false
}

// slotOut returns slot i's pooled read output buffer.
func (c *connState) slotOut(i int) []byte {
	for len(c.outs) <= i {
		c.outs = append(c.outs, nil)
	}
	if c.outs[i] == nil {
		c.outs[i] = make([]byte, slotOutBytes)
	}
	return c.outs[i]
}

// runWindow executes the planned window and writes its replies in
// command order. Returns false when the connection must close.
func (c *connState) runWindow() bool {
	if len(c.bops) > 0 {
		c.execute()
	}
	for i := range c.plans {
		c.reply(&c.plans[i])
	}
	clear(c.bops) // drop references to values and outputs
	c.plans, c.bops, c.sealed = c.plans[:0], c.bops[:0], false
	return !c.closing
}

// failSlots gives every slot the same failed outcome.
func failSlots(ops []faster.BatchOp, err error) {
	for i := range ops {
		ops[i].Status, ops[i].Err = faster.Err, err
	}
}

// execute admits the window — one in-flight token and one pooled session,
// shed with -OVERLOADED rather than queued — runs it on the session, and
// returns both before resolving the slots that missed memory through the
// io-worker pool, so a window of cold misses holds nothing hot traffic
// needs: only this connection waits, which RESP's in-order replies
// require anyway. A window holding a stamped command admits its serials
// before it runs and commits them once its misses are resolved, so its
// shard windows span the pool wait (DESIGN.md §11).
func (c *connState) execute() {
	s := c.s
	select {
	case s.inflight <- struct{}{}:
	default:
		s.mx.overloadSheds.Inc()
		failSlots(c.bops, errInflightFull)
		return
	}
	s.mx.inflightDepth.Inc()
	sess, shed, down := s.acquireSession()
	if shed || down {
		<-s.inflight
		s.mx.inflightDepth.Dec()
		if down {
			c.closing = true
			failSlots(c.bops, faster.ErrStoreClosed)
		} else {
			failSlots(c.bops, errNoSession)
		}
		return
	}
	start := time.Now()
	released := false
	defer func() {
		if !released {
			// Panic backstop: the session's state is unknown, so it is
			// closed and a fresh one takes its place in the pool.
			sess.Close()
			sess = s.store.StartSession()
			sess.SetResidentOnly(true)
			s.release(sess)
		}
	}()
	stamped := c.admitSerials()
	c.exec(sess)
	released = true
	s.release(sess)
	c.resolve()
	if stamped {
		c.commitSerials()
	}
	s.mx.cmdLatency.Observe(time.Since(start))
}

// release returns a window's session and admission token to their pools.
func (s *Server) release(sess *faster.ShardedSession) {
	s.sessions <- sess
	<-s.inflight
	s.mx.inflightDepth.Dec()
}

// exec runs the window's slots through the session's one ExecBatch, then
// re-reads any value too large for its pooled slot buffer into an
// exact-size one (rare path; the allocation is the price of not sizing
// every slot for the largest value).
func (c *connState) exec(sess *faster.ShardedSession) {
	ops := c.bops
	for rereads := false; len(ops) > 0; rereads = true {
		if err := sess.ExecBatch(ops); err != nil {
			failSlots(ops, err)
		}
		if rereads {
			for i := range ops {
				dst := &c.bops[ops[i].Ctx.(int)]
				dst.Status, dst.Err, dst.Output = ops[i].Status, ops[i].Err, ops[i].Output
			}
		}
		c.redo = c.redo[:0]
		for i := range c.bops {
			op := &c.bops[i]
			if op.Kind != faster.BatchRead || op.Status != faster.OK {
				continue
			}
			if need := faster.VarLenFrameLen(op.Output); need > len(op.Output) {
				c.redo = append(c.redo, faster.BatchOp{Kind: faster.BatchRead, Key: op.Key,
					Output: make([]byte, need), Ctx: i})
			}
		}
		ops = c.redo
	}
}

// complete lands an asynchronous result in the slot its Ctx names: the
// status, a read's output, an RMW's status channel.
func (c *connState) complete(r *faster.Result) {
	i, ok := r.Ctx.(int)
	if !ok || i < 0 || i >= len(c.bops) {
		return
	}
	op := &c.bops[i]
	op.Status, op.Err = r.Status, r.Err
	if op.Kind == faster.BatchRMW {
		copy(op.Value, r.Input)
	} else if r.Output != nil {
		op.Output = r.Output
	}
}

// resolve completes the window's WouldBlock slots — reads and RMWs whose
// records live below the in-memory region — through the io-worker pool,
// submitting them all before waiting so independent misses overlap on
// the device. A read's output is the pool's, exactly the stored frame's
// size, and ownership transfers with the result. Submit failures (queue
// full, shutdown) land in the slot's Err and render as explicit sheds.
func (c *connState) resolve() {
	s := c.s
	misses := 0
	for i := range c.bops {
		if c.bops[i].Status == faster.WouldBlock {
			misses++
		}
	}
	if misses == 0 {
		return
	}
	deadline := time.Now().Add(s.cfg.OpTimeout)
	c.ioBegin(deadline)
	defer c.ioEnd()
	submitted := 0
	for i := range c.bops {
		op := &c.bops[i]
		if op.Status != faster.WouldBlock {
			continue
		}
		var err error
		if op.Kind == faster.BatchRMW {
			err = s.store.SubmitRMW(op.Key, op.Value, deadline, i, c.iodone)
		} else {
			err = s.store.SubmitRead(op.Key, nil, deadline, i, c.iodone)
		}
		if err != nil {
			op.Status, op.Err = faster.Err, err
			continue
		}
		s.mx.ioAsync.Inc()
		submitted++
	}
	for ; submitted > 0; submitted-- {
		r, ok := c.ioAwait()
		if !ok {
			// Defensive backstop only: pool delivery is deadline-bounded.
			for i := range c.bops {
				if c.bops[i].Status == faster.WouldBlock {
					c.bops[i].Status, c.bops[i].Err = faster.Err, faster.ErrOpDeadline
				}
			}
			return
		}
		c.complete(&r)
	}
}

// admitSerials opens the token's window over every shard a stamped
// command routes to and admits the stamped serials in command order. The
// window stays open across the store batch so a checkpoint cannot cut
// between an op's record and its commit. A command its verdict resolves
// without executing (replay, stale, gap, fenced) loses its slots.
// Returns whether the window holds a stamped command.
func (c *connState) admitSerials() bool {
	c.spans = c.spans[:0]
	for i := range c.plans {
		if p := &c.plans[i]; p.serial > 0 && p.err == nil {
			c.spans = append(c.spans, p.shard)
		}
	}
	if len(c.spans) == 0 {
		return false
	}
	c.token.WindowEnter(c.spans...)
	dropped := false
	for i := range c.plans {
		if p := &c.plans[i]; p.serial > 0 && p.err == nil {
			p.verdict, p.saved = c.token.Check(p.shard, p.serial)
			dropped = dropped || p.verdict != faster.SerialApply
		}
	}
	if dropped {
		w := 0
		for i := range c.plans {
			p := &c.plans[i]
			if p.serial > 0 && p.verdict != faster.SerialApply {
				p.n = 0
			}
			for j := p.first; j < p.first+p.n; j++ {
				c.bops[w] = c.bops[j]
				if c.bops[w].Ctx != nil {
					c.bops[w].Ctx = w
				}
				w++
			}
			p.first = w - p.n
		}
		c.bops = c.bops[:w]
	}
	return true
}

// commitSerials commits the window's admitted serials in order and closes
// the window. The first stamped command that failed stops the commits:
// later serials cannot ack (commits are strictly sequential) and reply
// -RETRY, so the client's resend-from-frontier rule re-applies exactly
// the uncommitted suffix — safe because only idempotent SETs share a
// window with other stamped commands, and a stamped miss shed at its
// deadline never applies. Uncommitted admissions roll back as the window
// closes.
func (c *connState) commitSerials() {
	committing := true
	for i := range c.plans {
		p := &c.plans[i]
		if p.serial == 0 || p.err != nil || p.verdict != faster.SerialApply {
			continue
		}
		n, err := c.result(p)
		if !committing || err != nil {
			committing = false
			continue
		}
		c.ackBuf = c.appendAck(c.ackBuf[:0], p, n)
		p.committed = c.token.Commit(p.shard, p.serial, c.ackBuf)
		committing = p.committed
	}
	c.token.WindowExit()
}

// appendAck renders a committed command's "ACK <serial> <result>" body.
func (c *connState) appendAck(b []byte, p *cmdPlan, n int64) []byte {
	b = append(b, "ACK "...)
	b = strconv.AppendUint(b, p.serial, 10)
	if p.cmd == cmdSet {
		return append(b, " OK"...)
	}
	b = append(b, ' ')
	return strconv.AppendInt(b, n, 10)
}

// slotErr is the error a slot that did not complete normally replies.
func slotErr(op *faster.BatchOp) error {
	if op.Status == faster.Pending || op.Status == faster.WouldBlock {
		return errUnresolved
	}
	if op.Err == nil {
		return errUnknownStore
	}
	return op.Err
}

// result evaluates a write command's slots: the integer it replies (DEL's
// count, the value INCRBY's RMW produced), or the error of its first
// failed slot.
func (c *connState) result(p *cmdPlan) (n int64, err error) {
	for _, op := range c.bops[p.first : p.first+p.n] {
		switch op.Status {
		case faster.NotFound:
		case faster.OK:
			if p.cmd != cmdIncrBy {
				n++
				continue
			}
			switch op.Value[8] {
			case faster.CounterOverflow:
				// A client asking for an impossible increment is not a store
				// fault: the counter (and the health ladder) stay untouched.
				return 0, errOverflow
			case faster.CounterNotCounter:
				return 0, errNotInteger
			}
			n = int64(binary.LittleEndian.Uint64(op.Value[9:]))
		default:
			return 0, slotErr(&op)
		}
	}
	return n, nil
}

// writeValue renders a read slot: the value, nil, or its error.
func (c *connState) writeValue(op *faster.BatchOp) {
	switch op.Status {
	case faster.OK:
		payload, ok := faster.VarLenDecode(op.Output)
		if !ok {
			c.writeErr(errOversized)
			return
		}
		c.w.WriteBulk(payload)
	case faster.NotFound:
		c.w.WriteNil()
	default:
		c.writeErr(slotErr(op))
	}
}

// reply renders one planned command's reply.
func (c *connState) reply(p *cmdPlan) {
	switch {
	case p.err != nil:
		c.writeErr(p.err)
	case p.serial > 0:
		c.replyStamped(p)
	case p.cmd == cmdGet:
		c.writeValue(&c.bops[p.first])
	case p.cmd == cmdMGet:
		// RESP2 arrays carry no per-element errors, so the first hard
		// failure fails the whole command.
		slots := c.bops[p.first : p.first+p.n]
		for i := range slots {
			if st := slots[i].Status; st != faster.OK && st != faster.NotFound {
				c.writeErr(slotErr(&slots[i]))
				return
			}
		}
		c.w.WriteArrayHeader(len(slots))
		for i := range slots {
			c.writeValue(&slots[i])
		}
	default:
		n, err := c.result(p)
		switch {
		case err != nil:
			c.writeErr(err)
		case p.cmd == cmdSet || p.cmd == cmdMSet:
			c.w.WriteSimple("OK")
		default:
			c.w.WriteInt(n)
		}
	}
}

// replyStamped renders a stamped command's reply: its ACK, the saved
// reply of a replay, a verdict that kept it from executing, or — admitted
// but rolled back — its own error or -RETRY when an earlier serial of the
// window failed.
func (c *connState) replyStamped(p *cmdPlan) {
	switch p.verdict {
	case faster.SerialReplay:
		c.w.WriteSimple(string(p.saved))
	case faster.SerialStale:
		c.writeErr(replyError(fmt.Sprintf("STALE serial %d is at or below the committed frontier", p.serial)))
	case faster.SerialGap:
		c.writeErr(replyError(fmt.Sprintf("ERR serial %d skips the next expected serial", p.serial)))
	case faster.SerialFenced:
		c.writeErr(replyError("FENCED session was re-bound by a newer connection"))
	default:
		n, err := c.result(p)
		switch {
		case err != nil:
			c.writeErr(err)
		case p.committed:
			c.ackBuf = c.appendAck(c.ackBuf[:0], p, n)
			c.w.WriteSimple(string(c.ackBuf))
		default:
			c.writeErr(replyError(fmt.Sprintf("RETRY serial %d not committed; resend from the session frontier", p.serial)))
		}
	}
}

// ---------------------------------------------------------------------------
// Miss resolution channel
// ---------------------------------------------------------------------------

// ioBackstop is how long past an operation's deadline a connection still
// waits for the pool's delivery. The pool guarantees delivery by the
// deadline even when the device never answers; this is a defensive
// backstop, and tripping it abandons the channel so a late delivery cannot
// leak into a later command's wait.
const ioBackstop = 2 * time.Second

// ioBegin readies the connection's completion channel, callback and
// backstop timer (armed for deadline + ioBackstop) for a round of
// submissions; ioEnd must follow.
func (c *connState) ioBegin(deadline time.Time) {
	if c.ioch == nil {
		ch := make(chan faster.Result, maxWindowCmds)
		c.ioch, c.iodone = ch, func(r faster.Result) { ch <- r }
	}
	if d := time.Until(deadline) + ioBackstop; c.iotimer == nil {
		c.iotimer = time.NewTimer(d)
	} else {
		c.iotimer.Reset(d)
	}
}

// ioAwait returns the next delivery, or ok=false when the backstop
// tripped (the channel is abandoned to whatever arrives late).
func (c *connState) ioAwait() (r faster.Result, ok bool) {
	select {
	case r = <-c.ioch:
		return r, true
	case <-c.iotimer.C:
		c.ioch, c.iodone = nil, nil
		return faster.Result{}, false
	}
}

// ioEnd stops the backstop timer, leaving it ready for the next ioBegin.
func (c *connState) ioEnd() {
	if !c.iotimer.Stop() {
		select {
		case <-c.iotimer.C:
		default:
		}
	}
}

// ---------------------------------------------------------------------------
// Graceful drain
// ---------------------------------------------------------------------------

// Close gracefully drains the server: stop accepting, let in-flight
// commands finish under the drain deadline, evict what remains, drain
// and close every pooled session, and (when configured) take a final
// checkpoint. Safe to call multiple times.
func (s *Server) Close() error {
	s.closeOnce.Do(func() { s.closeErr = s.drain() })
	return s.closeErr
}

func (s *Server) drain() error {
	start := time.Now()
	deadline := start.Add(s.cfg.DrainTimeout)
	s.draining.Store(true)
	close(s.done)
	s.ln.Close()

	var err error

	// Phase 1: let in-flight commands complete. New commands are still
	// parsed on open connections but data commands will shed once the
	// drain closes their conns; we give the ones already executing their
	// chance to finish and be acknowledged.
	for len(s.inflight) > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if len(s.inflight) > 0 {
		err = ErrDrainTimeout
	}

	// Phase 2: evict remaining connections (idle readers unblock with an
	// error; slow writers hit their write deadline) and wait for every
	// handler goroutine.
	s.closeConns()
	s.wg.Wait()

	// Phase 3: close the session pool. Every handler has exited, so every
	// session is in the channel, and a resident-only session never holds
	// pending I/O.
	for len(s.sessions) > 0 {
		(<-s.sessions).Close()
	}

	// Phase 4: optional final checkpoint, only while the write path is
	// alive.
	if s.cfg.CheckpointDir != "" && s.store.Health() <= faster.Degraded {
		if _, cerr := s.store.Checkpoint(s.cfg.CheckpointDir); cerr != nil && err == nil {
			err = fmt.Errorf("server: drain checkpoint: %w", cerr)
		}
	}

	s.mx.drains.Inc()
	s.mx.drainNs.Set(time.Since(start).Nanoseconds())
	return err
}
