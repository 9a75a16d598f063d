// Package server is the FASTER network front-end: a RESP2-speaking TCP
// server over a sharded FASTER store, designed around failure from day
// one.
//
// The front-end is cluster-aware: it serves a *faster.ShardedStore
// whose shards are independent stores (own index, log, epoch domain,
// io-pool and checkpoint generation) behind consistent-hash routing.
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
//   - Admission semaphore: at most Config.MaxInFlight commands execute
//     at once; excess requests are answered "-OVERLOADED" immediately
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
//     accepting, lets in-flight commands finish under a deadline, drains
//     every pooled session via CompletePendingTimeout, and optionally
//     takes a final checkpoint — provably leak-free (the chaos soak
//     asserts zero leaked goroutines under -race).
//
// Protocol: GET/SET/DEL return Redis-shaped replies; MGET/MSET execute
// multi-key windows as per-shard fan-outs; INCRBY maps onto FASTER's
// RMW with faster.VarLenOps counter semantics (the store must be opened
// with Ops: faster.VarLenOps{}); PING/ECHO/QUIT/COMMAND cover interop.
// Values are framed server-side with faster.VarLenEncode.
//
// Exactly-once sessions (the CPR session extension): "SESSION <guid>"
// binds the connection to a durable store session and replies :<acked>,
// the highest serial whose effect is guaranteed recovered after a crash
// (the committed frontier). A bound connection may tag SET/DEL/INCRBY
// with a trailing "SERIAL <n>"; serials are issued by the client,
// starting at frontier+1 and increasing by one. A stamped op that
// applies replies "+ACK <n> <result>"; re-delivering the frontier serial
// replays the saved reply without re-executing; serials at or below the
// frontier are fenced with -STALE, serials that skip ahead with a serial
// gap error, and a connection whose GUID was re-bound elsewhere gets
// -FENCED. After a crash the client re-issues SESSION, reads the
// recovered frontier from the reply, and resends everything above it —
// each retried op applies exactly once. Stamped SETs join pipelined
// ExecBatch windows; a window commits its serial run in order and stops
// acking at the first failed op, so the client's resend-from-frontier
// rule stays sufficient (uncommitted SET re-application is idempotent;
// non-idempotent INCRBY always executes as a window barrier).
package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"strconv"
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
	// MaxInFlight caps commands executing at once across all
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
	// OpTimeout bounds CompletePendingTimeout for one command's
	// asynchronous I/O (default 5s).
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
			MaxDelay: 250 * time.Millisecond, Multiplier: 2, JitterFrac: 0.25}
	}
}

// ErrDrainTimeout reports that graceful drain hit its deadline and had
// to force-close connections or abandon session drains.
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

	abandoned atomic.Int64 // sessions whose pendings never drained

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
		// Pooled sessions are parked while idle: they keep their
		// epoch-table slot but pin no epoch, so an idle pool never stalls
		// the store's flush/eviction machinery for active sessions.
		//
		// They are also resident-only: a storage miss returns WouldBlock
		// instead of going Pending, and the handler re-routes the miss
		// through the store's io-worker pool after releasing the session
		// and admission token — no pooled session ever blocks on device
		// I/O, so a device latency spike slows only the cold misses that
		// touch it while hot in-memory traffic keeps its full speed.
		sess := store.StartSession()
		sess.SetResidentOnly(true)
		sess.Park()
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

// Sharded exposes the full ensemble being served.
func (s *Server) Sharded() *faster.ShardedStore { return s.store }

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
			if !s.cfg.AcceptRetry.Budget(classifyAcceptErr, err, failures) {
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
		out:  make([]byte, slotOutBytes),
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

// processWindow executes a decoded window in order: maximal runs of
// batchable commands go through dataBatch, everything else through the
// single-command dispatch. Returns false when the connection must close.
func (c *connState) processWindow(cmds []resp.Command) bool {
	for i := 0; i < len(cmds); {
		if !c.batchable(&cmds[i]) {
			if !c.dispatch(cmds[i].Args) {
				return false
			}
			i++
			continue
		}
		j := i + 1
		for j < len(cmds) && c.batchable(&cmds[j]) {
			j++
		}
		if j-i == 1 {
			if !c.dispatch(cmds[i].Args) {
				return false
			}
		} else if !c.dataBatch(cmds[i:j]) {
			return false
		}
		i = j
	}
	return true
}

// batchable reports whether cmd can join a store batch: a well-formed
// GET or SET. Malformed forms keep their single-command error replies,
// and everything else (DEL, INCRBY, PING, QUIT, ...) is a barrier the
// window executes in place.
func (c *connState) batchable(cmd *resp.Command) bool {
	if testPanicCommand != "" {
		return false // preserve injected-panic semantics in tests
	}
	if cmd.Is("GET") {
		return len(cmd.Args) == 2 && len(cmd.Args[1]) > 0
	}
	if cmd.Is("SET") {
		if len(cmd.Args) == 3 {
			return len(cmd.Args[1]) > 0 && len(cmd.Args[2]) <= c.s.cfg.MaxValueBytes
		}
		// Serial-stamped form (SET key value SERIAL n) joins the batch
		// when the connection is bound; otherwise the single-op path
		// renders the proper protocol error.
		if len(cmd.Args) == 5 && c.token != nil {
			serial, _, errMsg := splitSerial(cmd.Args)
			return serial > 0 && errMsg == "" && len(cmd.Args[1]) > 0 &&
				len(cmd.Args[2]) <= c.s.cfg.MaxValueBytes
		}
		return false
	}
	return false
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

// Pipelining window shape: a burst of buffered commands is decoded into
// pooled per-slot storage and executed as store batches.
const (
	// maxWindowCmds caps commands decoded per window (the ExecBatch size).
	maxWindowCmds = 64
	// windowByteBudget caps the decoded argument bytes a window may pin.
	windowByteBudget = 256 << 10
	// slotOutBytes sizes the pooled per-slot GET output (frame header +
	// payload); larger stored values take the exact-size fallback re-read.
	slotOutBytes = 8 + 4096
	// inlineReplyMax is the largest GET payload copied into the reply
	// scratch; larger payloads ride as their own vectored-write element,
	// straight from the slot buffer.
	inlineReplyMax = 512
)

// replySeg marks a boundary in the batched reply scratch: everything up
// to end is one net.Buffers element, followed by payload (when non-nil)
// as a zero-copy element of its own.
type replySeg struct {
	end     int
	payload []byte
}

// connState is one connection's parsing and reply state. The batch
// fields are pooled per connection so a steady pipelined workload
// decodes, executes and replies without per-command allocations.
type connState struct {
	s    *Server
	conn net.Conn
	r    *resp.Reader
	w    *resp.Writer
	out  []byte // read output buffer, grown to the largest frame read so far

	cmds  []resp.Command   // per-slot pooled command decode storage
	bops  []faster.BatchOp // batch ops, 1:1 with the run's executable commands
	outs  [][]byte         // per-slot pooled GET outputs (lazily allocated)
	val   []byte           // arena for the run's framed SET values
	reply []byte           // reply scratch for the vectored write
	segs  []replySeg
	vecs  net.Buffers

	// Asynchronous miss state: async describes a command step that hit
	// WouldBlock on the resident-only session and must continue through
	// the io-worker pool once the session and admission token are back in
	// their pools. ioch is the connection's completion channel, iodone the
	// one callback that delivers into it and iotimer the backstop timer:
	// all three are made at the first miss and reused by every later one.
	// ioch holds a full window of results, so a delivery can never block a
	// worker, even a late one after the backstop tripped.
	async   asyncCmd
	ioch    chan faster.Result
	iodone  func(faster.Result)
	iotimer *time.Timer

	// Exactly-once session state: token is the connection's durable
	// sharded session binding (SESSION <guid>), released on teardown; a
	// stamped operation runs under its key's shard token. nextSerial is
	// the connection's stream-wide gap detector — sparse per-shard serial
	// tables admit any forward serial, so only the connection (which sees
	// the whole stream) can reject one that skips ahead. smeta and slotop
	// carry per-slot serial bookkeeping through a batched run: slotop[i]
	// indexes the slot's BatchOp, or -1 when the serial verdict resolved
	// the slot without executing (replay/stale/gap/fenced).
	token      *faster.ShardedToken
	nextSerial uint64
	smeta      []slotMeta
	slotop     []int
	slotTok    []*faster.SessionToken // per-slot shard token (batch pre-scan)
	winOpen    []bool                 // per-shard open-window marks (batch scratch)
	ackBuf     []byte                 // scratch for rendering "ACK <serial> <result>" bodies
}

// asyncCmd is a command continuation for a WouldBlock miss: the step of
// the command that must resume through the io-worker pool. kind 0 means
// no continuation is pending.
type asyncCmd struct {
	kind  byte   // 'G' = GET, 'I' = INCRBY
	key   []byte // borrowed from the window's decode storage
	delta int64  // INCRBY operand
	step  int    // INCRBY resume point: 0 pre-read, 1 RMW, 2 post-read
}

// slotMeta is one batched slot's serial bookkeeping. verdict is only
// meaningful when serial > 0; saved holds the reply body to emit for
// replayed and committed slots; tok is the key's shard token the serial
// was admitted on.
type slotMeta struct {
	serial    uint64
	verdict   faster.SerialVerdict
	saved     []byte
	tok       *faster.SessionToken
	committed bool
}

// testPanicCommand, when set (tests only, before serving starts), makes
// dispatch panic on that command — the recovery tests use it to prove a
// handler panic costs one connection, not the process.
var testPanicCommand string

// dispatch executes one command; false means the connection must close.
func (c *connState) dispatch(args [][]byte) bool {
	s := c.s
	s.mx.commands.Inc()
	if testPanicCommand != "" && len(args) > 0 && commandName(args[0]) == testPanicCommand {
		panic("injected handler panic: " + testPanicCommand)
	}
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
	case "GET", "SET", "DEL", "INCRBY":
		ok := c.dataCommand(name, args)
		if c.async.kind != 0 {
			// The command hit a storage miss on the resident-only session.
			// dataCommand's deferred releases have already returned the
			// session and admission token, so the continuation holds
			// nothing that hot traffic needs — only this connection waits.
			a := c.async
			c.async = asyncCmd{}
			if ok {
				c.runAsync(&a)
			}
		}
		return ok
	case "MGET":
		return c.doMGet(args)
	case "MSET":
		return c.doMSet(args)
	case "SESSION":
		return c.doSession(args)
	case "COMPACT":
		return c.doCompact(args)
	case "MEMORY":
		return c.doMemory(args)
	default:
		s.mx.unknownCommands.Inc()
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

// dataCommand runs a store-touching command under the health gate, the
// admission semaphore and the session pool. Returns false to close the
// connection (Failed sheds).
func (c *connState) dataCommand(name string, args [][]byte) bool {
	s := c.s
	isWrite := name != "GET"

	// Exactly-once stamping: strip a trailing "SERIAL <n>" before the
	// gates so malformed stamps are rejected without burning admission.
	serial, sargs, serr := splitSerial(args)
	if serr != "" {
		c.w.WriteError(serr)
		return true
	}
	if serial > 0 {
		if !isWrite {
			c.w.WriteError("ERR SERIAL is not allowed on reads")
			return true
		}
		if c.token == nil {
			c.w.WriteError("ERR no session bound; send SESSION <guid> first")
			return true
		}
		if name == "DEL" && len(sargs) != 2 {
			// A serial lives on exactly one shard — its key's — so a
			// stamped DEL cannot span the key space.
			c.w.WriteError("ERR a stamped DEL takes exactly one key")
			return true
		}
	}
	args = sargs

	// Health ladder, per shard: the command is gated by the health of the
	// shards its keys route to, so one poisoned shard degrades only its
	// own keys. ReadOnly: writes fail fast, reads keep serving. Failed:
	// the key is unservable, but the connection is shed only when every
	// shard is gone — siblings keep serving their keys.
	var kh faster.Health
	if len(args) >= 2 {
		if name == "DEL" {
			for _, k := range args[1:] {
				if h := s.store.HealthFor(k); h > kh {
					kh = h
				}
			}
		} else {
			kh = s.store.HealthFor(args[1])
		}
	}
	switch kh {
	case faster.Failed:
		s.mx.failedRejects.Inc()
		c.w.WriteError("FAILED store failed (device lost)")
		return !s.allShardsFailed()
	case faster.ReadOnly:
		if isWrite {
			s.mx.readonlyRejects.Inc()
			c.w.WriteError("READONLY store is read-only (write path lost)")
			return true
		}
	}

	// Admission: a full semaphore sheds immediately — the explicit
	// -OVERLOADED contract, never an unbounded queue.
	select {
	case s.inflight <- struct{}{}:
	default:
		s.mx.overloadSheds.Inc()
		c.w.WriteError("OVERLOADED too many requests in flight")
		return true
	}
	defer func() { <-s.inflight }()
	s.mx.inflightDepth.Inc()
	defer s.mx.inflightDepth.Dec()

	// Session pool: bounded wait, then shed. Fast path first.
	sess, shed, down := s.acquireSession()
	if down {
		c.w.WriteError("ERR server shutting down")
		return false
	}
	if shed {
		c.w.WriteError("OVERLOADED no session available")
		return true
	}
	sess.Unpark()
	healthy := true
	defer func() {
		if healthy {
			sess.Park()
			s.sessions <- sess
		} else {
			s.retireSession(sess)
		}
	}()

	start := time.Now()
	defer func() { s.mx.cmdLatency.Observe(time.Since(start)) }()

	if serial > 0 {
		// Stamped ops stay on the synchronous pinned-session path: the
		// serial window must not stay open across an out-of-band pool
		// completion. Blocking I/O is allowed again for the duration, with
		// the op deadline propagated down to the device retry chain so a
		// wedged device sheds the op with -TIMEOUT (serial retryable,
		// health ladder untouched) instead of pinning the handler.
		sess.SetResidentOnly(false)
		sess.SetOpDeadline(start.Add(s.cfg.OpTimeout))
		healthy = c.doStamped(sess, name, args, serial)
		sess.SetOpDeadline(time.Time{})
		sess.SetResidentOnly(true)
		return true
	}
	switch name {
	case "GET":
		healthy = c.doGet(sess, args)
	case "SET":
		healthy = c.doSet(sess, args)
	case "DEL":
		healthy = c.doDel(sess, args)
	case "INCRBY":
		healthy = c.doIncrBy(sess, args)
	}
	return true
}

// splitSerial strips a trailing "SERIAL <n>" argument pair. serial is 0
// (with the args untouched) when the command is unstamped; a non-empty
// errMsg reports a malformed stamp.
func splitSerial(args [][]byte) (serial uint64, rest [][]byte, errMsg string) {
	if len(args) < 4 || commandName(args[len(args)-2]) != "SERIAL" {
		return 0, args, ""
	}
	n, err := strconv.ParseUint(string(args[len(args)-1]), 10, 64)
	if err != nil || n == 0 {
		return 0, args, "ERR SERIAL must be a positive integer"
	}
	return n, args[:len(args)-2], ""
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
	c.nextSerial = acked + 1
	c.w.WriteInt(int64(acked))
	return true
}

// doStamped executes one serial-tagged write under the key's shard
// window discipline: admit the serial on the shard owning the key, run
// the op, commit the rendered reply crash-atomically with respect to
// checkpoints, then acknowledge with "+ACK <serial> <result>".
// Non-apply verdicts resolve without touching the store. The shard
// token only orders its own sub-stream, so the connection-level
// nextSerial check rejects serials that skip ahead of the whole stream.
func (c *connState) doStamped(sess *faster.ShardedSession, name string, args [][]byte, serial uint64) bool {
	tok := c.token.For(args[1])
	tok.WindowEnter()
	v, saved := tok.Check(serial)
	if v == faster.SerialApply && serial > c.nextSerial {
		// Exiting the window rolls the admission back, so the serial
		// stays retryable once the client fills the gap.
		tok.WindowExit()
		c.w.WriteError(fmt.Sprintf("ERR serial %d skips the next expected serial", serial))
		return true
	}
	switch v {
	case faster.SerialApply:
	case faster.SerialReplay:
		tok.WindowExit()
		c.w.WriteSimple(string(saved))
		return true
	case faster.SerialStale:
		tok.WindowExit()
		c.w.WriteError(fmt.Sprintf("STALE serial %d is at or below the committed frontier", serial))
		return true
	case faster.SerialGap:
		tok.WindowExit()
		c.w.WriteError(fmt.Sprintf("ERR serial %d skips the next expected serial", serial))
		return true
	default: // SerialFenced
		tok.WindowExit()
		c.w.WriteError("FENCED session was re-bound by a newer connection")
		return true
	}

	var (
		result  int64
		isInt   bool
		ok      bool
		healthy bool
	)
	switch name {
	case "SET":
		ok, healthy = c.setCore(sess, args)
	case "DEL":
		result, ok, healthy = c.delCore(sess, args)
		isInt = true
	default: // INCRBY
		result, ok, healthy = c.incrByCore(sess, args)
		isInt = true
	}
	if !ok {
		// The op's error reply is already written. Exiting the window
		// rolls the admission back, so the client may retry this serial.
		tok.WindowExit()
		return healthy
	}
	body := c.ackBuf[:0]
	body = append(body, "ACK "...)
	body = strconv.AppendUint(body, serial, 10)
	body = append(body, ' ')
	if isInt {
		body = strconv.AppendInt(body, result, 10)
	} else {
		body = append(body, "OK"...)
	}
	c.ackBuf = body
	tok.Commit(serial, body)
	tok.WindowExit()
	c.nextSerial = serial + 1
	c.w.WriteSimple(string(body))
	return healthy
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

// retireSession handles a session whose pending operations outlived the
// per-op deadline: it is pulled from rotation and drained off the hot
// path; if the drain completes the session rejoins the pool, otherwise
// it is abandoned (counted — its epoch slot is lost until restart, which
// is the correct trade against a handler goroutine wedged forever).
func (s *Server) retireSession(sess *faster.ShardedSession) {
	s.mx.sessionsRetired.Inc()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer func() {
			if r := recover(); r != nil {
				s.mx.panics.Inc()
				s.abandoned.Add(1)
			}
		}()
		if _, err := sess.CompletePendingTimeout(2 * s.cfg.OpTimeout); err == nil {
			sess.Park()
			s.sessions <- sess
			return
		}
		// Abandoned: never Close (it would block on the wedged op), but
		// park it so the dead session at least stops pinning the epoch —
		// otherwise one wedged client request would stall flushes and
		// evictions for every other session until restart.
		sess.Park()
		s.abandoned.Add(1)
	}()
}

// ---------------------------------------------------------------------------
// Command execution
// ---------------------------------------------------------------------------

// opToken is the ctx attached to asynchronous operations so their
// results can be matched out of CompletePending.
type opToken struct{}

// drainPending completes one Pending operation under the op deadline.
func (c *connState) drainPending(sess *faster.ShardedSession, token *opToken) (faster.Result, bool) {
	results, err := sess.CompletePendingTimeout(c.s.cfg.OpTimeout)
	if err != nil {
		c.s.mx.pendingTimeouts.Inc()
		c.w.WriteError("TIMEOUT operation did not complete in time")
		return faster.Result{}, false
	}
	for _, r := range results {
		if r.Ctx == token {
			return r, true
		}
	}
	// The session had no foreign work (one command at a time), so a
	// missing result is a bug worth surfacing loudly.
	c.w.WriteError("ERR internal: pending result lost")
	return faster.Result{}, false
}

// writeStoreErr renders a store error as a RESP error reply. Deadline
// and admission sheds from the io-worker pool are explicit, counted
// replies — back-pressure, not silent drops — and deliberately do not
// retire sessions or feed the health ladder.
func (c *connState) writeStoreErr(err error) {
	switch {
	case errors.Is(err, faster.ErrOpDeadline):
		c.s.mx.ioShedTimeouts.Inc()
		c.w.WriteError("TIMEOUT operation deadline expired")
	case errors.Is(err, faster.ErrIOQueueFull):
		c.s.mx.ioShedQueueFull.Inc()
		c.w.WriteError("OVERLOADED io queue full")
	case errors.Is(err, faster.ErrStoreClosed):
		c.w.WriteError("ERR server shutting down")
	case errors.Is(err, faster.ErrReadOnly):
		c.s.mx.readonlyRejects.Inc()
		c.w.WriteError("READONLY store is read-only (write path lost)")
	case errors.Is(err, faster.ErrStoreFailed):
		c.s.mx.failedRejects.Inc()
		c.w.WriteError("FAILED store failed (device lost)")
	default:
		c.w.WriteError("ERR " + err.Error())
	}
}

func (c *connState) doGet(sess *faster.ShardedSession, args [][]byte) bool {
	if len(args) != 2 || len(args[1]) == 0 {
		c.w.WriteError("ERR wrong number of arguments for 'get'")
		return true
	}
	st, err, ok := c.readValue(sess, args[1])
	if !ok {
		return false
	}
	switch st {
	case faster.OK:
		payload, ok := faster.VarLenDecode(c.out)
		if !ok {
			c.w.WriteError("ERR stored value exceeds server read buffer")
			return true
		}
		c.w.WriteBulk(payload)
	case faster.NotFound:
		c.w.WriteNil()
	case faster.WouldBlock:
		c.async = asyncCmd{kind: 'G', key: args[1]}
	default:
		c.writeStoreErr(err)
	}
	return true
}

// readValue reads key into c.out, which grows to the frame's length when
// the value does not fit. ok=false means the session must be retired
// (pending timeout).
func (c *connState) readValue(sess *faster.ShardedSession, key []byte) (st faster.Status, err error, ok bool) {
	st, err, c.out, ok = c.readInto(sess, key, c.out)
	return st, err, ok
}

// readInto reads key into out, draining a Pending completion. When the
// stored frame is longer than out — its own header, which a truncated
// read still delivers, says by how much — it re-reads into a buffer of
// exactly that length and returns it in place of out.
func (c *connState) readInto(sess *faster.ShardedSession, key, out []byte) (faster.Status, error, []byte, bool) {
	for {
		token := &opToken{}
		st, err := sess.Read(key, nil, out, token)
		if st == faster.Pending {
			r, ok := c.drainPending(sess, token)
			if !ok {
				return faster.Err, nil, out, false
			}
			st, err = r.Status, r.Err
		}
		need := faster.VarLenFrameLen(out)
		if st != faster.OK || need <= len(out) {
			return st, err, out, true
		}
		out = make([]byte, need)
	}
}

func (c *connState) doSet(sess *faster.ShardedSession, args [][]byte) bool {
	ok, healthy := c.setCore(sess, args)
	if ok {
		c.w.WriteSimple("OK")
	}
	return healthy
}

// setCore validates and executes a SET. ok=false means an error reply
// has already been written; healthy=false retires the session.
func (c *connState) setCore(sess *faster.ShardedSession, args [][]byte) (ok, healthy bool) {
	if len(args) != 3 || len(args[1]) == 0 {
		c.w.WriteError("ERR wrong number of arguments for 'set'")
		return false, true
	}
	if len(args[2]) > c.s.cfg.MaxValueBytes {
		c.w.WriteError(fmt.Sprintf("ERR value exceeds %d bytes", c.s.cfg.MaxValueBytes))
		return false, true
	}
	st, err := sess.Upsert(args[1], faster.VarLenEncode(args[2]))
	if st != faster.OK {
		c.writeStoreErr(err)
		return false, true
	}
	return true, true
}

func (c *connState) doDel(sess *faster.ShardedSession, args [][]byte) bool {
	deleted, ok, healthy := c.delCore(sess, args)
	if ok {
		c.w.WriteInt(deleted)
	}
	return healthy
}

// delCore validates and executes a DEL, returning the deleted count.
func (c *connState) delCore(sess *faster.ShardedSession, args [][]byte) (deleted int64, ok, healthy bool) {
	if len(args) < 2 {
		c.w.WriteError("ERR wrong number of arguments for 'del'")
		return 0, false, true
	}
	for _, key := range args[1:] {
		if len(key) == 0 {
			continue
		}
		st, err := sess.Delete(key)
		switch st {
		case faster.OK:
			deleted++
		case faster.NotFound:
		default:
			c.writeStoreErr(err)
			return 0, false, true
		}
	}
	return deleted, true, true
}

func (c *connState) doIncrBy(sess *faster.ShardedSession, args [][]byte) bool {
	n, ok, healthy := c.incrByCore(sess, args)
	if ok {
		c.w.WriteInt(n)
	}
	return healthy
}

// incrByCore validates and executes an INCRBY, returning the updated
// counter value.
func (c *connState) incrByCore(sess *faster.ShardedSession, args [][]byte) (n int64, ok, healthy bool) {
	if len(args) != 3 || len(args[1]) == 0 {
		c.w.WriteError("ERR wrong number of arguments for 'incrby'")
		return 0, false, true
	}
	delta, perr := strconv.ParseInt(string(args[2]), 10, 64)
	if perr != nil {
		c.w.WriteError("ERR value is not an integer or out of range")
		return 0, false, true
	}
	key := args[1]

	// Type pre-check: INCRBY on a non-counter value is a client error,
	// not a reset. (A concurrent SET can still race this check; the ops'
	// reset semantics keep that race well-defined.)
	st, err, rok := c.readValue(sess, key)
	if !rok {
		return 0, false, false
	}
	if st == faster.WouldBlock {
		c.async = asyncCmd{kind: 'I', key: key, delta: delta, step: 0}
		return 0, false, true
	}
	if st == faster.OK {
		if _, isCtr := faster.VarLenCounter(c.out); !isCtr {
			c.w.WriteError("ERR value is not an integer or out of range")
			return 0, false, true
		}
	} else if st == faster.Err {
		c.writeStoreErr(err)
		return 0, false, true
	}

	// The 9th input byte is VarLenOps's overflow status channel: the
	// updater writes 1 there instead of wrapping the counter. On the
	// pending path the updater ran against the store's copy of the input,
	// so the verdict comes back in Result.Input.
	var input [9]byte
	binary.LittleEndian.PutUint64(input[:8], uint64(delta))
	token := &opToken{}
	st, err = sess.RMW(key, input[:], token)
	overflowed := input[8] != 0
	if st == faster.WouldBlock {
		c.async = asyncCmd{kind: 'I', key: key, delta: delta, step: 1}
		return 0, false, true
	}
	if st == faster.Pending {
		r, drok := c.drainPending(sess, token)
		if !drok {
			return 0, false, false
		}
		st, err = r.Status, r.Err
		overflowed = len(r.Input) >= 9 && r.Input[8] != 0
	}
	if st != faster.OK {
		c.writeStoreErr(err)
		return 0, false, true
	}
	if overflowed {
		// A client asking for an impossible increment is not a store
		// fault: reply like Redis does and leave the counter (and the
		// health ladder) untouched.
		c.w.WriteError("ERR increment or decrement would overflow")
		return 0, false, true
	}

	// Report the updated counter. Under concurrent INCRBY of the same
	// key the read may observe later increments — the reply is a recent
	// value, not a linearisation point (documented deviation).
	st, err, rok = c.readValue(sess, key)
	if !rok {
		return 0, false, false
	}
	if st == faster.WouldBlock {
		c.async = asyncCmd{kind: 'I', key: key, delta: delta, step: 2}
		return 0, false, true
	}
	if st != faster.OK {
		c.writeStoreErr(fmt.Errorf("counter vanished: %v %v", st, err))
		return 0, false, true
	}
	n, isCtr := faster.VarLenCounter(c.out)
	if !isCtr {
		c.w.WriteError("ERR value is not an integer or out of range")
		return 0, false, true
	}
	return n, true, true
}

// ---------------------------------------------------------------------------
// Out-of-band miss completion (the stall-free slow path)
// ---------------------------------------------------------------------------

// runAsync finishes a command whose storage miss was re-routed through
// the store's io-worker pool. It runs on the connection goroutine with
// no pooled session and no admission token held: the only thing waiting
// is this connection's reply slot, which RESP's in-order protocol
// requires anyway. Every outcome — including deadline and queue-full
// sheds — produces an explicit reply.
func (c *connState) runAsync(a *asyncCmd) {
	s := c.s
	start := time.Now()
	deadline := start.Add(s.cfg.OpTimeout)
	defer func() { s.mx.cmdLatency.Observe(time.Since(start)) }()
	switch a.kind {
	case 'G':
		c.asyncGet(a, deadline)
	default: // 'I'
		c.asyncIncrBy(a, deadline)
	}
}

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

// submitWait routes one operation through the io-worker pool and blocks
// this connection (only) until its out-of-band completion.
func (c *connState) submitWait(isRMW bool, key, input []byte, deadline time.Time) (faster.Result, error) {
	s := c.s
	c.ioBegin(deadline)
	defer c.ioEnd()
	var err error
	if isRMW {
		err = s.store.SubmitRMW(key, input, deadline, nil, c.iodone)
	} else {
		err = s.store.SubmitRead(key, input, deadline, nil, c.iodone)
	}
	if err != nil {
		return faster.Result{}, err
	}
	s.mx.ioAsync.Inc()
	r, ok := c.ioAwait()
	if !ok {
		return faster.Result{}, faster.ErrOpDeadline
	}
	return r, nil
}

// asyncGet completes a GET whose record lives below the in-memory
// region. The output is the pool's, exactly the stored frame's size, and
// ownership transfers with the result.
func (c *connState) asyncGet(a *asyncCmd, deadline time.Time) {
	r, err := c.submitWait(false, a.key, nil, deadline)
	if err != nil {
		c.writeStoreErr(err)
		return
	}
	switch r.Status {
	case faster.OK:
		payload, ok := faster.VarLenDecode(r.Output)
		if !ok {
			c.w.WriteError("ERR stored value exceeds server read buffer")
			return
		}
		c.w.WriteBulk(payload)
	case faster.NotFound:
		c.w.WriteNil()
	default:
		c.writeStoreErr(r.Err)
	}
}

// asyncIncrBy resumes an INCRBY from the step that missed, driving the
// remaining pre-read / RMW / post-read steps through the pool. All
// steps share one command deadline. Semantics match incrByCore; the
// overflow verdict rides back in Result.Input's 9th byte.
func (c *connState) asyncIncrBy(a *asyncCmd, deadline time.Time) {
	if a.step <= 0 {
		r, err := c.submitWait(false, a.key, nil, deadline)
		if err != nil {
			c.writeStoreErr(err)
			return
		}
		switch r.Status {
		case faster.OK:
			if _, isCtr := faster.VarLenCounter(r.Output); !isCtr {
				c.w.WriteError("ERR value is not an integer or out of range")
				return
			}
		case faster.NotFound:
		default:
			c.writeStoreErr(r.Err)
			return
		}
	}
	if a.step <= 1 {
		var input [9]byte
		binary.LittleEndian.PutUint64(input[:8], uint64(a.delta))
		r, err := c.submitWait(true, a.key, input[:], deadline)
		if err != nil {
			c.writeStoreErr(err)
			return
		}
		if r.Status != faster.OK {
			c.writeStoreErr(r.Err)
			return
		}
		if len(r.Input) >= 9 && r.Input[8] != 0 {
			c.w.WriteError("ERR increment or decrement would overflow")
			return
		}
	}
	r, err := c.submitWait(false, a.key, nil, deadline)
	if err != nil {
		c.writeStoreErr(err)
		return
	}
	if r.Status != faster.OK {
		c.writeStoreErr(fmt.Errorf("counter vanished: %v %v", r.Status, r.Err))
		return
	}
	n, isCtr := faster.VarLenCounter(r.Output)
	if !isCtr {
		c.w.WriteError("ERR value is not an integer or out of range")
		return
	}
	c.w.WriteInt(n)
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
		s.mx.failedRejects.Inc()
		c.w.WriteError("FAILED store failed (device lost)")
		return !s.allShardsFailed()
	case faster.ReadOnly:
		s.mx.readonlyRejects.Inc()
		c.w.WriteError("READONLY store is read-only (write path lost)")
		return true
	}
	s.mx.compactRuns.Inc()
	stats, err := s.store.CompactAll()
	if err != nil {
		c.writeStoreErr(err)
		return true
	}
	c.w.WriteInt(int64(stats.ReclaimedBytes))
	return true
}

// doMemory reports the log's space accounting as a flat array of
// name/value bulk-string pairs (MEMORY or MEMORY STATS). A single-shard
// server reports the flat store's exact accounting; a sharded one sums
// the byte and event counters across shards (per-shard addresses do not
// aggregate) and adds a "shards" pair.
func (c *connState) doMemory(args [][]byte) bool {
	if len(args) > 2 || (len(args) == 2 && commandName(args[1]) != "STATS") {
		c.w.WriteError("ERR unknown MEMORY subcommand")
		return true
	}
	if n := c.s.store.NumShards(); n > 1 {
		return c.memoryPairsSharded(n)
	}
	store := c.s.store.Shard(0)
	l := store.Log()
	m := store.Metrics()
	pairs := [][2]string{
		{"begin_address", strconv.FormatUint(l.BeginAddress(), 10)},
		{"head_address", strconv.FormatUint(l.HeadAddress(), 10)},
		{"safe_read_only_address", strconv.FormatUint(l.SafeReadOnlyAddress(), 10)},
		{"tail_address", strconv.FormatUint(l.TailAddress(), 10)},
		{"log_bytes", strconv.FormatUint(l.TailAddress()-l.BeginAddress(), 10)},
		{"stable_bytes", strconv.FormatUint(m.Log.StableBytes, 10)},
		{"mutable_bytes", strconv.FormatUint(m.Log.MutableBytes, 10)},
		{"compactions", strconv.FormatUint(m.Compactions, 10)},
		{"compacted_bytes", strconv.FormatUint(m.CompactedBytes, 10)},
		{"reclaimed_bytes", strconv.FormatUint(m.ReclaimedBytes, 10)},
		{"truncated_until", strconv.FormatUint(m.Log.TruncatedUntil, 10)},
		{"truncated_bytes", strconv.FormatUint(m.Log.TruncatedBytes, 10)},
	}
	if stored, ok := store.DeviceStoredBytes(); ok {
		pairs = append(pairs, [2]string{"device_stored_bytes", strconv.FormatUint(stored, 10)})
	}
	pairs = append(pairs,
		[2]string{"read_cache_bytes", strconv.FormatInt(m.ReadCache.Bytes, 10)},
		[2]string{"read_cache_hits", strconv.FormatUint(m.ReadCache.Hits, 10)},
		[2]string{"read_cache_misses", strconv.FormatUint(m.ReadCache.Misses, 10)},
		[2]string{"read_cache_fills", strconv.FormatUint(m.ReadCache.Fills, 10)},
		[2]string{"read_cache_evictions", strconv.FormatUint(m.ReadCache.Evictions, 10)},
		[2]string{"read_cache_invalidations", strconv.FormatUint(m.ReadCache.Invalidations, 10)},
		[2]string{"coalesced_reads", strconv.FormatUint(m.IOCoalescedReads, 10)},
	)
	c.w.WriteArrayHeader(2 * len(pairs))
	for _, p := range pairs {
		c.w.WriteBulk([]byte(p[0]))
		c.w.WriteBulk([]byte(p[1]))
	}
	return true
}

// memoryPairsSharded renders the ensemble's aggregated accounting.
func (c *connState) memoryPairsSharded(n int) bool {
	var logBytes, stable, mutable, compactions, compacted, reclaimed, truncated, stored uint64
	var rcHits, rcMisses, rcFills, rcEvict, rcInval, coalesced uint64
	var rcBytes int64
	haveStored := false
	for i := 0; i < n; i++ {
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
		rcBytes += m.ReadCache.Bytes
		rcHits += m.ReadCache.Hits
		rcMisses += m.ReadCache.Misses
		rcFills += m.ReadCache.Fills
		rcEvict += m.ReadCache.Evictions
		rcInval += m.ReadCache.Invalidations
		coalesced += m.IOCoalescedReads
		if db, ok := s.DeviceStoredBytes(); ok {
			stored += db
			haveStored = true
		}
	}
	pairs := [][2]string{
		{"shards", strconv.Itoa(n)},
		{"log_bytes", strconv.FormatUint(logBytes, 10)},
		{"stable_bytes", strconv.FormatUint(stable, 10)},
		{"mutable_bytes", strconv.FormatUint(mutable, 10)},
		{"compactions", strconv.FormatUint(compactions, 10)},
		{"compacted_bytes", strconv.FormatUint(compacted, 10)},
		{"reclaimed_bytes", strconv.FormatUint(reclaimed, 10)},
		{"truncated_bytes", strconv.FormatUint(truncated, 10)},
	}
	if haveStored {
		pairs = append(pairs, [2]string{"device_stored_bytes", strconv.FormatUint(stored, 10)})
	}
	pairs = append(pairs,
		[2]string{"read_cache_bytes", strconv.FormatInt(rcBytes, 10)},
		[2]string{"read_cache_hits", strconv.FormatUint(rcHits, 10)},
		[2]string{"read_cache_misses", strconv.FormatUint(rcMisses, 10)},
		[2]string{"read_cache_fills", strconv.FormatUint(rcFills, 10)},
		[2]string{"read_cache_evictions", strconv.FormatUint(rcEvict, 10)},
		[2]string{"read_cache_invalidations", strconv.FormatUint(rcInval, 10)},
		[2]string{"coalesced_reads", strconv.FormatUint(coalesced, 10)},
	)
	c.w.WriteArrayHeader(2 * len(pairs))
	for _, p := range pairs {
		c.w.WriteBulk([]byte(p[0]))
		c.w.WriteBulk([]byte(p[1]))
	}
	return true
}

// ---------------------------------------------------------------------------
// Multi-key commands (MGET/MSET): explicit cluster windows
// ---------------------------------------------------------------------------

// runMulti executes c.bops as one admitted window on a pooled session:
// the session facade splits it into concurrent per-shard sub-batches
// and rejoins the statuses in slot order. Cold read misses resolve
// through the shards' io-worker pools after the session and admission
// token are back in their pools. ok=false means the run was shed (an
// error reply has been written); closeConn reports that the connection
// must close.
func (c *connState) runMulti() (ok, closeConn bool) {
	s := c.s
	select {
	case s.inflight <- struct{}{}:
	default:
		s.mx.overloadSheds.Inc()
		c.w.WriteError("OVERLOADED too many requests in flight")
		return false, false
	}
	s.mx.inflightDepth.Inc()
	sess, shed, down := s.acquireSession()
	if down || shed {
		<-s.inflight
		s.mx.inflightDepth.Dec()
		if down {
			c.w.WriteError("ERR server shutting down")
			return false, true
		}
		c.w.WriteError("OVERLOADED no session available")
		return false, false
	}
	sess.Unpark()
	released := false
	release := func(healthy bool) {
		if released {
			return
		}
		released = true
		if healthy {
			sess.Park()
			s.sessions <- sess
		} else {
			s.retireSession(sess)
		}
		<-s.inflight
		s.mx.inflightDepth.Dec()
	}
	defer func() { release(false) }()

	start := time.Now()
	healthy := true
	if err := sess.ExecBatch(c.bops); err != nil {
		for i := range c.bops {
			c.bops[i].Status, c.bops[i].Err = faster.Err, err
		}
		release(true)
		s.mx.cmdLatency.Observe(time.Since(start))
		return true, false
	}
	pending := 0
	for i := range c.bops {
		if c.bops[i].Status == faster.Pending {
			pending++
		}
	}
	if pending > 0 {
		results, derr := sess.CompletePendingTimeout(s.cfg.OpTimeout)
		if derr != nil {
			s.mx.pendingTimeouts.Inc()
			healthy = false // unresolved slots render -TIMEOUT in the caller
		} else {
			for _, r := range results {
				if k, rok := r.Ctx.(int); rok && k >= 0 && k < len(c.bops) {
					c.bops[k].Status, c.bops[k].Err = r.Status, r.Err
				}
			}
		}
	}
	// Oversized values: re-read through an exact-size buffer, mirroring
	// the pipelined batch path.
	for i := range c.bops {
		op := &c.bops[i]
		if !healthy || op.Kind != faster.BatchRead || op.Status != faster.OK {
			continue
		}
		if _, dok := faster.VarLenDecode(op.Output); !dok {
			st, rerr, big, rok := c.readInto(sess, op.Key, make([]byte, faster.VarLenFrameLen(op.Output)))
			if !rok {
				healthy = false
				op.Status = faster.Pending
				continue
			}
			op.Status, op.Err, op.Output = st, rerr, big
		}
	}
	release(healthy)
	s.mx.cmdLatency.Observe(time.Since(start))
	c.resolveBatchAsync(healthy)
	return true, false
}

// doMGet reads every key as one window. The facade fans the reads out
// per shard concurrently; keys on read-only shards keep serving. RESP2
// arrays carry no per-element errors, so the first hard failure fails
// the whole command.
func (c *connState) doMGet(args [][]byte) bool {
	s := c.s
	if len(args) < 2 {
		c.w.WriteError("ERR wrong number of arguments for 'mget'")
		return true
	}
	keys := args[1:]
	if len(keys) > maxWindowCmds {
		c.w.WriteError(fmt.Sprintf("ERR MGET takes at most %d keys", maxWindowCmds))
		return true
	}
	worst := faster.Healthy
	for _, k := range keys {
		if len(k) == 0 {
			c.w.WriteError("ERR empty key")
			return true
		}
		if h := s.store.HealthFor(k); h > worst {
			worst = h
		}
	}
	if worst == faster.Failed {
		s.mx.failedRejects.Inc()
		c.w.WriteError("FAILED store failed (device lost)")
		return !s.allShardsFailed()
	}
	if cap(c.bops) < len(keys) {
		c.bops = make([]faster.BatchOp, 0, maxWindowCmds)
	}
	c.bops = c.bops[:0]
	for i, k := range keys {
		c.bops = append(c.bops, faster.BatchOp{
			Kind: faster.BatchRead, Key: k, Output: c.slotOut(i), Ctx: i,
		})
	}
	ok, closeConn := c.runMulti()
	if !ok {
		return !closeConn
	}
	for i := range c.bops {
		switch c.bops[i].Status {
		case faster.OK, faster.NotFound:
		case faster.Pending, faster.WouldBlock:
			s.mx.pendingTimeouts.Inc()
			c.w.WriteError("TIMEOUT operation did not complete in time")
			return true
		default:
			c.writeStoreErr(c.bops[i].Err)
			return true
		}
	}
	c.w.WriteArrayHeader(len(c.bops))
	for i := range c.bops {
		if c.bops[i].Status == faster.NotFound {
			c.w.WriteNil()
			continue
		}
		payload, dok := faster.VarLenDecode(c.bops[i].Output)
		if !dok {
			payload = nil // defensive: the oversized re-read resolved these
		}
		c.w.WriteBulk(payload)
	}
	return true
}

// doMSet writes every key/value pair as one window, fanned out per
// shard. All-or-error reply: +OK only when every pair applied; a
// failure on any shard reports that shard's error (earlier pairs may
// have applied — MSET is not transactional, matching Redis).
func (c *connState) doMSet(args [][]byte) bool {
	s := c.s
	if len(args) < 3 || len(args)%2 != 1 {
		c.w.WriteError("ERR wrong number of arguments for 'mset'")
		return true
	}
	pairs := (len(args) - 1) / 2
	if pairs > maxWindowCmds {
		c.w.WriteError(fmt.Sprintf("ERR MSET takes at most %d pairs", maxWindowCmds))
		return true
	}
	worst := faster.Healthy
	need := 0
	for i := 0; i < pairs; i++ {
		k, v := args[1+2*i], args[2+2*i]
		if len(k) == 0 {
			c.w.WriteError("ERR empty key")
			return true
		}
		if len(v) > s.cfg.MaxValueBytes {
			c.w.WriteError(fmt.Sprintf("ERR value exceeds %d bytes", s.cfg.MaxValueBytes))
			return true
		}
		need += 8 + len(v)
		if h := s.store.HealthFor(k); h > worst {
			worst = h
		}
	}
	switch worst {
	case faster.Failed:
		s.mx.failedRejects.Inc()
		c.w.WriteError("FAILED store failed (device lost)")
		return !s.allShardsFailed()
	case faster.ReadOnly:
		s.mx.readonlyRejects.Inc()
		c.w.WriteError("READONLY store is read-only (write path lost)")
		return true
	}
	if cap(c.val) < need {
		c.val = make([]byte, 0, need)
	}
	val := c.val[:0]
	if cap(c.bops) < pairs {
		c.bops = make([]faster.BatchOp, 0, maxWindowCmds)
	}
	c.bops = c.bops[:0]
	for i := 0; i < pairs; i++ {
		frame := faster.VarLenAppend(val, args[2+2*i])
		c.bops = append(c.bops, faster.BatchOp{
			Kind: faster.BatchUpsert, Key: args[1+2*i], Value: frame[len(val):], Ctx: i,
		})
		val = frame
	}
	ok, closeConn := c.runMulti()
	if !ok {
		return !closeConn
	}
	for i := range c.bops {
		if st := c.bops[i].Status; st != faster.OK {
			if st == faster.Pending || st == faster.WouldBlock {
				s.mx.pendingTimeouts.Inc()
				c.w.WriteError("TIMEOUT operation did not complete in time")
			} else {
				c.writeStoreErr(c.bops[i].Err)
			}
			return true
		}
	}
	c.w.WriteSimple("OK")
	return true
}

// ---------------------------------------------------------------------------
// Batched execution (pipelined GET/SET windows)
// ---------------------------------------------------------------------------

// dataBatch executes a run of well-formed GET/SET commands as one store
// batch: the health gate, admission token and pooled session are paid
// once for the run, the operations go through Session.ExecBatch, and the
// replies leave in a single vectored write. Per-command semantics match
// the single-op path; only the bookkeeping is amortized. Returns false
// when the connection must close.
func (c *connState) dataBatch(cmds []resp.Command) bool {
	s := c.s

	// Health ladder, once per run, on the worst shard. Any shard worse
	// than Degraded degrades the run to the single-op path, whose
	// per-key gates isolate the sick shard: keys on healthy shards keep
	// full service, SETs on a read-only shard get -READONLY, keys on a
	// failed shard get -FAILED. Only a fully failed ensemble sheds the
	// connection. Batching is a fast-path concern, not a degraded-mode
	// one.
	switch s.store.Health() {
	case faster.Failed, faster.ReadOnly:
		if s.allShardsFailed() {
			s.mx.commands.Inc()
			s.mx.failedRejects.Inc()
			c.w.WriteError("FAILED store failed (device lost)")
			return false
		}
		for i := range cmds {
			if !c.dispatch(cmds[i].Args) {
				return false
			}
		}
		return true
	}
	s.mx.commands.Add(uint64(len(cmds)))

	// Admission: one token per run — a batch is one unit of store work.
	select {
	case s.inflight <- struct{}{}:
	default:
		s.mx.overloadSheds.Inc()
		for range cmds {
			c.w.WriteError("OVERLOADED too many requests in flight")
		}
		return true
	}
	s.mx.inflightDepth.Inc()

	sess, shed, down := s.acquireSession()
	if down || shed {
		<-s.inflight
		s.mx.inflightDepth.Dec()
		if down {
			c.w.WriteError("ERR server shutting down")
			return false
		}
		for range cmds {
			c.w.WriteError("OVERLOADED no session available")
		}
		return true
	}
	sess.Unpark()

	// The session and admission token go back to their pools as soon as
	// the resident work is done — before any cold WouldBlock slot is
	// resolved through the io-worker pool — so a batch of cold misses
	// cannot hold capacity that hot traffic needs. The deferred release
	// is only the panic backstop.
	released := false
	release := func(healthy bool) {
		if released {
			return
		}
		released = true
		if healthy {
			sess.Park()
			s.sessions <- sess
		} else {
			s.retireSession(sess)
		}
		<-s.inflight
		s.mx.inflightDepth.Dec()
	}
	defer func() { release(false) }()

	start := time.Now()
	healthy := c.execBatch(sess, cmds)
	release(healthy)
	s.mx.cmdLatency.Observe(time.Since(start))
	c.resolveBatchAsync(healthy)
	return c.flushBatchReplies(cmds)
}

// resolveBatchAsync completes the run's WouldBlock GET slots through the
// io-worker pool, submitting them all before waiting so independent
// misses overlap on the device. Submit failures (queue full, shutdown)
// land in the slot's Err and render as explicit sheds.
func (c *connState) resolveBatchAsync(healthy bool) {
	s := c.s
	if !healthy {
		return // unresolved slots render -TIMEOUT below
	}
	outstanding := 0
	for i := range c.bops {
		if c.bops[i].Kind == faster.BatchRead && c.bops[i].Status == faster.WouldBlock {
			outstanding++
		}
	}
	if outstanding == 0 {
		return
	}
	deadline := time.Now().Add(s.cfg.OpTimeout)
	c.ioBegin(deadline)
	defer c.ioEnd()
	submitted := 0
	for i := range c.bops {
		op := &c.bops[i]
		if op.Kind != faster.BatchRead || op.Status != faster.WouldBlock {
			continue
		}
		if err := s.store.SubmitRead(op.Key, nil, deadline, i, c.iodone); err != nil {
			op.Status, op.Err = faster.Err, err
			continue
		}
		s.mx.ioAsync.Inc()
		submitted++
	}
	for k := 0; k < submitted; k++ {
		r, ok := c.ioAwait()
		if !ok {
			// Defensive backstop only: pool delivery is deadline-bounded.
			for i := range c.bops {
				if c.bops[i].Kind == faster.BatchRead && c.bops[i].Status == faster.WouldBlock {
					c.bops[i].Status, c.bops[i].Err = faster.Err, faster.ErrOpDeadline
				}
			}
			return
		}
		if idx, ok := r.Ctx.(int); ok && idx >= 0 && idx < len(c.bops) {
			c.bops[idx].Status, c.bops[idx].Err, c.bops[idx].Output = r.Status, r.Err, r.Output
		}
	}
}

// execBatch builds the BatchOps for a run, executes them, drains any
// pending completions and resolves oversized GETs. Outcomes land in
// c.bops[i].Status/Err with outputs filled; the return value is the
// session's health (false retires it).
func (c *connState) execBatch(sess *faster.ShardedSession, cmds []resp.Command) bool {
	s := c.s
	if cap(c.bops) < len(cmds) {
		c.bops = make([]faster.BatchOp, 0, maxWindowCmds)
	}
	c.bops = c.bops[:0]
	c.smeta = c.smeta[:0]
	c.slotop = c.slotop[:0]

	// The SET arena is sized up front so appends cannot regrow it and
	// invalidate the value slices already handed to earlier ops.
	need := 0
	for i := range cmds {
		if cmds[i].Is("SET") {
			need += 8 + len(cmds[i].Args[2])
		}
	}
	if cap(c.val) < need {
		c.val = make([]byte, 0, need)
	}
	val := c.val[:0]

	// Serial admission happens in command order inside per-shard session
	// windows, which stay open across the store batch so a concurrent
	// checkpoint cannot cut between an op's record and its commit. The
	// windows of every shard a stamped slot routes to are opened up front
	// in ascending shard order — the same global order the sharded
	// checkpoint barrier takes its write locks in — so a multi-window
	// batch can never deadlock against a concurrent checkpoint. The
	// stream-wide gap check lives here on the connection (sparse shard
	// tables admit any forward serial); expect tracks admissions within
	// the window, c.nextSerial advances only on commit.
	windowOpen := false
	nShards := 0
	if c.token != nil {
		nShards = s.store.NumShards()
		if cap(c.winOpen) < nShards {
			c.winOpen = make([]bool, nShards)
		}
		c.winOpen = c.winOpen[:nShards]
		for i := range c.winOpen {
			c.winOpen[i] = false
		}
		c.slotTok = c.slotTok[:0]
		for i := range cmds {
			var tok *faster.SessionToken
			if cmds[i].Is("SET") && len(cmds[i].Args) == 5 {
				if serial, _, _ := splitSerial(cmds[i].Args); serial > 0 {
					sh := s.store.ShardFor(cmds[i].Args[1])
					c.winOpen[sh] = true
					tok = c.token.Tok(sh)
				}
			}
			c.slotTok = append(c.slotTok, tok)
		}
		for sh := 0; sh < nShards; sh++ {
			if c.winOpen[sh] {
				c.token.Tok(sh).WindowEnter()
				windowOpen = true
			}
		}
	}
	closeWindows := func() {
		for sh := nShards - 1; sh >= 0; sh-- {
			if c.winOpen[sh] {
				c.token.Tok(sh).WindowExit()
			}
		}
	}
	expect := c.nextSerial
	for i := range cmds {
		cmd := &cmds[i]
		var meta slotMeta
		if cmd.Is("SET") && len(cmd.Args) == 5 {
			meta.serial, _, _ = splitSerial(cmd.Args)
		}
		if meta.serial > 0 {
			meta.tok = c.slotTok[i]
			if meta.serial > expect {
				// Connection-level gap: resolved before the shard token so
				// no admission needs rolling back.
				meta.verdict = faster.SerialGap
				c.smeta = append(c.smeta, meta)
				c.slotop = append(c.slotop, -1)
				continue
			}
			meta.verdict, meta.saved = meta.tok.Check(meta.serial)
			if meta.verdict != faster.SerialApply {
				// Resolved without touching the store.
				c.smeta = append(c.smeta, meta)
				c.slotop = append(c.slotop, -1)
				continue
			}
			expect = meta.serial + 1
		}
		c.smeta = append(c.smeta, meta)
		c.slotop = append(c.slotop, len(c.bops))
		if cmd.Is("GET") {
			c.bops = append(c.bops, faster.BatchOp{
				Kind: faster.BatchRead, Key: cmd.Args[1],
				Output: c.slotOut(i), Ctx: len(c.bops),
			})
			continue
		}
		frame := faster.VarLenAppend(val, cmd.Args[2])
		c.bops = append(c.bops, faster.BatchOp{
			Kind: faster.BatchUpsert, Key: cmd.Args[1],
			Value: frame[len(val):], Ctx: len(c.bops),
		})
		val = frame
	}

	if err := sess.ExecBatch(c.bops); err != nil {
		for i := range c.bops {
			c.bops[i].Status, c.bops[i].Err = faster.Err, err
		}
		if windowOpen {
			closeWindows()
		}
		return true
	}

	// Drain pending completions (cold GETs) once for the whole run.
	healthy := true
	pending := 0
	for i := range c.bops {
		if c.bops[i].Status == faster.Pending {
			pending++
		}
	}
	if pending > 0 {
		results, err := sess.CompletePendingTimeout(s.cfg.OpTimeout)
		if err != nil {
			s.mx.pendingTimeouts.Inc()
			healthy = false // unresolved slots reply -TIMEOUT below
		} else {
			for _, r := range results {
				if k, ok := r.Ctx.(int); ok && k >= 0 && k < len(c.bops) {
					c.bops[k].Status, c.bops[k].Err = r.Status, r.Err
				}
			}
		}
	}

	// Oversized values: the pooled slot buffer was too small, so re-read
	// through an exact-size buffer (rare path; the allocation is the
	// price of not sizing every slot for the maximum value).
	for i := range c.bops {
		op := &c.bops[i]
		if !healthy || op.Kind != faster.BatchRead || op.Status != faster.OK {
			continue
		}
		if _, ok := faster.VarLenDecode(op.Output); !ok {
			st, err, big, ok := c.readInto(sess, op.Key, make([]byte, faster.VarLenFrameLen(op.Output)))
			if !ok {
				healthy = false
				op.Status = faster.Pending // renders as -TIMEOUT
				continue
			}
			op.Status, op.Err, op.Output = st, err, big
		}
	}

	// Commit the run's serial prefix in order. The first failed stamped
	// op stops the commits: later serials cannot ack (Commit is strictly
	// sequential) and reply -RETRY instead, so the client's
	// resend-from-frontier rule re-applies exactly the uncommitted
	// suffix. Re-application is safe here because only idempotent SETs
	// ride the batch path.
	if windowOpen {
		committing := true
		scratch := c.ackBuf[:0]
		for i := range c.smeta {
			m := &c.smeta[i]
			if m.serial == 0 || m.verdict != faster.SerialApply {
				continue
			}
			if !committing || !healthy || c.bops[c.slotop[i]].Status != faster.OK {
				committing = false
				continue
			}
			scratch = scratch[:0]
			scratch = append(scratch, "ACK "...)
			scratch = strconv.AppendUint(scratch, m.serial, 10)
			scratch = append(scratch, " OK"...)
			m.tok.Commit(m.serial, scratch)
			m.committed = true
			c.nextSerial = m.serial + 1
		}
		c.ackBuf = scratch
		// Uncommitted admissions roll back as each window closes.
		closeWindows()
	}
	return healthy
}

// slotOut returns slot i's pooled GET output buffer.
func (c *connState) slotOut(i int) []byte {
	for len(c.outs) <= i {
		c.outs = append(c.outs, nil)
	}
	if c.outs[i] == nil {
		c.outs[i] = make([]byte, slotOutBytes)
	}
	return c.outs[i]
}

// flushBatchReplies renders the run's replies into the pooled reply
// scratch — large GET payloads ride as zero-copy elements — and sends
// everything with one vectored write. The resp.Writer is flushed first
// so earlier single-command replies keep their place in the stream.
func (c *connState) flushBatchReplies(cmds []resp.Command) bool {
	c.reply = c.reply[:0]
	c.segs = c.segs[:0]
	for i := range cmds {
		m := &c.smeta[i]
		if m.serial > 0 {
			c.appendSerialReply(m, c.slotop[i])
			continue
		}
		op := &c.bops[c.slotop[i]]
		if op.Kind == faster.BatchUpsert {
			if op.Status == faster.OK {
				c.reply = append(c.reply, "+OK\r\n"...)
			} else {
				c.appendErrReply(op.Err)
			}
			continue
		}
		switch op.Status {
		case faster.OK:
			payload, ok := faster.VarLenDecode(op.Output)
			if !ok {
				c.reply = append(c.reply, "-ERR stored value exceeds server read buffer\r\n"...)
				continue
			}
			c.reply = append(c.reply, '$')
			c.reply = strconv.AppendInt(c.reply, int64(len(payload)), 10)
			c.reply = append(c.reply, '\r', '\n')
			if len(payload) <= inlineReplyMax {
				c.reply = append(c.reply, payload...)
			} else {
				c.segs = append(c.segs, replySeg{end: len(c.reply), payload: payload})
			}
			c.reply = append(c.reply, '\r', '\n')
		case faster.NotFound:
			c.reply = append(c.reply, "$-1\r\n"...)
		case faster.Pending, faster.WouldBlock:
			c.s.mx.pendingTimeouts.Inc()
			c.reply = append(c.reply, "-TIMEOUT operation did not complete in time\r\n"...)
		default:
			c.appendErrReply(op.Err)
		}
	}
	c.segs = append(c.segs, replySeg{end: len(c.reply)})

	c.conn.SetWriteDeadline(time.Now().Add(c.s.cfg.WriteTimeout))
	if err := c.w.Flush(); err != nil {
		if isTimeout(err) {
			c.s.mx.deadlineEvictions.Inc()
		}
		return false
	}
	c.vecs = c.vecs[:0]
	prev := 0
	for _, seg := range c.segs {
		if seg.end > prev {
			c.vecs = append(c.vecs, c.reply[prev:seg.end])
		}
		prev = seg.end
		if seg.payload != nil {
			c.vecs = append(c.vecs, seg.payload)
		}
	}
	if _, err := c.vecs.WriteTo(c.conn); err != nil {
		if isTimeout(err) {
			c.s.mx.deadlineEvictions.Inc()
		}
		return false
	}
	return true
}

// appendSerialReply renders a stamped batch slot's outcome into the
// reply scratch; j is the slot's BatchOp index (-1 when the serial
// verdict resolved the slot without executing).
func (c *connState) appendSerialReply(m *slotMeta, j int) {
	switch {
	case m.committed:
		c.reply = append(c.reply, "+ACK "...)
		c.reply = strconv.AppendUint(c.reply, m.serial, 10)
		c.reply = append(c.reply, " OK\r\n"...)
	case m.verdict == faster.SerialReplay:
		c.reply = append(c.reply, '+')
		c.reply = append(c.reply, m.saved...)
		c.reply = append(c.reply, '\r', '\n')
	case m.verdict == faster.SerialStale:
		c.reply = append(c.reply, "-STALE serial "...)
		c.reply = strconv.AppendUint(c.reply, m.serial, 10)
		c.reply = append(c.reply, " is at or below the committed frontier\r\n"...)
	case m.verdict == faster.SerialGap:
		c.reply = append(c.reply, "-ERR serial "...)
		c.reply = strconv.AppendUint(c.reply, m.serial, 10)
		c.reply = append(c.reply, " skips the next expected serial\r\n"...)
	case m.verdict == faster.SerialFenced:
		c.reply = append(c.reply, "-FENCED session was re-bound by a newer connection\r\n"...)
	default:
		// Admitted but rolled back: either this op failed or an earlier
		// serial in the window did (strict in-order commit).
		op := &c.bops[j]
		switch op.Status {
		case faster.OK:
			c.reply = append(c.reply, "-RETRY serial "...)
			c.reply = strconv.AppendUint(c.reply, m.serial, 10)
			c.reply = append(c.reply, " not committed; resend from the session frontier\r\n"...)
		case faster.Pending:
			c.s.mx.pendingTimeouts.Inc()
			c.reply = append(c.reply, "-TIMEOUT operation did not complete in time\r\n"...)
		default:
			c.appendErrReply(op.Err)
		}
	}
}

// appendErrReply renders a store error into the batched reply scratch,
// mirroring writeStoreErr.
func (c *connState) appendErrReply(err error) {
	switch {
	case errors.Is(err, faster.ErrOpDeadline):
		c.s.mx.ioShedTimeouts.Inc()
		c.reply = append(c.reply, "-TIMEOUT operation deadline expired\r\n"...)
	case errors.Is(err, faster.ErrIOQueueFull):
		c.s.mx.ioShedQueueFull.Inc()
		c.reply = append(c.reply, "-OVERLOADED io queue full\r\n"...)
	case errors.Is(err, faster.ErrStoreClosed):
		c.reply = append(c.reply, "-ERR server shutting down\r\n"...)
	case errors.Is(err, faster.ErrReadOnly):
		c.s.mx.readonlyRejects.Inc()
		c.reply = append(c.reply, "-READONLY store is read-only (write path lost)\r\n"...)
	case errors.Is(err, faster.ErrStoreFailed):
		c.s.mx.failedRejects.Inc()
		c.reply = append(c.reply, "-FAILED store failed (device lost)\r\n"...)
	case err != nil:
		c.reply = append(c.reply, "-ERR "...)
		for _, b := range []byte(err.Error()) {
			if b == '\r' || b == '\n' {
				b = ' '
			}
			c.reply = append(c.reply, b)
		}
		c.reply = append(c.reply, '\r', '\n')
	default:
		c.reply = append(c.reply, "-ERR unknown store error\r\n"...)
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
	// handler and retirer goroutine.
	s.closeConns()
	s.wg.Wait()

	// Phase 3: drain the session pool. Every handler has exited, so all
	// live sessions are in the channel; each is completed under the
	// remaining deadline and closed.
	drained := 0
	for {
		select {
		case sess := <-s.sessions:
			sess.Unpark()
			left := time.Until(deadline)
			if left < 100*time.Millisecond {
				left = 100 * time.Millisecond
			}
			if _, derr := sess.CompletePendingTimeout(left); derr != nil {
				s.abandoned.Add(1)
				if err == nil {
					err = ErrDrainTimeout
				}
				continue // do not Close: it would block on the wedged op
			}
			sess.Close()
			drained++
		default:
			goto donePool
		}
	}
donePool:

	// Phase 4: optional final checkpoint — only when the write path is
	// alive and no abandoned session can pin the epoch.
	if s.cfg.CheckpointDir != "" && s.store.Health() <= faster.Degraded && s.abandoned.Load() == 0 {
		if _, cerr := s.store.Checkpoint(s.cfg.CheckpointDir); cerr != nil && err == nil {
			err = fmt.Errorf("server: drain checkpoint: %w", cerr)
		}
	}

	s.mx.drains.Inc()
	s.mx.drainNs.Set(time.Since(start).Nanoseconds())
	return err
}
