// Package redcache is the evaluation's stand-in for Redis (§7.2.4): an
// in-memory key-value cache behind a TCP server whose commands are
// executed by a single goroutine (Redis's single-threaded event loop),
// accessed by clients that may pipeline requests. Like Redis, it is not
// concurrent, expects data to fit in memory, and pays a network hop per
// batch — the three differences from FASTER the paper calls out.
//
// The wire protocol is RESP2 via the shared internal/resp codec — the
// same protocol the FASTER network front-end (internal/server) speaks —
// so the §7.2.4 comparison measures the stores, not the framing. Keys
// are 8-byte little-endian binary bulk strings; INCRBY deltas and
// replies are 8-byte little-endian counters (a documented deviation from
// Redis's decimal INCRBY, keeping the baseline's fixed-width hot path).
//
// The accept loop and connection handlers are hardened the same way the
// front-end is: transient accept errors back off under a bounded
// internal/retry policy instead of spinning or exiting, and every
// connection carries read/write deadlines so a wedged peer cannot park a
// handler goroutine forever — a flaky loopback degrades a bench run, it
// does not hang it.
package redcache

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/resp"
	"repro/internal/retry"
)

// Command opcodes (client-side request tags; the wire carries RESP
// command names).
const (
	cmdGet byte = iota + 1
	cmdSet
	cmdDel
	cmdIncr
)

// Connection deadlines. Generous: they exist to unwedge pathological
// peers, not to pace healthy ones.
const (
	readIdleTimeout = 2 * time.Minute
	writeTimeout    = 30 * time.Second
)

// Server is a single-threaded cache server.
type Server struct {
	ln    net.Listener
	data  map[uint64][]byte
	cmds  chan serverCmd
	wg    sync.WaitGroup
	close sync.Once
	done  chan struct{}

	acceptRetry retry.Policy

	connMu sync.Mutex
	conns  map[net.Conn]struct{}
}

type serverCmd struct {
	op    byte
	key   uint64
	value []byte
	reply chan<- serverReply
}

type serverReply struct {
	status byte
	value  []byte
}

// Reply status codes (event loop -> connection handler).
const (
	respOK byte = iota
	respNotFound
	respErr
)

// ListenAndServe starts a server on addr (e.g. "127.0.0.1:0") and returns
// it; the actual address is available via Addr.
func ListenAndServe(addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{
		ln:    ln,
		data:  make(map[uint64][]byte),
		cmds:  make(chan serverCmd, 1024),
		done:  make(chan struct{}),
		conns: make(map[net.Conn]struct{}),
		// Patient: ~a second of cumulative backoff before concluding the
		// listener is gone for good.
		acceptRetry: retry.Policy{MaxAttempts: 8, BaseDelay: time.Millisecond,
			MaxDelay: 250 * time.Millisecond},
	}
	s.wg.Add(2)
	go s.acceptLoop()
	go s.eventLoop()
	return s, nil
}

// Addr returns the server's listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the server down.
func (s *Server) Close() error {
	var err error
	s.close.Do(func() {
		close(s.done)
		err = s.ln.Close()
		s.connMu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.connMu.Unlock()
		s.wg.Wait()
	})
	return err
}

// classifyAcceptErr maps accept-loop errors onto the retry taxonomy: a
// closed listener is permanent (shutdown), everything else — timeouts,
// EMFILE bursts, transient loopback hiccups — is worth backing off and
// retrying.
func classifyAcceptErr(err error) retry.Class {
	if errors.Is(err, net.ErrClosed) {
		return retry.Permanent
	}
	return retry.Transient
}

// acceptLoop accepts connections, backing off on transient errors under
// the bounded retry policy. Consecutive-failure counting resets on every
// successful accept; a permanent error or an exhausted budget ends the
// loop (the listener is gone — established connections keep serving).
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
			if !s.acceptRetry.Budget(classifyAcceptErr(err), failures) {
				return
			}
			select {
			case <-time.After(s.acceptRetry.Delay(failures)):
			case <-s.done:
				return
			}
			continue
		}
		failures = 0
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// eventLoop is the single command executor: all state mutations happen
// here, serialised, exactly like the Redis event loop.
func (s *Server) eventLoop() {
	defer s.wg.Done()
	for {
		select {
		case <-s.done:
			return
		case c := <-s.cmds:
			var r serverReply
			switch c.op {
			case cmdGet:
				if v, ok := s.data[c.key]; ok {
					// Copy: the connection goroutine writes the reply
					// while this loop may keep mutating the stored value.
					r = serverReply{status: respOK, value: append([]byte(nil), v...)}
				} else {
					r = serverReply{status: respNotFound}
				}
			case cmdSet:
				s.data[c.key] = c.value
				r = serverReply{status: respOK}
			case cmdDel:
				if _, ok := s.data[c.key]; ok {
					delete(s.data, c.key)
					r = serverReply{status: respOK}
				} else {
					r = serverReply{status: respNotFound}
				}
			case cmdIncr:
				delta := binary.LittleEndian.Uint64(c.value)
				v, ok := s.data[c.key]
				if !ok {
					v = make([]byte, 8)
					s.data[c.key] = v
				}
				binary.LittleEndian.PutUint64(v, binary.LittleEndian.Uint64(v)+delta)
				r = serverReply{status: respOK, value: append([]byte(nil), v...)}
			default:
				r = serverReply{status: respErr}
			}
			c.reply <- r
		}
	}
}

// parseCommand maps a RESP command onto the internal opcode form.
func parseCommand(args [][]byte) (serverCmd, string) {
	if len(args) == 0 {
		return serverCmd{}, "ERR empty command"
	}
	name := string(args[0])
	key := func(i int) (uint64, bool) {
		if len(args[i]) != 8 {
			return 0, false
		}
		return binary.LittleEndian.Uint64(args[i]), true
	}
	switch {
	case equalFold(name, "GET") && len(args) == 2:
		if k, ok := key(1); ok {
			return serverCmd{op: cmdGet, key: k}, ""
		}
	case equalFold(name, "SET") && len(args) == 3:
		if k, ok := key(1); ok {
			return serverCmd{op: cmdSet, key: k, value: args[2]}, ""
		}
	case equalFold(name, "DEL") && len(args) == 2:
		if k, ok := key(1); ok {
			return serverCmd{op: cmdDel, key: k}, ""
		}
	case equalFold(name, "INCRBY") && len(args) == 3 && len(args[2]) == 8:
		if k, ok := key(1); ok {
			return serverCmd{op: cmdIncr, key: k, value: args[2]}, ""
		}
	default:
		return serverCmd{}, fmt.Sprintf("ERR unknown command '%s'", name)
	}
	return serverCmd{}, "ERR redcache keys are 8-byte binary"
}

// equalFold is an ASCII-only case-insensitive compare (command names).
func equalFold(s, t string) bool {
	if len(s) != len(t) {
		return false
	}
	for i := 0; i < len(s); i++ {
		a, b := s[i], t[i]
		if 'a' <= a && a <= 'z' {
			a -= 'a' - 'A'
		}
		if 'a' <= b && b <= 'z' {
			b -= 'a' - 'A'
		}
		if a != b {
			return false
		}
	}
	return true
}

// serveConn parses requests and writes responses; execution is delegated
// to the event loop. Responses preserve request order (one in-flight
// reply channel consumed synchronously per request keeps ordering while
// still letting the client pipeline at the TCP level).
func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer conn.Close()
	s.connMu.Lock()
	s.conns[conn] = struct{}{}
	s.connMu.Unlock()
	defer func() {
		s.connMu.Lock()
		delete(s.conns, conn)
		s.connMu.Unlock()
	}()
	br := resp.NewReader(conn)
	bw := resp.NewWriter(conn)
	reply := make(chan serverReply, 1)
	for {
		// Idle deadline: a peer that stops talking gets evicted instead of
		// parking this goroutine forever.
		conn.SetReadDeadline(time.Now().Add(readIdleTimeout))
		args, err := br.ReadCommand()
		if err != nil {
			return
		}
		cmd, errMsg := parseCommand(args)
		var r serverReply
		if errMsg == "" {
			cmd.reply = reply
			select {
			case s.cmds <- cmd:
			case <-s.done:
				return
			}
			select {
			case r = <-reply:
			case <-s.done:
				return
			}
		}
		switch {
		case errMsg != "":
			err = bw.WriteError(errMsg)
		case r.status == respErr:
			err = bw.WriteError("ERR internal")
		case cmd.op == cmdGet:
			if r.status == respOK {
				err = bw.WriteBulk(r.value)
			} else {
				err = bw.WriteNil()
			}
		case cmd.op == cmdSet:
			err = bw.WriteSimple("OK")
		case cmd.op == cmdDel:
			if r.status == respOK {
				err = bw.WriteInt(1)
			} else {
				err = bw.WriteInt(0)
			}
		case cmd.op == cmdIncr:
			err = bw.WriteBulk(r.value)
		}
		if err != nil {
			return
		}
		// Flush when no more pipelined requests are buffered.
		if br.Buffered() == 0 {
			conn.SetWriteDeadline(time.Now().Add(writeTimeout))
			if err := bw.Flush(); err != nil {
				return
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

// Client is a pipelining client connection.
type Client struct {
	rc *resp.Client
}

// Dial connects to a server.
func Dial(addr string) (*Client, error) {
	rc, err := resp.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &Client{rc: rc}, nil
}

// Close closes the connection.
func (c *Client) Close() error { return c.rc.Close() }

// Req is one pipelined request.
type Req struct {
	Op    byte // use Get/Set/Del/Incr constructors
	Key   uint64
	Value []byte
}

// Request constructors.
func GetReq(key uint64) Req             { return Req{Op: cmdGet, Key: key} }
func SetReq(key uint64, val []byte) Req { return Req{Op: cmdSet, Key: key, Value: val} }
func DelReq(key uint64) Req             { return Req{Op: cmdDel, Key: key} }
func IncrReq(key uint64, d uint64) Req {
	v := make([]byte, 8)
	binary.LittleEndian.PutUint64(v, d)
	return Req{Op: cmdIncr, Key: key, Value: v}
}

// Resp is one response.
type Resp struct {
	OK       bool
	NotFound bool
	Value    []byte
}

// errProtocol reports a malformed or error response.
var errProtocol = errors.New("redcache: protocol error")

var cmdNames = map[byte][]byte{
	cmdGet:  []byte("GET"),
	cmdSet:  []byte("SET"),
	cmdDel:  []byte("DEL"),
	cmdIncr: []byte("INCRBY"),
}

// Pipeline sends all requests, then reads all responses — the batching
// whose depth §7.2.4 sweeps from 1 to 200.
func (c *Client) Pipeline(reqs []Req) ([]Resp, error) {
	cmds := make([][][]byte, len(reqs))
	for i, r := range reqs {
		key := make([]byte, 8)
		binary.LittleEndian.PutUint64(key, r.Key)
		name, ok := cmdNames[r.Op]
		if !ok {
			return nil, fmt.Errorf("%w: bad opcode %d", errProtocol, r.Op)
		}
		if r.Op == cmdGet || r.Op == cmdDel {
			cmds[i] = [][]byte{name, key}
		} else {
			cmds[i] = [][]byte{name, key, r.Value}
		}
	}
	vals, err := c.rc.Pipeline(cmds)
	if err != nil {
		return nil, err
	}
	out := make([]Resp, len(vals))
	for i, v := range vals {
		switch v.Kind {
		case resp.BulkString:
			out[i] = Resp{OK: true, Value: v.Str}
		case resp.SimpleString:
			out[i] = Resp{OK: true}
		case resp.Nil:
			out[i] = Resp{NotFound: true}
		case resp.Integer:
			if v.Int == 0 {
				out[i] = Resp{NotFound: true}
			} else {
				out[i] = Resp{OK: true}
			}
		default:
			return nil, fmt.Errorf("%w: %s", errProtocol, v.Str)
		}
	}
	return out, nil
}

// Get is a convenience single-request call.
func (c *Client) Get(key uint64) (Resp, error) {
	rs, err := c.Pipeline([]Req{GetReq(key)})
	if err != nil {
		return Resp{}, err
	}
	return rs[0], nil
}

// Set is a convenience single-request call.
func (c *Client) Set(key uint64, val []byte) error {
	_, err := c.Pipeline([]Req{SetReq(key, val)})
	return err
}
