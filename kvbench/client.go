package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync/atomic"
	"time"
)

// The benchmark speaks RESP with its own few lines of client code, not
// internal/resp's Client: the client is load generator, not system under
// test, and must not get faster or slower when internal/resp changes.

type opKind uint8

const (
	opGet opKind = iota
	opSet
	opIncr
	opReadCtr // GET of a counter key: the end-of-run and restart read-back
)

// op is one generated request together with what its reply must be.
type op struct {
	kind  opKind
	local uint32 // index within the issuing connection's share of the keys
	ver   uint32 // GET: the version the value must carry; SET: the version written
	delta int64  // INCRBY operand
	sum   int64  // INCRBY: the counter value the reply must carry
}

// owner is one connection's share of the key space. Connection id of n
// owns exactly the keys whose index is congruent to id mod n, so it is
// the only writer of those keys and, because a connection's commands run
// in order, it knows the exact value every one of its reads must return.
type owner struct {
	id, n   int
	w       *workload
	keyDist *keyDist
	ctrDist *keyDist
	ver     []uint32 // version last written, per owned value key
	ctr     []int64  // running sum, per owned counter key
	gets    uint64   // GETs issued, the denominator of the per-get device rows
}

func newOwner(w *workload, id, n int) *owner {
	o := &owner{id: id, n: n, w: w}
	own := w.keys / uint64(n)
	if w.zipf {
		o.keyDist = newZipf(own)
	} else {
		o.keyDist = newUniform(own)
	}
	o.ver = make([]uint32, own)
	if w.counters > 0 {
		o.ctrDist = newUniform(w.counters / uint64(n))
		o.ctr = make([]int64, w.counters/uint64(n))
	}
	return o
}

func (o *owner) global(local uint32) uint64 { return uint64(local)*uint64(o.n) + uint64(o.id) }

// draw picks the next operation's kind and key from r; issue then fixes
// what the reply must be. They are separate so the traced replay can run
// one drawn list at several depths.
func (o *owner) draw(r *rng) op {
	p := int(r.next() % 100)
	switch {
	case p < o.w.getPct:
		return op{kind: opGet, local: uint32(o.keyDist.draw(r))}
	case p < o.w.getPct+o.w.setPct:
		return op{kind: opSet, local: uint32(o.keyDist.draw(r))}
	default:
		return op{kind: opIncr, local: uint32(o.ctrDist.draw(r)), delta: int64(r.next()%9) + 1}
	}
}

func (o *owner) issue(p op) op {
	switch p.kind {
	case opGet:
		o.gets++
		p.ver = o.ver[p.local]
	case opSet:
		o.ver[p.local]++
		p.ver = o.ver[p.local]
	case opIncr:
		o.ctr[p.local] += p.delta
		p.sum = o.ctr[p.local]
	case opReadCtr:
		p.sum = o.ctr[p.local]
	}
	return p
}

// userBytes is what an acknowledged write stored, as a user counts it.
func (p op) userBytes() uint64 {
	switch p.kind {
	case opSet:
		return keyLen + valueLen
	case opIncr:
		return keyLen + 8
	}
	return 0
}

// outcome classifies one reply.
type outcome uint8

const (
	outOK outcome = iota
	outShedTimeout
	outShedOverload
	outError // transport failure or any other error reply
	outWrong // a reply that is not what this connection last wrote
)

// tally counts outcomes; every issued request lands in exactly one.
type tally struct {
	issued, ok, shedTimeout, shedOverload, errs, wrong uint64
}

func (t *tally) add(o outcome) {
	t.issued++
	switch o {
	case outOK:
		t.ok++
	case outShedTimeout:
		t.shedTimeout++
	case outShedOverload:
		t.shedOverload++
	case outError:
		t.errs++
	case outWrong:
		t.wrong++
	}
}

func (t *tally) merge(u tally) {
	t.issued += u.issued
	t.ok += u.ok
	t.shedTimeout += u.shedTimeout
	t.shedOverload += u.shedOverload
	t.errs += u.errs
	t.wrong += u.wrong
}

func (t tally) failed() uint64 { return t.issued - t.ok }

// encoder renders an owner's operations as RESP commands.
type encoder struct {
	own *owner
	cmd []byte
	key [keyLen]byte
	val [valueLen]byte
}

// conn is one load connection: a socket, its owner, and scratch.
type conn struct {
	encoder
	nc net.Conn
	bw *bufio.Writer
	br *bufio.Reader

	bulk []byte
	want [valueLen]byte

	// tainted holds keys whose last write was refused: their state is
	// unknown, so a later mismatch there is an error, not a wrong reply.
	tainted map[uint64]bool

	// acked accumulates acknowledged write bytes over all connections; it
	// paces the COMPACT commands and is the denominator of hlog.write_amp.
	acked *atomic.Uint64
}

func dial(addr string, own *owner, acked *atomic.Uint64) (*conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &conn{encoder: encoder{own: own}, nc: nc, bw: bufio.NewWriterSize(nc, 64<<10), br: bufio.NewReaderSize(nc, 64<<10),
		tainted: map[uint64]bool{}, acked: acked}, nil
}

func (c *conn) close() { c.nc.Close() }

func appendBulk(dst, b []byte) []byte {
	dst = append(dst, '$')
	dst = strconv.AppendInt(dst, int64(len(b)), 10)
	dst = append(dst, '\r', '\n')
	dst = append(dst, b...)
	return append(dst, '\r', '\n')
}

// encode renders p as a RESP command into c.cmd.
func (c *encoder) encode(p op) []byte {
	g := c.own.global(p.local)
	b := c.cmd[:0]
	switch p.kind {
	case opGet:
		putKey(c.key[:], 'k', g)
		b = append(b, "*2\r\n$3\r\nGET\r\n"...)
		b = appendBulk(b, c.key[:])
	case opSet:
		putKey(c.key[:], 'k', g)
		putValue(c.val[:], g, p.ver)
		b = append(b, "*3\r\n$3\r\nSET\r\n"...)
		b = appendBulk(b, c.key[:])
		b = appendBulk(b, c.val[:])
	case opReadCtr:
		putKey(c.key[:], 'c', g)
		b = append(b, "*2\r\n$3\r\nGET\r\n"...)
		b = appendBulk(b, c.key[:])
	case opIncr:
		putKey(c.key[:], 'c', g)
		b = append(b, "*3\r\n$6\r\nINCRBY\r\n"...)
		b = appendBulk(b, c.key[:])
		var num [20]byte
		b = appendBulk(b, strconv.AppendInt(num[:0], p.delta, 10))
	}
	c.cmd = b
	return b
}

// send writes p's command into the connection's buffer (no flush).
func (c *conn) send(p op) error {
	_, err := c.bw.Write(c.encode(p))
	return err
}

// reply is one parsed RESP reply; bulk aliases connection scratch.
type reply struct {
	kind byte // '+', '-', ':', '$' (bulk), 0 for a nil bulk
	num  int64
	bulk []byte
}

var errProtocol = errors.New("kvbench: malformed reply")

func (c *conn) readReply() (reply, error) {
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return reply{}, err
	}
	if len(line) < 3 {
		return reply{}, errProtocol
	}
	body := line[1 : len(line)-2]
	switch line[0] {
	case '+', '-':
		c.bulk = append(c.bulk[:0], body...)
		return reply{kind: line[0], bulk: c.bulk}, nil
	case ':':
		n, err := strconv.ParseInt(string(body), 10, 64)
		return reply{kind: ':', num: n}, err
	case '$':
		n, err := strconv.Atoi(string(body))
		if err != nil || n < -1 {
			return reply{}, errProtocol
		}
		if n == -1 {
			return reply{}, nil
		}
		if cap(c.bulk) < n+2 {
			c.bulk = make([]byte, n+2)
		}
		c.bulk = c.bulk[:n+2]
		if _, err := io.ReadFull(c.br, c.bulk); err != nil {
			return reply{}, err
		}
		return reply{kind: '$', bulk: c.bulk[:n]}, nil
	}
	return reply{}, errProtocol
}

// recv reads the reply to p and checks it.
func (c *conn) recv(p op) (outcome, error) {
	r, err := c.readReply()
	if err != nil {
		return outError, err
	}
	return c.check(p, r), nil
}

func (c *conn) check(p op, r reply) outcome {
	tkey := uint64(p.local) << 1
	if p.kind == opIncr || p.kind == opReadCtr {
		tkey |= 1
	}
	if r.kind == '-' {
		if p.kind == opSet || p.kind == opIncr {
			c.tainted[tkey] = true
		}
		switch {
		case bytes.HasPrefix(r.bulk, []byte("TIMEOUT")):
			return outShedTimeout
		case bytes.HasPrefix(r.bulk, []byte("OVERLOADED")):
			return outShedOverload
		}
		return outError
	}
	good := false
	switch p.kind {
	case opGet:
		putValue(c.want[:], c.own.global(p.local), p.ver)
		good = r.kind == '$' && bytes.Equal(r.bulk, c.want[:])
	case opSet:
		good = r.kind == '+' && string(r.bulk) == "OK"
	case opIncr:
		good = r.kind == ':' && r.num == p.sum
	case opReadCtr:
		good = r.kind == '$' && len(r.bulk) == 8 && int64(binary.LittleEndian.Uint64(r.bulk)) == p.sum
	}
	if !good {
		if c.tainted[tkey] {
			return outError
		}
		return outWrong
	}
	if b := p.userBytes(); b > 0 {
		c.acked.Add(b)
	}
	return outOK
}

// do is one closed-loop round trip.
func (c *conn) do(p op) (outcome, error) {
	if err := c.send(p); err != nil {
		return outError, err
	}
	if err := c.bw.Flush(); err != nil {
		return outError, err
	}
	return c.recv(p)
}

// control sends a plain command on a control connection and returns the
// integer reply (COMPACT answers with the bytes reclaimed).
func control(nc net.Conn, br *bufio.Reader, name string, timeout time.Duration) (int64, error) {
	nc.SetDeadline(time.Now().Add(timeout))
	if _, err := fmt.Fprintf(nc, "*1\r\n$%d\r\n%s\r\n", len(name), name); err != nil {
		return 0, err
	}
	line, err := br.ReadSlice('\n')
	if err != nil {
		return 0, err
	}
	if len(line) < 3 || line[0] != ':' {
		return 0, fmt.Errorf("%s: %q", name, line)
	}
	return strconv.ParseInt(string(line[1:len(line)-2]), 10, 64)
}
