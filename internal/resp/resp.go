// Package resp is the repository's shared RESP2 wire codec: the Redis
// serialisation protocol spoken by the network front-end
// (internal/server) and the Redis stand-in baseline
// (internal/baselines/redcache).
//
// The codec is deliberately small and allocation-conscious:
//
//   - Reader parses client commands (arrays of bulk strings, plus the
//     space-separated inline form) and server replies (simple strings,
//     errors, integers, bulk strings, arrays) from a buffered stream.
//   - Writer renders replies and commands into a buffered stream; the
//     caller controls flushing, which is what makes client pipelining
//     (§7.2.4) and server-side batched responses possible.
//
// Both sides enforce limits (argument count, bulk length) so a malformed
// or hostile peer cannot make the process allocate unboundedly — the
// first of the front-end's robustness lines of defence.
package resp

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ErrProtocol reports malformed RESP input. It wraps the specific cause.
var ErrProtocol = errors.New("resp: protocol error")

// ErrTooLarge reports input exceeding the reader's configured limits; the
// connection should be dropped, since framing is lost.
var ErrTooLarge = errors.New("resp: input exceeds limit")

// Limits bound what a Reader will accept. The zero value selects the
// defaults.
type Limits struct {
	// MaxArgs caps the number of elements in a command array
	// (default 1024).
	MaxArgs int
	// MaxBulk caps a single bulk-string payload in bytes
	// (default 8 MiB).
	MaxBulk int
	// MaxInline caps an inline command line in bytes (default 64 KiB).
	MaxInline int
}

func (l *Limits) setDefaults() {
	if l.MaxArgs <= 0 {
		l.MaxArgs = 1024
	}
	if l.MaxBulk <= 0 {
		l.MaxBulk = 8 << 20
	}
	if l.MaxInline <= 0 {
		l.MaxInline = 64 << 10
	}
}

// Reader parses RESP2 values from a stream.
type Reader struct {
	br  *bufio.Reader
	lim Limits
}

// NewReader wraps r with the default limits.
func NewReader(r io.Reader) *Reader { return NewReaderLimits(r, Limits{}) }

// NewReaderLimits wraps r with explicit limits.
func NewReaderLimits(r io.Reader, lim Limits) *Reader {
	lim.setDefaults()
	return &Reader{br: bufio.NewReaderSize(r, 64<<10), lim: lim}
}

// Buffered returns the number of bytes already read from the connection
// but not yet consumed — nonzero while more pipelined input is pending,
// which is the server's cue to delay flushing its reply buffer.
func (r *Reader) Buffered() int { return r.br.Buffered() }

// readLine reads up to and including CRLF, returning the line without the
// terminator.
func (r *Reader) readLine() ([]byte, error) {
	line, err := r.br.ReadSlice('\n')
	if errors.Is(err, bufio.ErrBufferFull) {
		return nil, fmt.Errorf("%w: line too long", ErrTooLarge)
	}
	if err != nil {
		return nil, err
	}
	if len(line) < 2 || line[len(line)-2] != '\r' {
		return nil, fmt.Errorf("%w: line missing CRLF", ErrProtocol)
	}
	return line[:len(line)-2], nil
}

// parseInt parses a RESP integer field (no allocations for the common
// small case).
func parseInt(b []byte) (int64, error) {
	if len(b) == 0 {
		return 0, fmt.Errorf("%w: empty integer", ErrProtocol)
	}
	n, err := strconv.ParseInt(string(b), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("%w: bad integer %q", ErrProtocol, b)
	}
	return n, nil
}

// ReadCommand reads one client command: a RESP array of bulk strings, or
// an inline command (space-separated words on a single line). The
// returned argument slices are freshly allocated and do not alias the
// reader's buffer. io.EOF is returned exactly at a clean end of stream.
func (r *Reader) ReadCommand() ([][]byte, error) {
	prefix, err := r.br.ReadByte()
	if err != nil {
		return nil, err
	}
	if prefix != '*' {
		// Inline command.
		if err := r.br.UnreadByte(); err != nil {
			return nil, err
		}
		return r.readInline()
	}
	header, err := r.readLine()
	if err != nil {
		return nil, unexpectedEOF(err)
	}
	n, err := parseInt(header)
	if err != nil {
		return nil, err
	}
	if n < 0 || n > int64(r.lim.MaxArgs) {
		return nil, fmt.Errorf("%w: %d command arguments", ErrTooLarge, n)
	}
	args := make([][]byte, 0, n)
	for i := int64(0); i < n; i++ {
		arg, err := r.readBulk()
		if err != nil {
			return nil, unexpectedEOF(err)
		}
		if arg == nil {
			return nil, fmt.Errorf("%w: null bulk inside command", ErrProtocol)
		}
		args = append(args, arg)
	}
	return args, nil
}

// readInline parses the inline command form: whitespace-separated words.
// Empty lines are skipped (a telnet user hitting enter), matching Redis.
func (r *Reader) readInline() ([][]byte, error) {
	for {
		line, err := r.readLine()
		if err != nil {
			return nil, err
		}
		if len(line) > r.lim.MaxInline {
			return nil, fmt.Errorf("%w: inline command", ErrTooLarge)
		}
		var args [][]byte
		for i := 0; i < len(line); {
			for i < len(line) && (line[i] == ' ' || line[i] == '\t') {
				i++
			}
			start := i
			for i < len(line) && line[i] != ' ' && line[i] != '\t' {
				i++
			}
			if i > start {
				args = append(args, append([]byte(nil), line[start:i]...))
			}
		}
		if len(args) > 0 {
			return args, nil
		}
	}
}

// readBulk reads one $-prefixed bulk string (nil for the RESP null bulk).
func (r *Reader) readBulk() ([]byte, error) {
	line, err := r.readLine()
	if err != nil {
		return nil, err
	}
	if len(line) == 0 || line[0] != '$' {
		return nil, fmt.Errorf("%w: expected bulk string, got %q", ErrProtocol, line)
	}
	n, err := parseInt(line[1:])
	if err != nil {
		return nil, err
	}
	if n == -1 {
		return nil, nil // null bulk
	}
	if n < 0 || n > int64(r.lim.MaxBulk) {
		return nil, fmt.Errorf("%w: bulk of %d bytes", ErrTooLarge, n)
	}
	buf := make([]byte, n+2)
	if _, err := io.ReadFull(r.br, buf); err != nil {
		return nil, unexpectedEOF(err)
	}
	if buf[n] != '\r' || buf[n+1] != '\n' {
		return nil, fmt.Errorf("%w: bulk missing CRLF", ErrProtocol)
	}
	return buf[:n:n], nil
}

// Kind tags a parsed reply Value.
type Kind byte

// Reply kinds.
const (
	SimpleString Kind = '+'
	Error        Kind = '-'
	Integer      Kind = ':'
	BulkString   Kind = '$'
	Array        Kind = '*'
	Nil          Kind = '_' // RESP2 null bulk / null array
)

// Value is one parsed server reply.
type Value struct {
	Kind  Kind
	Str   []byte  // SimpleString, Error, BulkString payload
	Int   int64   // Integer
	Elems []Value // Array elements
}

// IsError reports whether the value is an error reply.
func (v Value) IsError() bool { return v.Kind == Error }

// Err returns the error reply as a Go error, or nil for non-errors.
func (v Value) Err() error {
	if v.Kind != Error {
		return nil
	}
	return fmt.Errorf("resp: server error: %s", v.Str)
}

// ReadReply reads one server reply value (recursively for arrays).
func (r *Reader) ReadReply() (Value, error) {
	return r.readReply(0)
}

// maxReplyDepth bounds array nesting so a hostile server cannot blow the
// stack.
const maxReplyDepth = 16

func (r *Reader) readReply(depth int) (Value, error) {
	if depth > maxReplyDepth {
		return Value{}, fmt.Errorf("%w: reply nesting", ErrTooLarge)
	}
	line, err := r.readLine()
	if err != nil {
		return Value{}, err
	}
	if len(line) == 0 {
		return Value{}, fmt.Errorf("%w: empty reply line", ErrProtocol)
	}
	body := line[1:]
	switch line[0] {
	case '+':
		return Value{Kind: SimpleString, Str: append([]byte(nil), body...)}, nil
	case '-':
		return Value{Kind: Error, Str: append([]byte(nil), body...)}, nil
	case ':':
		n, err := parseInt(body)
		if err != nil {
			return Value{}, err
		}
		return Value{Kind: Integer, Int: n}, nil
	case '$':
		n, err := parseInt(body)
		if err != nil {
			return Value{}, err
		}
		if n == -1 {
			return Value{Kind: Nil}, nil
		}
		if n < 0 || n > int64(r.lim.MaxBulk) {
			return Value{}, fmt.Errorf("%w: bulk of %d bytes", ErrTooLarge, n)
		}
		buf := make([]byte, n+2)
		if _, err := io.ReadFull(r.br, buf); err != nil {
			return Value{}, unexpectedEOF(err)
		}
		if buf[n] != '\r' || buf[n+1] != '\n' {
			return Value{}, fmt.Errorf("%w: bulk missing CRLF", ErrProtocol)
		}
		return Value{Kind: BulkString, Str: buf[:n:n]}, nil
	case '*':
		n, err := parseInt(body)
		if err != nil {
			return Value{}, err
		}
		if n == -1 {
			return Value{Kind: Nil}, nil
		}
		if n < 0 || n > int64(r.lim.MaxArgs) {
			return Value{}, fmt.Errorf("%w: array of %d elements", ErrTooLarge, n)
		}
		elems := make([]Value, 0, n)
		for i := int64(0); i < n; i++ {
			v, err := r.readReply(depth + 1)
			if err != nil {
				return Value{}, unexpectedEOF(err)
			}
			elems = append(elems, v)
		}
		return Value{Kind: Array, Elems: elems}, nil
	default:
		return Value{}, fmt.Errorf("%w: unknown reply prefix %q", ErrProtocol, line[0])
	}
}

// unexpectedEOF maps a mid-frame EOF to io.ErrUnexpectedEOF so callers
// can distinguish a clean close (io.EOF before any byte) from a torn
// frame.
func unexpectedEOF(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

// Writer renders RESP2 values into a buffered stream. Nothing reaches the
// connection until Flush; servers flush when the read side has no more
// pipelined input, clients flush once per batch.
type Writer struct {
	bw  *bufio.Writer
	num [24]byte // scratch for integer rendering
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{bw: bufio.NewWriterSize(w, 64<<10)}
}

// Flush writes the buffered output to the underlying stream.
func (w *Writer) Flush() error { return w.bw.Flush() }

// Buffered returns the number of bytes waiting to be flushed.
func (w *Writer) Buffered() int { return w.bw.Buffered() }

func (w *Writer) line(prefix byte, body []byte) error {
	if err := w.bw.WriteByte(prefix); err != nil {
		return err
	}
	if _, err := w.bw.Write(body); err != nil {
		return err
	}
	_, err := w.bw.WriteString("\r\n")
	return err
}

// lineString is line for a string body, which it writes without copying
// it into a []byte first.
func (w *Writer) lineString(prefix byte, body string) error {
	if err := w.bw.WriteByte(prefix); err != nil {
		return err
	}
	if _, err := w.bw.WriteString(body); err != nil {
		return err
	}
	_, err := w.bw.WriteString("\r\n")
	return err
}

// WriteSimple writes a simple string reply (+s).
func (w *Writer) WriteSimple(s string) error { return w.lineString('+', s) }

// WriteError writes an error reply (-msg). The message must not contain
// CR or LF; offenders are replaced to preserve framing.
func (w *Writer) WriteError(msg string) error {
	if strings.ContainsAny(msg, "\r\n") {
		msg = strings.NewReplacer("\r", " ", "\n", " ").Replace(msg)
	}
	return w.lineString('-', msg)
}

// WriteInt writes an integer reply (:n).
func (w *Writer) WriteInt(n int64) error {
	return w.line(':', strconv.AppendInt(w.num[:0], n, 10))
}

// WriteBulk writes a bulk string reply ($len payload).
func (w *Writer) WriteBulk(b []byte) error {
	if err := w.line('$', strconv.AppendInt(w.num[:0], int64(len(b)), 10)); err != nil {
		return err
	}
	if _, err := w.bw.Write(b); err != nil {
		return err
	}
	_, err := w.bw.WriteString("\r\n")
	return err
}

// WriteNil writes the RESP2 null bulk reply ($-1).
func (w *Writer) WriteNil() error {
	_, err := w.bw.WriteString("$-1\r\n")
	return err
}

// WriteArrayHeader writes an array header (*n); the caller then writes n
// elements.
func (w *Writer) WriteArrayHeader(n int) error {
	return w.line('*', strconv.AppendInt(w.num[:0], int64(n), 10))
}

// WriteCommand writes one client command as an array of bulk strings.
func (w *Writer) WriteCommand(args ...[]byte) error {
	if err := w.WriteArrayHeader(len(args)); err != nil {
		return err
	}
	for _, a := range args {
		if err := w.WriteBulk(a); err != nil {
			return err
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Pooled command decode
// ---------------------------------------------------------------------------

// Command is a client command decoded into reusable storage: every
// argument lives in one flat backing buffer, so a connection loop that
// decodes into the same Command over and over allocates nothing in
// steady state. Args are views into that buffer and are invalidated by
// the next ReadCommandInto with the same Command; callers that hand an
// argument to longer-lived code must copy it first.
type Command struct {
	Args [][]byte // views into buf, valid until the next decode

	buf  []byte
	offs []int // flat (start, end) pairs; offsets survive buf regrowth
}

// Is reports whether the command name (Args[0]) equals name,
// ASCII-case-insensitively, without allocating.
func (c *Command) Is(name string) bool {
	if len(c.Args) == 0 || len(c.Args[0]) != len(name) {
		return false
	}
	for i, b := range c.Args[0] {
		if b|0x20 != name[i]|0x20 {
			return false
		}
	}
	return true
}

// Size returns the total decoded argument bytes — the measure a server
// uses to budget how many commands a pipeline window may pin.
func (c *Command) Size() int { return len(c.buf) }

// ReadCommandInto reads one client command (array or inline form, as
// ReadCommand) into c, reusing its backing storage. The arguments are
// recorded as offsets while the flat buffer grows, then materialized as
// slices once the frame is complete, so regrowth mid-command cannot
// leave an argument pointing into a stale allocation.
func (r *Reader) ReadCommandInto(c *Command) error {
	c.Args = c.Args[:0]
	c.buf = c.buf[:0]
	c.offs = c.offs[:0]
	prefix, err := r.br.ReadByte()
	if err != nil {
		return err
	}
	if prefix != '*' {
		if err := r.br.UnreadByte(); err != nil {
			return err
		}
		return r.readInlineInto(c)
	}
	header, err := r.readLine()
	if err != nil {
		return unexpectedEOF(err)
	}
	n, err := parseInt(header)
	if err != nil {
		return err
	}
	if n < 0 || n > int64(r.lim.MaxArgs) {
		return fmt.Errorf("%w: %d command arguments", ErrTooLarge, n)
	}
	for i := int64(0); i < n; i++ {
		if err := r.readBulkInto(c); err != nil {
			return unexpectedEOF(err)
		}
	}
	c.materialize()
	return nil
}

// readBulkInto appends one bulk-string payload to c's flat buffer and
// records its offsets.
func (r *Reader) readBulkInto(c *Command) error {
	line, err := r.readLine()
	if err != nil {
		return err
	}
	if len(line) == 0 || line[0] != '$' {
		return fmt.Errorf("%w: expected bulk string, got %q", ErrProtocol, line)
	}
	n, err := parseInt(line[1:])
	if err != nil {
		return err
	}
	if n == -1 {
		return fmt.Errorf("%w: null bulk inside command", ErrProtocol)
	}
	if n < 0 || n > int64(r.lim.MaxBulk) {
		return fmt.Errorf("%w: bulk of %d bytes", ErrTooLarge, n)
	}
	start := len(c.buf)
	end := start + int(n)
	if cap(c.buf) < end+2 {
		grown := make([]byte, start, max(end+2, 2*cap(c.buf)))
		copy(grown, c.buf)
		c.buf = grown
	}
	c.buf = c.buf[:end+2]
	if _, err := io.ReadFull(r.br, c.buf[start:end+2]); err != nil {
		return unexpectedEOF(err)
	}
	if c.buf[end] != '\r' || c.buf[end+1] != '\n' {
		return fmt.Errorf("%w: bulk missing CRLF", ErrProtocol)
	}
	c.buf = c.buf[:end]
	c.offs = append(c.offs, start, end)
	return nil
}

// readInlineInto parses the inline form into c's flat buffer.
func (r *Reader) readInlineInto(c *Command) error {
	for {
		line, err := r.readLine()
		if err != nil {
			return err
		}
		if len(line) > r.lim.MaxInline {
			return fmt.Errorf("%w: inline command", ErrTooLarge)
		}
		for i := 0; i < len(line); {
			for i < len(line) && (line[i] == ' ' || line[i] == '\t') {
				i++
			}
			start := i
			for i < len(line) && line[i] != ' ' && line[i] != '\t' {
				i++
			}
			if i > start {
				o := len(c.buf)
				c.buf = append(c.buf, line[start:i]...)
				c.offs = append(c.offs, o, len(c.buf))
			}
		}
		if len(c.offs) > 0 {
			c.materialize()
			return nil
		}
	}
}

// materialize turns the recorded offset pairs into Args views.
func (c *Command) materialize() {
	if cap(c.Args) < len(c.offs)/2 {
		c.Args = make([][]byte, 0, len(c.offs)/2)
	}
	for i := 0; i < len(c.offs); i += 2 {
		c.Args = append(c.Args, c.buf[c.offs[i]:c.offs[i+1]:c.offs[i+1]])
	}
}
