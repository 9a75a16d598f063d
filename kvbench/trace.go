package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/device"
	"repro/internal/faster"
)

// span is one timed interval at a layer boundary, recorded from the
// benchmark's side of that boundary. Times are nanoseconds since the
// tracer was created; Parent is an index into the span list (-1: none).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int32  `json:"parent"`
	Req    int32  `json:"req"`
}

// tracer keeps spans in memory. It records nothing until switched on, so
// the timed phases run with tracing off; the traced replay has a single
// request outstanding at a time, which is what lets a device span be
// attributed to the request that is open when it starts.
type tracer struct {
	on atomic.Bool
	t0 time.Time

	mu    sync.Mutex
	spans []span
	open  int32 // index of the open request span, -1 when none
}

func newTracer() *tracer { return &tracer{t0: time.Now(), open: -1} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// beginRequest opens the span of request req at the given depth.
func (t *tracer) beginRequest(name string, req int32) int32 {
	if !t.on.Load() {
		return -1
	}
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Start: t.now(), Parent: -1, Req: req})
	t.open = id
	t.mu.Unlock()
	return id
}

func (t *tracer) endRequest(id int32) {
	if id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].End = t.now()
	t.open = -1
	t.mu.Unlock()
}

// beginChild opens a span under whichever request is open right now.
func (t *tracer) beginChild(name string) int32 {
	if !t.on.Load() {
		return -1
	}
	t.mu.Lock()
	id := int32(len(t.spans))
	s := span{Name: name, Start: t.now(), Parent: t.open, Req: -1}
	if t.open >= 0 {
		s.Req = t.spans[t.open].Req
	}
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return id
}

func (t *tracer) endChild(id int32) {
	if id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].End = t.now()
	t.mu.Unlock()
}

// childTime returns, per request span name, the mean time per request
// that its child spans cover (overlapping children counted once, clipped
// to the request), i.e. what to subtract from the span to get self time.
func (t *tracer) childTime() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	type iv struct{ a, b int64 }
	kids := map[int32][]iv{}
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End > s.Start {
			kids[s.Parent] = append(kids[s.Parent], iv{s.Start, s.End})
		}
	}
	sum, count := map[string]float64{}, map[string]float64{}
	for i, s := range t.spans {
		if s.Parent >= 0 {
			continue
		}
		count[s.Name]++
		ivs := kids[int32(i)]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].a < ivs[b].a })
		var covered, hi int64 = 0, s.Start
		for _, v := range ivs {
			a, b := max(v.a, hi), min(v.b, s.End)
			if b > a {
				covered += b - a
				hi = b
			}
		}
		sum[s.Name] += float64(covered)
	}
	for name := range sum {
		sum[name] /= count[name]
	}
	return sum
}

func (t *tracer) writeFile(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedDevice is the benchmark's own device: a device.Mem behind
// counters (always on) and spans (when the tracer is on). It is injected
// through ShardedConfig.NewDevice, so device work is seen from outside
// the store without touching it.
type tracedDevice struct {
	mem *device.Mem
	tr  *tracer

	reads, readBytes, readBusyNs atomic.Uint64
	writes, writeBytes, syncs    atomic.Uint64
}

func newTracedDevice(mem *device.Mem, tr *tracer) *tracedDevice {
	return &tracedDevice{mem: mem, tr: tr}
}

func (d *tracedDevice) ReadAsync(buf []byte, offset uint64, cb device.Callback) {
	start := time.Now()
	id := d.tr.beginChild("device.read")
	d.mem.ReadAsync(buf, offset, func(err error) {
		d.tr.endChild(id)
		d.readBusyNs.Add(uint64(time.Since(start)))
		d.reads.Add(1)
		d.readBytes.Add(uint64(len(buf)))
		cb(err)
	})
}

func (d *tracedDevice) WriteAsync(buf []byte, offset uint64, cb device.Callback) {
	id := d.tr.beginChild("device.write")
	d.mem.WriteAsync(buf, offset, func(err error) {
		d.tr.endChild(id)
		d.writes.Add(1)
		d.writeBytes.Add(uint64(len(buf)))
		cb(err)
	})
}

func (d *tracedDevice) Sync() error {
	id := d.tr.beginChild("device.sync")
	err := d.mem.Sync()
	d.tr.endChild(id)
	d.syncs.Add(1)
	return err
}

func (d *tracedDevice) Truncate(until uint64) error { return d.mem.Truncate(until) }
func (d *tracedDevice) Close() error                { return d.mem.Close() }

// Metrics and StoredBytes keep the store's own device reporting working
// through the wrapper.
func (d *tracedDevice) Metrics() device.Metrics { return d.mem.Metrics() }
func (d *tracedDevice) StoredBytes() uint64     { return d.mem.StoredBytes() }

// session is what the replay needs from a store session; faster.Session
// and faster.ShardedSession both provide it.
type session interface {
	Read(key, input, output []byte, ctx any) (faster.Status, error)
	Upsert(key, value []byte) (faster.Status, error)
	RMW(key, input []byte, ctx any) (faster.Status, error)
	CompletePending(wait bool) []faster.Result
}

// routed is the `session` depth on a store with several shards: plain
// per-shard sessions, routed by hand. An idle session must be parked or
// it pins its shard's epoch, so routed parks around each call exactly as
// ShardedSession does; on such a store the two depths differ by next to
// nothing, and faster.sharded_ns is to be read on the one-shard
// workloads. With one shard the session simply stays unparked.
type routed struct {
	store *faster.ShardedStore
	subs  []*faster.Session
}

func newRouted(store *faster.ShardedStore) *routed {
	r := &routed{store: store}
	for i := 0; i < store.NumShards(); i++ {
		s := store.Shard(i).StartSession()
		if store.NumShards() > 1 {
			s.Park()
		}
		r.subs = append(r.subs, s)
	}
	return r
}

// enter picks key's session and, with several shards, unparks it.
func (r *routed) enter(key []byte) *faster.Session {
	if len(r.subs) == 1 {
		return r.subs[0]
	}
	s := r.subs[r.store.ShardFor(key)]
	s.Unpark()
	return s
}

// leave parks the session again, first waiting out a Pending status: a
// parked session cannot be left holding an operation.
func (r *routed) leave(s *faster.Session, st faster.Status, err error) (faster.Status, error) {
	if len(r.subs) == 1 {
		return st, err
	}
	if st == faster.Pending {
		for _, res := range s.CompletePending(true) {
			st, err = res.Status, res.Err
		}
	}
	s.Park()
	return st, err
}

func (r *routed) Read(key, input, output []byte, ctx any) (faster.Status, error) {
	s := r.enter(key)
	st, err := s.Read(key, input, output, ctx)
	return r.leave(s, st, err)
}

func (r *routed) Upsert(key, value []byte) (faster.Status, error) {
	s := r.enter(key)
	st, err := s.Upsert(key, value)
	return r.leave(s, st, err)
}

func (r *routed) RMW(key, input []byte, ctx any) (faster.Status, error) {
	s := r.enter(key)
	st, err := s.RMW(key, input, ctx)
	return r.leave(s, st, err)
}

func (r *routed) CompletePending(wait bool) []faster.Result {
	return r.subs[0].CompletePending(wait) // only the one-shard case leaves anything pending
}

func (r *routed) close() {
	for _, s := range r.subs {
		s.Unpark()
		s.Close()
	}
}

// sessionExec executes generated operations against a store session the
// way the server does (values framed with VarLenAppend; INCRBY as type
// pre-read, RMW, read of the new value) and checks results like a reply.
type sessionExec struct {
	s     session
	own   *owner
	key   [keyLen]byte
	val   [valueLen]byte
	want  [valueLen]byte
	frame []byte
	out   [8 + valueLen + 4]byte
}

// settle waits out a Pending status: with one request outstanding the
// only completion is this operation's.
func (e *sessionExec) settle(st faster.Status, err error) (faster.Status, error) {
	if st == faster.Pending {
		for _, res := range e.s.CompletePending(true) {
			st, err = res.Status, res.Err
		}
	}
	return st, err
}

func (e *sessionExec) do(p op) (outcome, error) {
	g := e.own.global(p.local)
	var st faster.Status
	var err error
	good := false
	switch p.kind {
	case opGet:
		putKey(e.key[:], 'k', g)
		st, err = e.settle(e.s.Read(e.key[:], nil, e.out[:], nil))
		if payload, ok := faster.VarLenDecode(e.out[:]); st == faster.OK && ok {
			putValue(e.want[:], g, p.ver)
			good = bytes.Equal(payload, e.want[:])
		}
	case opSet:
		putKey(e.key[:], 'k', g)
		putValue(e.val[:], g, p.ver)
		e.frame = faster.VarLenAppend(e.frame[:0], e.val[:])
		st, err = e.s.Upsert(e.key[:], e.frame)
		good = st == faster.OK
	case opIncr:
		putKey(e.key[:], 'c', g)
		if st, err = e.settle(e.s.Read(e.key[:], nil, e.out[:], nil)); st != faster.OK {
			break
		}
		in := counterInput(p.delta)
		if st, err = e.settle(e.s.RMW(e.key[:], in[:], nil)); st != faster.OK {
			break
		}
		st, err = e.settle(e.s.Read(e.key[:], nil, e.out[:], nil))
		n, ok := faster.VarLenCounter(e.out[:])
		good = st == faster.OK && ok && n == p.sum
	}
	switch {
	case good:
		return outOK, nil
	case st == faster.Err:
		return outError, err
	}
	return outWrong, nil
}

// depthResult is one replay of the drawn operations at one depth.
type depthResult struct {
	name     string
	medianNs float64
	meanNs   float64
	allocs   float64
	tally    tally
}

// replayDepth runs n operations one at a time through exec, timing each.
func replayDepth(name string, tr *tracer, n int, exec func(i int) (outcome, error)) (depthResult, error) {
	res := depthResult{name: name}
	lat := make([]int64, n)
	var sum int64
	m0 := mallocs()
	for i := range lat {
		id := tr.beginRequest(name, int32(i))
		start := time.Now()
		out, err := exec(i)
		lat[i] = int64(time.Since(start))
		tr.endRequest(id)
		res.tally.add(out)
		if err != nil {
			return res, fmt.Errorf("replay at depth %s, operation %d: %w", name, i, err)
		}
		sum += lat[i]
	}
	res.allocs = float64(mallocs()-m0) / float64(n)
	res.medianNs = medianInt64(lat)
	res.meanNs = float64(sum) / float64(n)
	return res, nil
}

// traced is the separate traced part of a RESP run: micro rows, the
// replay at three depths with spans, the ledger, and on the workload that
// writes and compacts (update_heavy) the restart check.
func (u *run) traced() error {
	w, res, own := u.w, u.res, u.own[0]
	// Every depth replays its own draw of the same distribution, not one
	// list: the read cache would remember the first depth's keys and
	// serve them to the later depths from memory.
	draw := func(depth int) []op {
		r := newRNG(u.opt.seed, stream(phaseReplay+depth, 0))
		ops := make([]op, w.replay)
		for i := range ops {
			ops[i] = own.draw(r)
		}
		return ops
	}
	ops := draw(0)
	keys := make([][]byte, w.replay)
	for i := range ops {
		keys[i] = make([]byte, keyLen)
		prefix := byte('k')
		if ops[i].kind == opIncr {
			prefix = 'c'
		}
		putKey(keys[i], prefix, own.global(ops[i].local))
	}

	respRows := microRESP(own, ops)
	rtt, err := microLoopback(w.replay)
	if err != nil {
		return err
	}
	alloc, err := microAllocate(w, w.replay)
	if err != nil {
		return fmt.Errorf("hlog.allocate_ns: %w", err)
	}
	res.addAll(respRows)
	res.addAll([]metric{rtt, alloc})
	res.addAll(microStore(u.rig.store, keys))
	res.addAll(microEpoch(w.replay))

	// What each reply must be is fixed as the operation is issued, since
	// earlier depths wrote.
	at := func(depth int, do func(op) (outcome, error)) func(int) (outcome, error) {
		ops := draw(depth)
		return func(i int) (outcome, error) { return do(own.issue(ops[i])) }
	}
	flat := newRouted(u.rig.store)
	// One untimed pass first, or the first depth alone would pay for
	// pulling the hot keys' buckets and records into the processor's
	// caches.
	warm := &sessionExec{s: flat, own: own}
	for _, p := range ops {
		out, err := warm.do(own.issue(p))
		if err != nil {
			flat.close()
			return fmt.Errorf("replay warm-up: %w", err)
		}
		u.tally.add(out)
	}
	u.tr.on.Store(true)
	sessDepth, err := replayDepth("session", u.tr, len(ops), at(1, (&sessionExec{s: flat, own: own}).do))
	flat.close()
	if err != nil {
		return err
	}
	sharded := u.rig.store.StartSession()
	shardDepth, err := replayDepth("sharded", u.tr, len(ops), at(2, (&sessionExec{s: sharded, own: own}).do))
	sharded.Close()
	if err != nil {
		return err
	}
	c := u.conn[0]
	c.nc.SetDeadline(time.Now().Add(2 * time.Minute))
	u.tr.on.Store(false)
	tcpOff, err := replayDepth("tcp", u.tr, len(ops), at(3, c.do))
	if err != nil {
		return err
	}
	u.tr.on.Store(true)
	tcpOn, err := replayDepth("tcp", u.tr, len(ops), at(4, c.do))
	u.tr.on.Store(false)
	if err != nil {
		return err
	}
	for _, d := range []depthResult{sessDepth, shardDepth, tcpOff, tcpOn} {
		u.tally.merge(d.tally)
	}
	dev := u.tr.childTime()
	if err := u.tr.writeFile(u.opt.outPath("trace-" + w.name + ".json")); err != nil {
		return err
	}

	n := uint64(w.replay)
	decode, encode := respRows[0].value, respRows[1].value
	self := tcpOff.medianNs - shardDepth.medianNs - rtt.value
	residual := self - decode - encode
	res.addAll([]metric{
		{"faster.session_ns", sessDepth.medianNs, "ns", n},
		{"faster.sharded_ns", shardDepth.medianNs - sessDepth.medianNs, "ns", n},
		{"faster.allocs_per_op", sessDepth.allocs, "count", n},
		{"depth.tcp_ns", tcpOff.medianNs, "ns", n},
		{"depth.tcp_allocs_per_op", tcpOff.allocs, "count", n},
		{"device.self_ns", dev["tcp"], "ns", n},
		{"server.self_ns", self, "ns", n},
		{"ledger.residual_ns", residual, "ns", n},
		{"ledger.residual_pct", 100 * residual / tcpOff.medianNs, "%", n},
		{"trace_overhead_pct", 100 * (tcpOn.medianNs - tcpOff.medianNs) / tcpOff.medianNs, "%", n},
	})
	res.ledger = ledger{
		depths: []depthResult{sessDepth, shardDepth, tcpOff}, device: dev,
		rtt: rtt.value, decode: decode, encode: encode, self: self, residual: residual,
		tcpTraced: tcpOn.medianNs,
	}

	if w.compact {
		return u.restartCheck()
	}
	return nil
}

// ledger is the printed outside-in account of one request.
type ledger struct {
	depths                              []depthResult
	device                              map[string]float64
	rtt, decode, encode, self, residual float64
	tcpTraced                           float64
}

func (l ledger) print(w io.Writer, workload string) {
	if len(l.depths) == 0 {
		return
	}
	fmt.Fprintf(w, "# ledger %s: one request, outside in (ns; device = mean time under device spans)\n", workload)
	fmt.Fprintf(w, "# %-10s %12s %12s %10s %12s\n", "depth", "median", "mean", "allocs/op", "device")
	for _, d := range l.depths {
		fmt.Fprintf(w, "# %-10s %12.0f %12.0f %10.2f %12.0f\n", d.name, d.medianNs, d.meanNs, d.allocs, l.device[d.name])
	}
	tcp := l.depths[len(l.depths)-1].medianNs
	if len(l.depths) == 1 {
		fmt.Fprintf(w, "# traced %.0f ns, overhead %.1f %%\n", l.tcpTraced, 100*(l.tcpTraced-tcp)/tcp)
		return
	}
	sharded := l.depths[1].medianNs
	fmt.Fprintf(w, "# tcp mean %.0f = sharded mean %.0f + loopback rtt %.0f + %.0f in the server and its miss path\n",
		l.depths[2].meanNs, l.depths[1].meanNs, l.rtt, l.depths[2].meanNs-l.depths[1].meanNs-l.rtt)
	fmt.Fprintf(w, "# tcp median %.0f = sharded %.0f + loopback rtt %.0f + server.self %.0f\n", tcp, sharded, l.rtt, l.self)
	fmt.Fprintf(w, "# server.self %.0f = resp.decode %.0f + resp.encode %.0f + residual %.0f (%.1f %% of tcp: admission, dispatch, wake-ups, client)\n",
		l.self, l.decode, l.encode, l.residual, 100*l.residual/tcp)
	fmt.Fprintf(w, "# tcp traced %.0f ns, overhead %.1f %%\n", l.tcpTraced, 100*(l.tcpTraced-tcp)/tcp)
}
