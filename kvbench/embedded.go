package main

import (
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"repro/internal/faster"
)

// embedded_ycsb: no network. One store (SumOps, 8-byte keys and values,
// everything mutable and in memory), one closed-loop caller per processor
// with its own Session, 50% Read / 50% RMW over Zipf keys. The operations
// are drawn before the clock starts and replayed from memory in a cycle,
// as the paper's own driver does, so the timed loop is store work only.

// embeddedBatch is the unit the callers time: the store refreshes its
// epoch every 256 operations, so one batch is one refresh period.
const embeddedBatch = 256

// drawEmbedded returns n operations as key<<1 | isRMW.
func drawEmbedded(w *workload, dist *keyDist, r *rng, n int) []uint32 {
	seq := make([]uint32, n)
	for i := range seq {
		v := uint32(dist.draw(r)) << 1
		if int(r.next()%100) >= w.getPct {
			v |= 1
		}
		seq[i] = v
	}
	return seq
}

// embeddedCaller is one session and the running sum of what it added.
type embeddedCaller struct {
	sess    *faster.Session
	key     [8]byte
	in      [8]byte
	out     [8]byte
	applied uint64
}

// do executes one drawn operation; RMW adds 1 + (key & 7).
func (c *embeddedCaller) do(v uint32) (outcome, error) {
	putKey8(c.key[:], uint64(v>>1))
	var st faster.Status
	var err error
	if v&1 == 1 {
		d := uint64(1 + (v>>1)&7)
		binary.LittleEndian.PutUint64(c.in[:], d)
		st, err = c.sess.RMW(c.key[:], c.in[:], nil)
		c.applied += d
	} else {
		st, err = c.sess.Read(c.key[:], nil, c.out[:], nil)
	}
	if st == faster.Pending {
		for _, res := range c.sess.CompletePending(true) {
			st, err = res.Status, res.Err
		}
	}
	if st != faster.OK {
		return outError, err
	}
	return outOK, nil
}

func runEmbedded(w *workload, opt options) (*result, error) {
	u := &run{w: w, opt: opt, tr: newTracer(), res: newResult(w, opt)}
	defer func() {
		if u.rig != nil {
			u.rig.close()
		}
	}()
	n := callers()
	seqLen := 1 << 22
	if opt.smoke {
		seqLen = 1 << 14
	}
	dist := newZipf(w.keys)
	seqs := make([][]uint32, n)
	for id := range seqs {
		seqs[id] = drawEmbedded(w, dist, newRNG(opt.seed, stream(phaseClosed, id)), seqLen)
	}

	rig, setup, reps, err := w.openLoaded(u.tr)
	if err != nil {
		return nil, err
	}
	u.rig = rig
	store := u.rig.store.Shard(0)

	dur := time.Duration(opt.seconds) * time.Second
	before := u.rig.snapshot()
	var (
		wg             sync.WaitGroup
		mu             sync.Mutex
		ends, lats     []int64
		applied, reads uint64
		firstErr       error
		start          = time.Now()
	)
	for id := 0; id < n; id++ {
		wg.Add(1)
		go func(seq []uint32) {
			defer wg.Done()
			c := &embeddedCaller{sess: store.StartSession()}
			defer c.sess.Close()
			var t tally
			var myEnds, myLats []int64
			var myReads uint64
			var err error
			pos, last := 0, int64(0)
			for last < int64(dur) && err == nil {
				for j := 0; j < embeddedBatch; j++ {
					v := seq[pos]
					pos = (pos + 1) & (len(seq) - 1)
					var out outcome
					out, err = c.do(v)
					t.add(out)
					myReads += uint64(1 - v&1)
				}
				now := int64(time.Since(start))
				myEnds, myLats = append(myEnds, now), append(myLats, now-last)
				last = now
			}
			mu.Lock()
			u.tally.merge(t)
			ends, lats = append(ends, myEnds...), append(lats, myLats...)
			applied += c.applied
			reads += myReads
			if err != nil && firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
		}(seqs[id])
	}
	wg.Wait()
	if firstErr != nil {
		return nil, fmt.Errorf("embedded load: %w", firstErr)
	}
	after := u.rig.snapshot()

	res := u.res
	res.add("setup_s", setup, "s", uint64(reps))
	res.add("ops_per_s", embeddedBatch*windowRate(ends, statWindow, int64(dur)), "1/s", u.tally.issued)
	// With no request and no reply there is no request latency; what a
	// caller sees is how long a batch of 256 operations takes it.
	res.add("p50_us", windowed(ends, lats, statWindow, int64(dur), 0.50)/1e3, "us", uint64(len(lats)))
	res.add("p99_us", windowed(ends, lats, statWindow, int64(dur), 0.99)/1e3, "us", uint64(len(lats)))
	res.add("rss_mb", peakRSSMB(), "MB", 1)
	res.addAll(counterRows(before, after, reads, u.tally.issued, 0))
	res.checkResident(w, before, after)

	if opt.trace {
		c := &embeddedCaller{sess: store.StartSession()}
		err := u.tracedEmbedded(c, drawEmbedded(w, dist, newRNG(opt.seed, stream(phaseReplay, 0)), w.replay))
		applied += c.applied
		c.sess.Close()
		if err != nil {
			return nil, err
		}
	}

	// Every value started at 0 and only RMW changes one, so the values
	// must add up to exactly what the callers added.
	sess := store.StartSession()
	var key, out [8]byte
	var total uint64
	for i := uint64(0); i < w.keys; i++ {
		putKey8(key[:], i)
		if st, err := sess.Read(key[:], nil, out[:], nil); st != faster.OK {
			sess.Close()
			return nil, fmt.Errorf("final read of key %d: %v %v", i, st, err)
		}
		total += binary.LittleEndian.Uint64(out[:])
	}
	sess.Close()
	if total != applied {
		u.tally.wrong++
		res.Notes = append(res.Notes, fmt.Sprintf("values sum to %d, callers added %d", total, applied))
	}
	res.add("fail_share", ratio(u.tally.failed()+u.tally.wrong, u.tally.issued), "ratio", u.tally.issued)
	res.Attempted, res.Failed, res.wrong = u.tally.issued, u.tally.failed()+u.tally.wrong, u.tally.wrong
	return res, nil
}

// tracedEmbedded is the traced part of embedded_ycsb: the micro rows the
// workload touches and one replay at the only depth it has, a Session
// call, with spans off and on.
func (u *run) tracedEmbedded(c *embeddedCaller, seq []uint32) error {
	w, res := u.w, u.res
	keys := make([][]byte, len(seq))
	for i, v := range seq {
		keys[i] = make([]byte, 8)
		putKey8(keys[i], uint64(v>>1))
	}
	alloc, err := microAllocate(w, w.replay)
	if err != nil {
		return fmt.Errorf("hlog.allocate_ns: %w", err)
	}
	res.addAll([]metric{alloc})
	res.addAll(microStore(u.rig.store, keys))
	res.addAll(microEpoch(w.replay))

	exec := func(i int) (outcome, error) { return c.do(seq[i]) }
	off, err := replayDepth("session", u.tr, len(seq), exec)
	if err != nil {
		return err
	}
	u.tr.on.Store(true)
	on, err := replayDepth("session", u.tr, len(seq), exec)
	u.tr.on.Store(false)
	if err != nil {
		return err
	}
	u.tally.merge(off.tally)
	u.tally.merge(on.tally)
	dev := u.tr.childTime()
	if err := u.tr.writeFile(u.opt.outPath("trace-" + w.name + ".json")); err != nil {
		return err
	}
	n := uint64(len(seq))
	res.addAll([]metric{
		{"faster.session_ns", off.medianNs, "ns", n},
		{"faster.allocs_per_op", off.allocs, "count", n},
		{"device.self_ns", dev["session"], "ns", n},
		{"trace_overhead_pct", 100 * (on.medianNs - off.medianNs) / off.medianNs, "%", n},
	})
	res.ledger = ledger{depths: []depthResult{off}, device: dev, tcpTraced: on.medianNs}
	return nil
}
