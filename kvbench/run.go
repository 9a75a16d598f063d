package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// options are the arguments of one run.
type options struct {
	seed    uint64
	seconds int
	trace   bool
	smoke   bool
	outDir  string
}

// callers is the number of load connections (RESP) or sessions
// (embedded): the machine's processors, at most the two the frozen rates
// were calibrated with.
func callers() int { return min(runtime.NumCPU(), 2) }

// run is the state of one workload run.
type run struct {
	w    *workload
	opt  options
	tr   *tracer
	rig  *rig
	own  []*owner
	conn []*conn

	acked atomic.Uint64 // acknowledged write bytes, all connections
	res   *result
	tally tally // every timed request
}

var ladderNames = [3]string{"low", "mid", "high"}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// runRESP runs one of the three networked workloads: set-up, the closed
// loop, the three-step open-loop ladder and, when tracing, the replay at
// three depths, the micro rows and (update_heavy) the restart check.
func runRESP(w *workload, opt options) (*result, error) {
	u := &run{w: w, opt: opt, tr: newTracer(), res: newResult(w, opt)}
	defer func() {
		for _, c := range u.conn {
			c.close()
		}
		if u.rig != nil {
			u.rig.close()
		}
	}()
	n := callers()
	for id := 0; id < n; id++ {
		u.own = append(u.own, newOwner(w, id, n))
	}

	setup, reps, err := u.setUp()
	if err != nil {
		return nil, err
	}

	phase := time.Duration(opt.seconds) * time.Second / 4
	before := u.rig.snapshot()
	var comp *compactor
	if w.compact {
		if comp, err = startCompactor(u.rig.srv.Addr()); err != nil {
			return nil, err
		}
		defer comp.halt()
		comp.compact()
	}
	closed, err := closedLoop(u.conn, opt.seed, phase)
	if err != nil {
		return nil, err
	}
	u.tally.merge(closed.tally)
	var steps []stepResult
	for i, rate := range w.rates {
		if comp != nil && i == 1 {
			comp.compact()
		}
		st, err := openLoop(u.conn, opt.seed, phaseLadder+i, rate, phase, w.limitUs)
		if err != nil {
			return nil, err
		}
		u.tally.merge(st.tally)
		steps = append(steps, st)
	}
	var passes int
	if comp != nil {
		if passes, err = comp.halt(); err != nil {
			return nil, fmt.Errorf("compactor: %w", err)
		}
	}
	after := u.rig.snapshot()
	userWriteBytes := u.acked.Load()

	// The counters are summed against the acknowledged increments, still
	// inside the run: a lost or doubled INCRBY fails it.
	if w.counters > 0 {
		t, err := u.readBack(false)
		if err != nil {
			return nil, err
		}
		u.tally.merge(t)
	}

	res, mid := u.res, steps[1]
	res.Ladder = steps
	res.add("setup_s", setup, "s", uint64(reps))
	res.add("ops_per_s", closed.opsPerS, "1/s", closed.issued)
	res.add("p50_us", mid.P50us, "us", uint64(mid.N))
	res.add("p99_us", mid.P99us, "us", uint64(mid.N))
	res.add("rss_mb", peakRSSMB(), "MB", 1)
	var maxOK float64
	for i, st := range steps {
		name := "ladder." + ladderNames[i]
		res.add(name+".rate", st.Rate, "1/s", st.Issued)
		res.add(name+".p50_us", st.P50us, "us", uint64(st.N))
		res.add(name+".p99_us", st.P99us, "us", uint64(st.N))
		res.add(name+".late_p50_us", st.LateP50us, "us", st.Issued)
		res.add(name+".late_p99_us", st.LateP99us, "us", st.Issued)
		res.add(name+".fail_share", ratio(st.Failed, st.Issued), "ratio", st.Issued)
		res.add(name+".backlog_mid", float64(st.BacklogMid), "count", st.Issued)
		res.add(name+".backlog_end", float64(st.BacklogEnd), "count", st.Issued)
		if st.OK {
			maxOK = st.Rate
		}
		res.add(name+".generator_bound", b2f(st.GeneratorBound), "bool", st.Issued)
	}
	res.add("max_rate_ok", maxOK, "1/s", 3)
	res.add("fail_share", ratio(u.tally.failed(), u.tally.issued), "ratio", u.tally.issued)
	res.add("failed.shed_timeout", float64(u.tally.shedTimeout), "count", u.tally.issued)
	res.add("failed.shed_overload", float64(u.tally.shedOverload), "count", u.tally.issued)
	res.add("failed.error", float64(u.tally.errs), "count", u.tally.issued)
	res.add("failed.wrong", float64(u.tally.wrong), "count", u.tally.issued)
	var stored uint64
	for _, d := range u.rig.devs {
		stored += d.StoredBytes()
	}
	res.add("space_amp", ratio(stored, w.liveUserBytes()), "ratio", 1)
	var gets uint64
	for _, o := range u.own {
		gets += o.gets
	}
	counters := counterRows(before, after, gets, u.tally.issued, userWriteBytes)
	res.addAll(counters)

	res.checkResident(w, before, after)
	if w.readCache > 0 && after.rcFills == 0 {
		res.invalid("the read cache was never filled")
	}
	if w.compact {
		res.add("compact_passes", float64(passes), "count", compactPasses)
		if passes < compactPasses {
			res.invalid("%d of %d compaction passes completed", passes, compactPasses)
		}
	}

	if opt.trace {
		if err := u.traced(); err != nil {
			return nil, err
		}
	}
	res.Attempted, res.Failed, res.wrong = u.tally.issued, u.tally.failed(), u.tally.wrong
	return res, nil
}

// checkResident marks the run invalid if a workload whose data fits in
// memory read the device even once between the two snapshots.
func (r *result) checkResident(w *workload, before, after snapshot) {
	if n := after.devReads - before.devReads; w.resident && n != 0 {
		r.invalid("%d device reads on a workload that must stay in memory", n)
	}
}

// setUp opens and loads the store several times, keeping the last copy,
// then starts the server, connects and warms up. It returns setup_s (the
// median open-and-load time plus the one-off remainder) and how many
// loads the median is over.
func (u *run) setUp() (float64, int, error) {
	rig, load, reps, err := u.w.openLoaded(u.tr)
	if err != nil {
		return 0, 0, err
	}
	u.rig = rig
	start := time.Now()
	if err := u.connect(); err != nil {
		return 0, 0, err
	}
	if u.w.warmup > 0 {
		st, err := openLoop(u.conn, u.opt.seed, phaseWarmup, u.w.warmRate, u.w.warmup, u.w.limitUs)
		if err != nil {
			return 0, 0, err
		}
		// Warm-up requests are not timed, but a wrong reply is still wrong.
		u.tally.wrong += st.tally.wrong
	}
	return load + time.Since(start).Seconds(), reps, nil
}

// connect starts the server on the rig's store and dials one connection
// per owner.
func (u *run) connect() error {
	if err := u.rig.serve(); err != nil {
		return err
	}
	u.conn = u.conn[:0]
	for _, o := range u.own {
		c, err := dial(u.rig.srv.Addr(), o, &u.acked)
		if err != nil {
			return err
		}
		u.conn = append(u.conn, c)
	}
	return nil
}

// readBack reads, over every connection at once, each value key the
// connection has written in this run (when values is set) and each of its
// counters, and checks them against what the connection last wrote.
func (u *run) readBack(values bool) (tally, error) {
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		total tally
		fail  error
	)
	for _, c := range u.conn {
		wg.Add(1)
		go func(c *conn) {
			defer wg.Done()
			c.nc.SetDeadline(time.Now().Add(2 * time.Minute))
			var t tally
			var err error
			if values {
				var written []uint32
				for i, v := range c.own.ver {
					if v > 0 {
						written = append(written, uint32(i))
					}
				}
				t, err = c.pipeline(len(written), func(i int) op { return op{kind: opGet, local: written[i]} })
			}
			if err == nil {
				var tc tally
				tc, err = c.pipeline(len(c.own.ctr), func(i int) op { return op{kind: opReadCtr, local: uint32(i)} })
				t.merge(tc)
			}
			mu.Lock()
			total.merge(t)
			if err != nil && fail == nil {
				fail = fmt.Errorf("read-back, connection %d: %w", c.own.id, err)
			}
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	return total, fail
}

// pipeline issues n operations in order, a window at a time.
func (c *conn) pipeline(n int, next func(i int) op) (tally, error) {
	// Small enough that two connections' cold reads fit the io-pool's
	// admission queue (64 per shard) instead of being shed.
	const window = 16
	var t tally
	ops := make([]op, 0, window)
	for i := 0; i < n; i += window {
		ops = ops[:0]
		for j := i; j < n && j < i+window; j++ {
			p := c.own.issue(next(j))
			ops = append(ops, p)
			if err := c.send(p); err != nil {
				return t, err
			}
		}
		if err := c.bw.Flush(); err != nil {
			return t, err
		}
		for _, p := range ops {
			out, err := c.recv(p)
			t.add(out)
			if err != nil {
				return t, err
			}
		}
	}
	return t, nil
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// resetPeakRSS restarts the high-water mark, so that in a process that
// runs several workloads each reports its own peak. Best effort.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

func (o options) outPath(name string) string { return filepath.Join(o.outDir, name) }
