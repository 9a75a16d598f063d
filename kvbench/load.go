package main

import (
	"bufio"
	"fmt"
	"math"
	"net"
	"runtime"
	"sync"
	"time"
)

// statWindow is the width of the windows over which throughput and
// latency quantiles are taken before their median is reported.
const statWindow = int64(500 * time.Millisecond)

// ioGrace bounds how long a connection may sit in one read or write past
// the end of its phase, so a wedged server fails the run instead of
// hanging it.
const ioGrace = 20 * time.Second

// rng streams: one per (phase, connection), so a phase's inputs do not
// depend on how many operations an earlier, speed-dependent phase drew.
const (
	phaseWarmup = iota
	phaseClosed
	phaseLadder // +step
	phaseReplay = 8
)

func stream(phase, id int) uint64 { return uint64(phase)<<8 | uint64(id) }

type closedResult struct {
	tally
	opsPerS float64 // median over windows
}

// closedLoop runs one caller per connection, each waiting for its reply
// before sending the next request, for dur.
func closedLoop(conns []*conn, seed uint64, dur time.Duration) (closedResult, error) {
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		res  closedResult
		done []int64
		fail error
	)
	start := time.Now()
	for _, c := range conns {
		wg.Add(1)
		go func(c *conn) {
			defer wg.Done()
			c.nc.SetDeadline(start.Add(dur + ioGrace))
			r := newRNG(seed, stream(phaseClosed, c.own.id))
			var t tally
			var myDone []int64
			var err error
			for now := int64(0); now < int64(dur); {
				var out outcome
				out, err = c.do(c.own.issue(c.own.draw(r)))
				now = int64(time.Since(start))
				t.add(out)
				if err != nil {
					break
				}
				myDone = append(myDone, now)
			}
			mu.Lock()
			res.tally.merge(t)
			done = append(done, myDone...)
			if err != nil && fail == nil {
				fail = fmt.Errorf("closed loop, connection %d: %w", c.own.id, err)
			}
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	res.opsPerS = windowRate(done, statWindow, int64(dur))
	return res, fail
}

// stepResult is one rung of the open-loop ladder.
type stepResult struct {
	Rate           float64 `json:"rate"`
	Issued         uint64  `json:"issued"`
	Failed         uint64  `json:"failed"`
	P50us          float64 `json:"p50_us"`
	P99us          float64 `json:"p99_us"`
	N              int     `json:"n"`
	LateP50us      float64 `json:"late_p50_us"`
	LateP99us      float64 `json:"late_p99_us"`
	BacklogMid     int     `json:"backlog_mid"`
	BacklogEnd     int     `json:"backlog_end"`
	GeneratorBound bool    `json:"generator_bound"`
	OK             bool    `json:"ok"`

	tally tally
}

// pending is a request on the wire: the reader matches replies to these
// in FIFO order.
type pending struct {
	p    op
	due  int64 // ns since step start
	late int64 // actual send minus due, ns
}

// lateAllowanceUs is the p99 lateness (actual send minus due time) above
// which a step is generator_bound: a tenth of the 10 ms latency limit.
// It is the same on resident_read, whose limit is 2 ms, because the
// sender's own wake-up lateness on this machine has a p99 of 0.1-0.3 ms,
// which a tenth of 2 ms would not clear with any margin.
const lateAllowanceUs = 1000

// inflightCap bounds the sender-to-reader queue; a sender that fills it
// blocks, which shows as lateness and marks the step generator-bound.
const inflightCap = 1 << 15

// openLoop offers rate requests/s over the connections for dur on a
// schedule drawn from the seed. Each connection has a sender that writes
// when a request is due, whether or not earlier replies have come back,
// and a reader that matches replies in order; latency runs from the
// instant the request was due. limitUs is the workload's p99 limit.
func openLoop(conns []*conn, seed uint64, phase int, rate float64, dur time.Duration, limitUs float64) (stepResult, error) {
	res := stepResult{Rate: rate}
	// Arrivals are Poisson: independent users do not arrive on a beat,
	// and a fixed beat locks into step with the server's own wake-ups, so
	// that a whole run sits in one of two latency modes.
	mean := float64(time.Second) * float64(len(conns)) / rate
	var (
		wg             sync.WaitGroup
		mu             sync.Mutex
		due, lat, late []int64
		fail           error
	)
	start := time.Now().Add(time.Millisecond)
	for _, c := range conns {
		wg.Add(1)
		go func(c *conn) {
			defer wg.Done()
			c.nc.SetDeadline(start.Add(dur + ioGrace))
			inflight := make(chan pending, inflightCap)
			var sendErr error
			var swg sync.WaitGroup
			swg.Add(1)
			go func() {
				defer swg.Done()
				defer close(inflight)
				pace, err := newPacer(c.own.id % runtime.NumCPU())
				if err != nil {
					sendErr = err
					return
				}
				defer pace.close()
				r := newRNG(seed, stream(phase, c.own.id))
				arrivals := newRNG(seed, stream(phase, c.own.id)+1<<32)
				var dueAt time.Duration
				for {
					dueAt += time.Duration(-math.Log(1-arrivals.float()) * mean)
					if dueAt >= dur {
						break
					}
					now := time.Since(start)
					if wait := dueAt - now; wait > 5*time.Microsecond {
						if sendErr = c.bw.Flush(); sendErr != nil {
							return
						}
						if sendErr = pace.sleep(wait); sendErr != nil {
							return
						}
						now = time.Since(start)
					}
					p := c.own.issue(c.own.draw(r))
					if sendErr = c.send(p); sendErr != nil {
						return
					}
					inflight <- pending{p: p, due: int64(dueAt), late: int64(now - dueAt)}
				}
				sendErr = c.bw.Flush()
			}()

			var t tally
			var myDue, myLat, myLate []int64
			var recvErr error
			for pd := range inflight {
				if recvErr != nil {
					t.add(outError) // the reply is lost with the connection
					continue
				}
				var out outcome
				out, recvErr = c.recv(pd.p)
				t.add(out)
				if out == outOK {
					myDue = append(myDue, pd.due)
					myLat = append(myLat, int64(time.Since(start))-pd.due)
				}
				myLate = append(myLate, pd.late)
			}
			swg.Wait()
			mu.Lock()
			res.tally.merge(t)
			due, lat, late = append(due, myDue...), append(lat, myLat...), append(late, myLate...)
			for _, err := range []error{sendErr, recvErr} {
				if err != nil && fail == nil {
					fail = fmt.Errorf("open loop at %.0f/s, connection %d: %w", rate, c.own.id, err)
				}
			}
			mu.Unlock()
		}(c)
	}
	wg.Wait()

	res.Issued, res.Failed, res.N = res.tally.issued, res.tally.failed(), len(lat)
	res.P50us = windowed(due, lat, statWindow, int64(dur), 0.50) / 1e3
	res.P99us = windowed(due, lat, statWindow, int64(dur), 0.99) / 1e3
	sortInt64(late)
	res.LateP50us = float64(percentile(late, 0.50)) / 1e3
	res.LateP99us = float64(percentile(late, 0.99)) / 1e3
	res.BacklogMid = backlog(due, lat, int64(dur)/2)
	res.BacklogEnd = backlog(due, lat, int64(dur))
	res.GeneratorBound = res.LateP99us > lateAllowanceUs
	// A backlog is growing when the end of the step holds clearly more
	// unanswered requests than its midpoint; the slack keeps two small
	// counts from being compared as if they were a trend.
	growing := res.BacklogEnd > 2*res.BacklogMid+16
	res.OK = res.Failed == 0 && !res.GeneratorBound && !growing && res.P99us <= limitUs
	return res, fail
}

// backlog counts the requests due by t that had not been answered by t.
func backlog(due, lat []int64, t int64) int {
	n := 0
	for i, d := range due {
		if d <= t && d+lat[i] > t {
			n++
		}
	}
	return n
}

// compactor sends COMPACT on a control connection of its own, one pass
// per request, at the points of the schedule the run chooses.
type compactor struct {
	kick   chan struct{}
	done   chan struct{}
	halted sync.Once
	passes int
	err    error
}

func startCompactor(addr string) (*compactor, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	// Buffered so that asking for a pass never waits for the one running.
	k := &compactor{kick: make(chan struct{}, compactPasses), done: make(chan struct{})}
	go func() {
		defer close(k.done)
		defer nc.Close()
		br := bufio.NewReader(nc)
		for range k.kick {
			if k.err != nil {
				continue
			}
			if _, err := control(nc, br, "COMPACT", 2*time.Minute); err != nil {
				k.err = err
				continue
			}
			k.passes++
		}
	}()
	return k, nil
}

// compact asks for one more pass; it starts when the previous one ends.
func (k *compactor) compact() { k.kick <- struct{}{} }

// halt waits for the passes asked for and returns how many completed. It
// may be called again (a deferred call on an error path).
func (k *compactor) halt() (int, error) {
	k.halted.Do(func() { close(k.kick) })
	<-k.done
	return k.passes, k.err
}
