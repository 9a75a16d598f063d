package faster

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"

	"repro/internal/metrics"
)

// debugSpin, when non-nil, is called from CompletePending's no-progress
// path (test instrumentation only).
var debugSpin func(*Session)

// SetDebugSpinHook installs a callback invoked from CompletePending's
// no-progress wait path with a state snapshot. Test instrumentation only;
// pass nil to remove.
func SetDebugSpinHook(fn func(inFlight, retries, completed int, pendingIOs uint64, opDesc string)) {
	if fn == nil {
		debugSpin = nil
		debugIssue = nil
		return
	}
	var last atomic.Pointer[PendingOp]
	debugIssue = func(op *PendingOp) { last.Store(op) }
	var pathMu sync.Mutex
	paths := map[string]int{}
	debugPath = func(k string) {
		pathMu.Lock()
		paths[k]++
		pathMu.Unlock()
	}
	var walked atomic.Bool
	var spinCount atomic.Int64
	debugSpin = func(sess *Session) {
		if spinCount.Add(1) < 3_000_000 {
			goto report
		}
		if op := last.Load(); op != nil && !walked.Swap(true) {
			fmt.Printf("OPTRACE key=%x entryAddr=%#x:\n", op.key, op.entryAddr)
			for _, tl := range op.trace {
				fmt.Printf("  %s\n", tl)
			}
			// One-shot: walk the chain from the op's entry address.
			addr := op.entryAddr
			seen := map[uint64]bool{}
			for i := 0; i < 10000 && addr != 0 && addr >= 64; i++ {
				if seen[addr] {
					fmt.Printf("WALK CYCLE at %#x after %d hops\n", addr, i)
					break
				}
				seen[addr] = true
				buf := make([]byte, 64)
				done := make(chan error, 1)
				sess.s.log.ReadAsync(addr, buf, func(err error) { done <- err })
				if err := <-done; err != nil {
					fmt.Printf("WALK %#x read err: %v\n", addr, err)
					break
				}
				rec, ok := parseRecord(buf)
				if !ok {
					fmt.Printf("WALK %#x unparseable\n", addr)
					break
				}
				if rec.prev() >= addr {
					fmt.Printf("WALK UPWARD LINK: %#x -> prev=%#x key=%x flags inv=%v size=%d\n",
						addr, rec.prev(), rec.key, rec.invalid(), rec.size)
				}
				addr = rec.prev()
			}
			fmt.Printf("WALK done, %d records\n", len(seen))
		}
	report:
		sess.completed.mu.Lock()
		c := len(sess.completed.ops)
		sess.completed.mu.Unlock()
		desc := ""
		if op := last.Load(); op != nil {
			desc = fmt.Sprintf("%v@%#x err=%v buf=%d entryAddr=%#x vstop=%#x vcur=%#x head=%#x sro=%#x ro=%#x tail=%#x begin=%#x",
				op.kind, op.addr, op.err, len(op.buf), op.entryAddr, op.verifyStop, op.verifyCur,
				sess.s.log.HeadAddress(), sess.s.log.SafeReadOnlyAddress(), sess.s.log.ReadOnlyAddress(),
				sess.s.log.TailAddress(), sess.s.log.BeginAddress())
			buf := make([]byte, 64)
			done := make(chan error, 1)
			sess.s.log.ReadAsync(op.addr, buf, func(err error) { done <- err })
			if err := <-done; err == nil {
				if rec, ok := parseRecord(buf); ok {
					desc += fmt.Sprintf(" rec{prev=%#x key=%x inv=%v}", rec.prev(), rec.key, rec.invalid())
				}
			} else {
				desc += fmt.Sprintf(" readErr=%v", err)
			}
		}
		pathMu.Lock()
		desc += fmt.Sprintf(" paths=%v", paths)
		pathMu.Unlock()
		fn(sess.inFlight, len(sess.retries), c, sess.stat.pendingIOs.Load(), desc)
	}
}

// debugAssert reports whether internal invariant assertions are enabled
// (the process-wide FASTER_DEBUG_ASSERT switch in internal/metrics,
// shared with the hlog layer; flip it from tests with
// metrics.SetDebugAsserts).
func debugAssert() bool { return metrics.DebugAsserts() }

// debugIssue / debugPush observe pending-op lifecycle (tests only).
var (
	debugIssue func(*PendingOp)
	debugPush  func(*PendingOp)
)

// debugReap observes every io-worker reap pass (tests only).
var debugReap func()

// debugPath counts reissue paths (tests only).
var debugPath func(string)

// debugTraceOps records per-op hop traces (tests only).
var debugTraceOps = os.Getenv("FASTER_TRACE_OPS") != ""
