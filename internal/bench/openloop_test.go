package bench

import (
	"encoding/binary"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/faster"
	"repro/internal/hlog"
	"repro/internal/resp"
	"repro/internal/server"
)

// openLoopFixture stands up a larger-than-memory store behind the RESP
// front-end: a 128 KiB log buffer over a chaos-capable memory device,
// preloaded (several× the buffer) so the cold tail of the key space
// lives only on "disk" while the hot prefix sits resident at the log
// tail. Cold GET/INCRBY traffic therefore exercises the full
// out-of-band miss path (WouldBlock → io-worker pool → async reply)
// that the open-loop SLO run measures. The buffer is sized above one
// run's append volume: when the mutable region wraps mid-run, tail
// allocation blocks on (spiked) page flushes — write-path back-pressure
// that is real but orthogonal to the read-miss isolation under test.
func openLoopFixture(tb testing.TB, keys, hot uint64) (addr string, dev *device.Faulty, store *faster.Store) {
	tb.Helper()
	dev = device.NewFaulty(device.NewMem(device.MemConfig{}))
	store, err := faster.Open(faster.Config{
		Ops:          faster.VarLenOps{},
		Mode:         hlog.ModeHybrid,
		IndexBuckets: 1 << 12,
		PageBits:     12,
		BufferPages:  32,
		Device:       dev,
		MaxSessions:  24,
		IOWorkers:    4,
	})
	if err != nil {
		tb.Fatal(err)
	}
	srv, err := server.ListenAndServe(store, "127.0.0.1:0", server.Config{
		Sessions:    8,
		MaxInFlight: 64,
		MaxConns:    64,
		OpTimeout:   500 * time.Millisecond,
	})
	if err != nil {
		store.Close()
		dev.Close()
		tb.Fatal(err)
	}
	tb.Cleanup(func() {
		srv.Close()
		store.Close()
		dev.Close()
	})

	// Preload every key as an 8-byte counter (so GET and INCRBY both
	// work), then rewrite the hot prefix so it lands resident at the
	// tail while the cold range has long since spilled to the device.
	cl, err := resp.Dial(srv.Addr())
	if err != nil {
		tb.Fatal(err)
	}
	defer cl.Close()
	cl.Timeout = 30 * time.Second
	setCmd := []byte("SET")
	zero := make([]byte, 8)
	binary.LittleEndian.PutUint64(zero, 7)
	load := func(lo, hi uint64) {
		batch := make([][][]byte, 0, 256)
		flush := func() {
			replies, err := cl.Pipeline(batch)
			if err != nil {
				tb.Fatal(err)
			}
			for _, r := range replies {
				if r.IsError() {
					tb.Fatalf("preload SET failed: %s", r.Str)
				}
			}
			batch = batch[:0]
		}
		for k := lo; k < hi; k++ {
			batch = append(batch, [][]byte{setCmd, appendOpenLoopKey(nil, k), zero})
			if len(batch) == 256 {
				flush()
			}
		}
		if len(batch) > 0 {
			flush()
		}
	}
	load(0, keys)
	load(0, hot)
	return srv.Addr(), dev, store
}

// TestOpenLoopSmoke is the stall-free SLO gate in miniature: a no-chaos
// run and a 100 ms device latency-spike run over the same fixture. The
// hot (resident) class must ride through device chaos — its p999 stays
// within 10× the no-chaos baseline (with a scheduling-jitter floor for
// loaded CI machines) — every issued op lands in exactly one outcome
// bucket, and deadline sheds must leave the health ladder untouched.
func TestOpenLoopSmoke(t *testing.T) {
	const keys, hot = 6000, 64
	addr, dev, store := openLoopFixture(t, keys, hot)

	cfg := OpenLoopConfig{
		Addr:     addr,
		Rate:     1600,
		Duration: 500 * time.Millisecond,
		Conns:    8,
		Keys:     keys,
		HotKeys:  hot,
		HotPct:   75,
		RMWPct:   20,
		Seed:     1,
	}
	base, err := OpenLoop(cfg)
	if err != nil {
		t.Fatalf("baseline run: %v", err)
	}
	if base.Completed == 0 || base.Hot.Count == 0 || base.Cold.Count == 0 {
		t.Fatalf("baseline run did not complete traffic in both classes: %+v", base)
	}
	if m := store.Metrics(); m.IOSubmitted == 0 {
		t.Fatal("no cold miss went through the io-worker pool; the working set is not larger than memory")
	}

	dev.SpikeLatency(100*time.Millisecond, 200*time.Millisecond, 50*time.Millisecond)
	chaos, err := OpenLoop(cfg)
	dev.SpikeLatency(0, 0, 0)
	if err != nil {
		t.Fatalf("chaos run: %v", err)
	}
	if chaos.Completed == 0 || chaos.Hot.Count == 0 {
		t.Fatalf("chaos run did not complete hot traffic: %+v", chaos)
	}

	// The stall-free claim: device chaos slows (or sheds) cold misses,
	// but resident traffic keeps its latency profile.
	limit := 10 * base.Hot.P999
	if floor := 60 * time.Millisecond; limit < floor {
		limit = floor
	}
	if chaos.Hot.P999 > limit {
		t.Fatalf("hot p999 under chaos = %v, want <= %v (baseline hot p999 %v); hot traffic is stalling behind cold misses",
			chaos.Hot.P999, limit, base.Hot.P999)
	}
	// Back-pressure sheds are explicit, accounted, and must never trip
	// the health ladder — the device is slow, not failing.
	if h := store.Health(); h != faster.Healthy {
		t.Fatalf("health = %v after latency-spike chaos, want Healthy (sheds: %d timeout, %d overload)",
			h, chaos.ShedTimeout, chaos.ShedOverload)
	}
	t.Logf("baseline: hot p50/p99/p999 = %v/%v/%v cold p999 = %v (%d completed)",
		base.Hot.P50, base.Hot.P99, base.Hot.P999, base.Cold.P999, base.Completed)
	t.Logf("chaos:    hot p50/p99/p999 = %v/%v/%v cold p999 = %v (%d completed, %d shed-timeout, %d shed-overload, %d errors)",
		chaos.Hot.P50, chaos.Hot.P99, chaos.Hot.P999, chaos.Cold.P999,
		chaos.Completed, chaos.ShedTimeout, chaos.ShedOverload, chaos.Errors)
}

// BenchmarkOpenLoopSLO prints the open-loop SLO curves: one no-chaos run
// and one run under 100 ms periodic device latency spikes, reporting
// exact hot/cold percentiles and the full shed accounting as custom
// units. Run it with -benchtime 1x: each phase is one fixed-length
// constant-rate schedule, not an iteration loop.
//
//	go test -run '^$' -bench OpenLoopSLO -benchtime 1x ./internal/bench/
func BenchmarkOpenLoopSLO(b *testing.B) {
	for _, tc := range []struct {
		name  string
		spike time.Duration
	}{
		{"baseline", 0},
		{"spike100ms", 100 * time.Millisecond},
	} {
		b.Run(tc.name, func(b *testing.B) {
			const keys, hot = 8000, 128
			addr, dev, store := openLoopFixture(b, keys, hot)
			if tc.spike > 0 {
				dev.SpikeLatency(tc.spike, 200*time.Millisecond, 50*time.Millisecond)
			}
			cfg := OpenLoopConfig{
				Addr:     addr,
				Rate:     2000,
				Duration: 1500 * time.Millisecond,
				Conns:    12,
				Keys:     keys,
				HotKeys:  hot,
				HotPct:   75,
				RMWPct:   20,
				Seed:     42,
			}
			b.ResetTimer()
			var res OpenLoopResult
			for i := 0; i < b.N; i++ {
				var err error
				res, err = OpenLoop(cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
			b.ReportMetric(ms(res.Hot.P50), "hot-p50-ms")
			b.ReportMetric(ms(res.Hot.P99), "hot-p99-ms")
			b.ReportMetric(ms(res.Hot.P999), "hot-p999-ms")
			b.ReportMetric(ms(res.Cold.P50), "cold-p50-ms")
			b.ReportMetric(ms(res.Cold.P99), "cold-p99-ms")
			b.ReportMetric(ms(res.Cold.P999), "cold-p999-ms")
			b.ReportMetric(float64(res.Issued), "issued")
			b.ReportMetric(float64(res.Completed), "completed")
			b.ReportMetric(float64(res.ShedTimeout), "shed-timeout")
			b.ReportMetric(float64(res.ShedOverload), "shed-overload")
			b.ReportMetric(float64(res.Errors), "transport-errors")
			if h := store.Health(); h != faster.Healthy {
				b.Fatalf("health = %v after run, want Healthy", h)
			}
		})
	}
}
