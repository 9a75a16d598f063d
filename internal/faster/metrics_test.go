package faster

import (
	"bytes"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/hlog"
)

// TestMetricsUnderMixedWorkload drives a YCSB-style mixed workload (reads,
// upserts, RMWs, deletes over a zipf-ish hot set) on a small hybrid store
// that spills to storage, then asserts the snapshot spans every layer with
// moving counters.
func TestMetricsUnderMixedWorkload(t *testing.T) {
	s, _ := openTestStore(t, Config{PageBits: 10, BufferPages: 4, RefreshInterval: 16})

	const (
		workers = 4
		keys    = 512
		opsPer  = 3000
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			sess := s.StartSession()
			defer sess.Close()
			out := make([]byte, 8)
			for i := 0; i < opsPer; i++ {
				k := key(uint64(rng.Intn(keys)))
				switch r := rng.Intn(100); {
				case r < 40:
					if st, err := sess.Read(k, nil, out, nil); err != nil {
						t.Errorf("Read: %v", err)
					} else if st == Pending {
						sess.CompletePending(true)
					}
				case r < 70:
					if _, err := sess.Upsert(k, u64(uint64(i))); err != nil {
						t.Errorf("Upsert: %v", err)
					}
				case r < 95:
					if st, err := sess.RMW(k, u64(1), nil); err != nil {
						t.Errorf("RMW: %v", err)
					} else if st == Pending {
						sess.CompletePending(true)
					}
				default:
					if _, err := sess.Delete(k); err != nil {
						t.Errorf("Delete: %v", err)
					}
				}
			}
			sess.CompletePending(true)
		}(int64(w) + 1)
	}
	wg.Wait()

	m := s.Metrics()
	series := m.Series()

	if len(series) < 15 {
		t.Fatalf("Series() has %d entries, want >= 15", len(series))
	}
	// The snapshot must span all five layers.
	for _, prefix := range []string{"faster.", "hlog.", "index.", "epoch.", "device."} {
		found := false
		for name := range series {
			if strings.HasPrefix(name, prefix) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no series with prefix %q", prefix)
		}
	}

	// Counters that a mixed workload with log spill must have moved.
	moved := []string{
		"faster.reads", "faster.upserts", "faster.rmws", "faster.deletes",
		"faster.in_place", "faster.appends",
		"hlog.tail_address", "hlog.flushes_issued", "hlog.flushed_bytes",
		"hlog.evicted_pages", "hlog.ro_shifts", "hlog.head_shifts",
		"index.entries", "index.buckets",
		"epoch.current", "epoch.bumps", "epoch.actions_run",
		"device.writes", "device.bytes_written",
	}
	for _, name := range moved {
		if v, ok := series[name]; !ok {
			t.Errorf("series %q missing", name)
		} else if v <= 0 {
			t.Errorf("series %q = %v, want > 0", name, v)
		}
	}
	// With a 4-page buffer the workload must have gone to storage, so the
	// pending path and the device read path must both have fired.
	if series["faster.pending_issued"] == 0 {
		t.Errorf("faster.pending_issued = 0, want > 0 (workload should spill to storage)")
	}
	if series["faster.pending_latency.count"] == 0 {
		t.Errorf("faster.pending_latency.count = 0, want > 0")
	}
	if series["device.reads"] == 0 {
		t.Errorf("device.reads = 0, want > 0")
	}
	if series["faster.pending_depth"] != 0 {
		t.Errorf("faster.pending_depth = %v after quiescence, want 0", series["faster.pending_depth"])
	}

	// Typed snapshot consistency with the flat series.
	if got := series["faster.reads"]; got != float64(m.Reads) {
		t.Errorf("series faster.reads = %v, typed snapshot = %d", got, m.Reads)
	}
	if m.Log.MutableBytes+m.Log.FuzzyBytes+m.Log.ReadOnlyBytes+m.Log.StableBytes == 0 {
		t.Error("all hlog region sizes are zero")
	}
	if !m.DeviceKnown {
		t.Error("DeviceKnown = false for a Mem device")
	}

	// The text report renders one line per series.
	var buf bytes.Buffer
	if err := s.WriteReport(&buf); err != nil {
		t.Fatalf("WriteReport: %v", err)
	}
	if n := strings.Count(buf.String(), "\n"); n != len(series) {
		t.Errorf("report has %d lines, series has %d entries", n, len(series))
	}

}

// TestMetricsRCUCopies checks the RCU counter moves when updates land in
// the read-only region (append-only mode forces every update to copy).
func TestMetricsRCUCopies(t *testing.T) {
	s, _ := openTestStore(t, Config{Mode: hlog.ModeAppendOnly})
	sess := s.StartSession()
	defer sess.Close()

	k := key(7)
	if _, err := sess.Upsert(k, u64(1)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if st, err := sess.RMW(k, u64(1), nil); err != nil {
			t.Fatal(err)
		} else if st == Pending {
			sess.CompletePending(true)
		}
	}
	if got := s.Metrics().RCUCopies; got == 0 {
		t.Errorf("RCUCopies = 0 after append-only RMWs, want > 0")
	}
}
