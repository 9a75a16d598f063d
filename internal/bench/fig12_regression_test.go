package bench

import (
	"bytes"
	"testing"
	"time"
)

// TestFig12Regression is the promoted form of the old DEBUG_FIG12 manual
// harness: it runs the full Fig 12 IPU-region sweep at unit-test scale
// with a fixed seed and asserts the sweep's structural invariants instead
// of printing state for a human. The original harness existed to chase a
// CompletePending livelock, so the sweep completing at all is the
// regression criterion: an unbounded spin shows up as a test timeout.
func TestFig12Regression(t *testing.T) {
	var buf bytes.Buffer
	o := Options{Keys: 2000, Duration: 60 * time.Millisecond, MaxThreads: 2, Out: &buf, Seed: 7}
	rows, err := Fig12(o)
	if err != nil {
		t.Fatal(err)
	}

	// 2 distributions x 10 IPU factors.
	wantFactors := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	if len(rows) != 2*len(wantFactors) {
		t.Fatalf("Fig12 produced %d rows, want %d", len(rows), 2*len(wantFactors))
	}
	for i, row := range rows {
		want := wantFactors[i%len(wantFactors)]
		if row.IPUFactor != want {
			t.Errorf("row %d: IPUFactor = %v, want %v", i, row.IPUFactor, want)
		}
		if row.Ops == 0 {
			t.Errorf("row %d (ipu=%.1f): no operations completed", i, row.IPUFactor)
		}
		if row.LogGrowthMBs < 0 {
			t.Errorf("row %d: negative log growth %v", i, row.LogGrowthMBs)
		}
		if row.FuzzyPct < 0 || row.FuzzyPct > 100 {
			t.Errorf("row %d: fuzzy%% = %v out of [0,100]", i, row.FuzzyPct)
		}
	}

	// The sweep's defining shape (Fig 12a): shrinking the in-place-
	// updatable region converts in-place updates into RCU appends, so the
	// log must grow strictly faster at IPU 0.1 than at IPU 1.0.
	for d := 0; d < 2; d++ {
		lo := rows[d*len(wantFactors)]                    // ipu = 0.1
		hi := rows[d*len(wantFactors)+len(wantFactors)-1] // ipu = 1.0
		if lo.LogGrowthMBs <= 0 {
			t.Errorf("distribution %d: no log growth at ipu=0.1 (got %v MB/s)", d, lo.LogGrowthMBs)
		}
		if lo.LogGrowthMBs <= hi.LogGrowthMBs {
			t.Errorf("distribution %d: log growth %.2f MB/s at ipu=0.1 not above %.2f MB/s at ipu=1.0",
				d, lo.LogGrowthMBs, hi.LogGrowthMBs)
		}
	}

	if buf.Len() == 0 {
		t.Error("Fig12 wrote no table output")
	}
}
