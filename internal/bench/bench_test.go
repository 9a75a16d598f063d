package bench

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/hlog"
	"repro/internal/ycsb"
)

// tinyOptions keeps the experiment drivers fast enough for unit tests;
// the cmd/faster-bench binary runs them at full scale.
func tinyOptions(buf *bytes.Buffer) Options {
	return Options{
		Keys:       2000,
		Duration:   50 * time.Millisecond,
		MaxThreads: 2,
		Out:        buf,
		Seed:       7,
	}
}

func TestAllSystemsRunAllMixes(t *testing.T) {
	o := Options{Keys: 500, Duration: 10 * time.Millisecond, MaxThreads: 2, Seed: 1}
	o.defaults()
	for _, sysName := range []string{"faster", "faster-aol", "shardmap", "btree", "lsm"} {
		for _, m := range figure8Mixes {
			gen := ycsb.NewUniform(o.Keys, 1)
			res, err := runMix(sysName, o, m.Mix, m.Label, gen, 2, 8)
			if err != nil {
				t.Fatalf("%s %s: %v", sysName, m.Label, err)
			}
			if res.Ops == 0 {
				t.Fatalf("%s %s: no operations completed", sysName, m.Label)
			}
		}
	}
}

func TestFasterSystemModes(t *testing.T) {
	for _, mode := range []hlog.Mode{hlog.ModeHybrid, hlog.ModeAppendOnly} {
		sys, err := NewFasterSystem(FasterOptions{Keys: 1000, ValueSize: 8, Mode: mode,
			PageBits: 14, BufferPages: 32})
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		w := sys.NewWorker(0)
		w.RMW(1, 5)
		w.RMW(1, 5)
		out := make([]byte, 8)
		if !w.Read(1, out) {
			t.Fatalf("mode %v: key missing", mode)
		}
		w.Finish()
		w.Close()
		sys.Close()
	}
}

func TestFig8Smoke(t *testing.T) {
	var buf bytes.Buffer
	o := tinyOptions(&buf)
	o.Duration = 10 * time.Millisecond
	results, err := Fig8(o)
	if err != nil {
		t.Fatal(err)
	}
	// 4 panels x 4 mixes x 4 systems.
	if len(results) != 4*4*4 {
		t.Fatalf("Fig8 produced %d results, want 64", len(results))
	}
	if !strings.Contains(buf.String(), "Fig 8a") {
		t.Fatal("Fig8 table header missing")
	}
}

func TestFig11Smoke(t *testing.T) {
	var buf bytes.Buffer
	o := tinyOptions(&buf)
	o.Duration = 10 * time.Millisecond
	results, err := Fig11(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 {
		t.Fatal("no Fig11 results")
	}
	var sawHL, sawAOL bool
	for _, r := range results {
		switch r.System {
		case "faster":
			sawHL = true
		case "faster-aol":
			sawAOL = true
		}
	}
	if !sawHL || !sawAOL {
		t.Fatal("Fig11 missing a log mode")
	}
}

func TestFig12Smoke(t *testing.T) {
	var buf bytes.Buffer
	o := tinyOptions(&buf)
	o.Duration = 10 * time.Millisecond
	rows, err := Fig12(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 20 { // 2 distributions x 10 factors
		t.Fatalf("Fig12 rows = %d, want 20", len(rows))
	}
	for _, r := range rows {
		if r.FuzzyPct < 0 || r.FuzzyPct > 100 {
			t.Fatalf("fuzzy%% out of range: %v", r.FuzzyPct)
		}
	}
}

func TestFig13Smoke(t *testing.T) {
	var buf bytes.Buffer
	o := tinyOptions(&buf)
	o.Duration = 10 * time.Millisecond
	rows, err := Fig13(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no Fig13 rows")
	}
}

func TestTagAblationSmoke(t *testing.T) {
	var buf bytes.Buffer
	o := tinyOptions(&buf)
	o.Duration = 10 * time.Millisecond
	results, err := TagAblation(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("tag ablation rows = %d, want 3", len(results))
	}
}

func TestFig10Smoke(t *testing.T) {
	var buf bytes.Buffer
	o := tinyOptions(&buf)
	o.Duration = 10 * time.Millisecond
	rows, err := Fig10(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2*5*2 {
		t.Fatalf("Fig10 rows = %d, want 20", len(rows))
	}
}

func TestLogBandwidthSmoke(t *testing.T) {
	var buf bytes.Buffer
	o := tinyOptions(&buf)
	o.Duration = 20 * time.Millisecond
	mbs, err := LogBandwidth(o)
	if err != nil {
		t.Fatal(err)
	}
	if mbs <= 0 {
		t.Fatal("no bytes written to the device")
	}
}

func TestRedisPipelineSmoke(t *testing.T) {
	var buf bytes.Buffer
	o := tinyOptions(&buf)
	o.Duration = 20 * time.Millisecond
	rows, err := RedisPipeline(o, 2, []int{1, 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[1].GetsPerS <= rows[0].GetsPerS {
		t.Logf("warning: pipelining did not increase throughput in smoke run (%v vs %v)",
			rows[1].GetsPerS, rows[0].GetsPerS)
	}
}

func TestNetPipelineSmoke(t *testing.T) {
	var buf bytes.Buffer
	o := tinyOptions(&buf)
	o.Duration = 20 * time.Millisecond
	rows, err := NetPipeline(o, 2, []int{1, 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.SetsPerS <= 0 || r.GetsPerS <= 0 {
			t.Fatalf("zero throughput at depth %d: %+v", r.Pipeline, r)
		}
	}
}
