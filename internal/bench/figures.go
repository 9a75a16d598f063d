package bench

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/device"
	"repro/internal/hlog"
	"repro/internal/ycsb"
)

// This file regenerates the tables behind every throughput figure of the
// paper's evaluation (Figs 8-13 plus the §7.2.2 tag ablation, the §7.2.4
// Redis comparison lives in redis.go, and Figs 14-16 in cmd/cachesim).
// Scales are laptop-sized; EXPERIMENTS.md records how the shapes compare
// with the paper's testbed numbers.

// Options scales the experiments.
type Options struct {
	// Keys is the dataset size (the paper uses 250M; default here 100k).
	Keys uint64
	// Duration is the per-measurement window (paper: 30s; default 2s).
	Duration time.Duration
	// MaxThreads caps thread sweeps (paper: 56; default 2*GOMAXPROCS).
	MaxThreads int
	// Out receives the printed tables.
	Out io.Writer
	// Seed makes runs reproducible.
	Seed int64
	// DumpMetrics prints the store's full metrics report (Store.Metrics
	// flattened to named series) after each FASTER measurement cell.
	DumpMetrics bool
}

func (o *Options) defaults() {
	if o.Keys == 0 {
		o.Keys = 100_000
	}
	if o.Duration == 0 {
		o.Duration = 2 * time.Second
	}
	if o.MaxThreads == 0 {
		o.MaxThreads = 2 * runtime.GOMAXPROCS(0)
	}
	if o.Out == nil {
		o.Out = io.Discard
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
}

// threadSweep returns 1,2,4,... up to max.
func threadSweep(max int) []int {
	var ts []int
	for t := 1; t <= max; t *= 2 {
		ts = append(ts, t)
	}
	if ts[len(ts)-1] != max {
		ts = append(ts, max)
	}
	return ts
}

// mixes in paper presentation order.
var figure8Mixes = []struct {
	Label string
	Mix   ycsb.Mix
}{
	{"0:100 RMW", ycsb.MixRMW100},
	{"0:100", ycsb.Mix0R100BU},
	{"50:50", ycsb.Mix50R50BU},
	{"100:0", ycsb.Mix100R},
}

// buildSystem constructs a named system sized for o.
func buildSystem(name string, o Options, valueSize int) (System, error) {
	switch name {
	case "faster":
		return NewFasterSystem(FasterOptions{Keys: o.Keys, ValueSize: valueSize,
			Mode: hlog.ModeHybrid, BufferPages: bufferPagesFor(o.Keys, valueSize, 16, 2.0)})
	case "faster-aol":
		// The paper's append-only experiment (§7.4.1) uses a 2^15-page,
		// 4 MB/page buffer — nothing evicts. Size the buffer to hold the
		// whole run's appends so the comparison measures tail contention
		// and RCU cost, not random reads.
		return NewFasterSystem(FasterOptions{Keys: o.Keys, ValueSize: valueSize,
			Mode: hlog.ModeAppendOnly, BufferPages: bufferPagesFor(o.Keys, valueSize, 16, 48.0)})
	case "shardmap":
		return NewShardmapSystem(o.Keys), nil
	case "btree":
		return NewBTreeSystem(), nil
	case "lsm":
		return NewLSMSystem(64<<20, "")
	default:
		return nil, fmt.Errorf("bench: unknown system %q", name)
	}
}

// bufferPagesFor sizes the log buffer to headroom x the dataset (so the
// in-memory figures really run in memory), with 1<<pageBits pages.
func bufferPagesFor(keys uint64, valueSize int, pageBits uint, headroom float64) int {
	recBytes := uint64(16 + 8 + ((valueSize + 7) &^ 7))
	need := float64(keys*recBytes) * headroom
	pages := int(need/float64(uint64(1)<<pageBits)) + 1
	n := 2
	for n < pages {
		n *= 2
	}
	return n
}

// runMix measures one (system, mix, distribution) cell.
func runMix(sysName string, o Options, mix ycsb.Mix, label string, gen ycsb.Generator, threads, valueSize int) (Result, error) {
	sys, err := buildSystem(sysName, o, valueSize)
	if err != nil {
		return Result{}, err
	}
	defer sys.Close()
	wl := ycsb.NewWorkload(gen, mix, o.Seed)
	res := Run(sys, RunConfig{
		Threads:   threads,
		Duration:  o.Duration,
		Workload:  wl,
		ValueSize: valueSize,
		Preload:   true,
		RMWInputs: ycsb.InputArray(),
		Seed:      o.Seed,
	}, label)
	maybeDumpMetrics(o, sys, label)
	return res, nil
}

// maybeDumpMetrics prints the store's metrics report when the system under
// test is a FASTER store and o.DumpMetrics is set. Must run before the
// system is closed.
func maybeDumpMetrics(o Options, sys System, label string) {
	if !o.DumpMetrics {
		return
	}
	fsys, ok := sys.(*FasterSystem)
	if !ok {
		return
	}
	fmt.Fprintf(o.Out, "--- metrics: %s %s ---\n", sys.Name(), label)
	_ = fsys.Store().WriteReport(o.Out)
}

// Fig8 regenerates Fig 8a-8d: throughput of FASTER vs the in-memory and
// larger-than-memory baselines across the four YCSB-A variants, for
// uniform and Zipfian distributions, at 1 thread and at MaxThreads.
func Fig8(o Options) ([]Result, error) {
	o.defaults()
	systems := []string{"faster", "shardmap", "btree", "lsm"}
	var results []Result
	for _, tc := range []struct {
		panel   string
		threads int
		zipf    bool
	}{
		{"8a single-thread uniform", 1, false},
		{"8b single-thread zipf", 1, true},
		{"8c all-threads uniform", o.MaxThreads, false},
		{"8d all-threads zipf", o.MaxThreads, true},
	} {
		fmt.Fprintf(o.Out, "\n--- Fig %s (keys=%d, %v/run) ---\n", tc.panel, o.Keys, o.Duration)
		for _, m := range figure8Mixes {
			for _, sysName := range systems {
				var gen ycsb.Generator
				if tc.zipf {
					gen = ycsb.NewZipfian(o.Keys, ycsb.DefaultTheta, o.Seed)
				} else {
					gen = ycsb.NewUniform(o.Keys, o.Seed)
				}
				res, err := runMix(sysName, o, m.Mix, m.Label, gen, tc.threads, 8)
				if err != nil {
					return nil, err
				}
				results = append(results, res)
				fmt.Fprintf(o.Out, "%s\n", res)
			}
		}
	}
	return results, nil
}

// Fig9a regenerates the RMW scalability sweep (8-byte payloads, Zipfian).
func Fig9a(o Options) ([]Result, error) {
	o.defaults()
	return scalability(o, ycsb.MixRMW100, "0:100 RMW", 8, "Fig 9a")
}

// Fig9b regenerates the blind-update scalability sweep (100-byte
// payloads, Zipfian).
func Fig9b(o Options) ([]Result, error) {
	o.defaults()
	return scalability(o, ycsb.Mix0R100BU, "0:100", 100, "Fig 9b")
}

func scalability(o Options, mix ycsb.Mix, label string, valueSize int, fig string) ([]Result, error) {
	systems := []string{"faster", "shardmap", "btree", "lsm"}
	var results []Result
	fmt.Fprintf(o.Out, "\n--- %s scalability (%s, %dB values, zipf) ---\n", fig, label, valueSize)
	for _, threads := range threadSweep(o.MaxThreads) {
		for _, sysName := range systems {
			gen := ycsb.NewZipfian(o.Keys, ycsb.DefaultTheta, o.Seed)
			res, err := runMix(sysName, o, mix, label, gen, threads, valueSize)
			if err != nil {
				return nil, err
			}
			results = append(results, res)
			fmt.Fprintf(o.Out, "%s\n", res)
		}
	}
	return results, nil
}

// Fig10Row is one memory-budget measurement.
type Fig10Row struct {
	Result
	BudgetBytes uint64
	DiskReads   uint64
}

// Fig10 regenerates the larger-than-memory experiment: fixed dataset,
// shrinking memory budget, FASTER (50:50 and 0:100 Zipf) vs the LSM
// baseline. The budget controls the log buffer (FASTER) / memtable (LSM).
func Fig10(o Options) ([]Fig10Row, error) {
	o.defaults()
	const valueSize = 100
	recBytes := uint64(16 + 8 + ((valueSize + 7) &^ 7))
	dataset := o.Keys * recBytes
	var rows []Fig10Row
	fmt.Fprintf(o.Out, "\n--- Fig 10: throughput vs memory budget (dataset=%d KiB) ---\n", dataset>>10)
	for _, m := range []struct {
		label string
		mix   ycsb.Mix
	}{{"50:50", ycsb.Mix50R50BU}, {"0:100", ycsb.Mix0R100BU}} {
		for _, frac := range []float64{2.0, 1.0, 0.5, 0.25, 0.125} {
			budget := uint64(float64(dataset) * frac)
			const pageBits = 16
			pages := 2
			for uint64(pages)<<pageBits < budget {
				pages *= 2
			}
			// FASTER with a real (simulated-latency) SSD behind it.
			dev := device.NewMem(device.MemConfig{ReadLatency: 20 * time.Microsecond})
			fsys, err := NewFasterSystem(FasterOptions{Keys: o.Keys, ValueSize: valueSize,
				Mode: hlog.ModeHybrid, PageBits: pageBits, BufferPages: pages, Device: dev})
			if err != nil {
				return nil, err
			}
			wl := ycsb.NewWorkload(ycsb.NewZipfian(o.Keys, ycsb.DefaultTheta, o.Seed), m.mix, o.Seed)
			res := Run(fsys, RunConfig{Threads: min(4, o.MaxThreads), Duration: o.Duration,
				Workload: wl, ValueSize: valueSize, Preload: true,
				RMWInputs: ycsb.InputArray(), Seed: o.Seed}, m.label)
			reads := dev.Stats().Reads
			fsys.Close()
			row := Fig10Row{Result: res, BudgetBytes: budget, DiskReads: reads}
			rows = append(rows, row)
			fmt.Fprintf(o.Out, "%s  budget=%gx (%d KiB) diskReads=%d\n", res, frac, budget>>10, reads)

			// LSM with the same nominal budget.
			lsys, err := NewLSMSystem(int(budget), "")
			if err != nil {
				return nil, err
			}
			wl2 := ycsb.NewWorkload(ycsb.NewZipfian(o.Keys, ycsb.DefaultTheta, o.Seed), m.mix, o.Seed)
			res2 := Run(lsys, RunConfig{Threads: min(4, o.MaxThreads), Duration: o.Duration,
				Workload: wl2, ValueSize: valueSize, Preload: true,
				RMWInputs: ycsb.InputArray(), Seed: o.Seed}, m.label)
			lsys.Close()
			rows = append(rows, Fig10Row{Result: res2, BudgetBytes: budget})
			fmt.Fprintf(o.Out, "%s  budget=%gx (%d KiB)\n", res2, frac, budget>>10)
		}
	}
	return rows, nil
}

// Fig11 regenerates the append-only vs hybrid log comparison (YCSB
// 50:50, uniform and Zipfian, thread sweep).
func Fig11(o Options) ([]Result, error) {
	o.defaults()
	var results []Result
	fmt.Fprintf(o.Out, "\n--- Fig 11: append-only vs hybrid log (50:50) ---\n")
	for _, distr := range []string{"uniform", "zipf"} {
		for _, threads := range threadSweep(o.MaxThreads) {
			for _, sysName := range []string{"faster", "faster-aol"} {
				var gen ycsb.Generator
				if distr == "zipf" {
					gen = ycsb.NewZipfian(o.Keys, ycsb.DefaultTheta, o.Seed)
				} else {
					gen = ycsb.NewUniform(o.Keys, o.Seed)
				}
				res, err := runMix(sysName, o, ycsb.Mix50R50BU, "50:50 "+distr, gen, threads, 8)
				if err != nil {
					return nil, err
				}
				results = append(results, res)
				fmt.Fprintf(o.Out, "%s\n", res)
			}
		}
	}
	return results, nil
}

// Fig12Row carries the IPU-region sweep measurements.
type Fig12Row struct {
	Result
	IPUFactor    float64
	LogGrowthMBs float64
	FuzzyPct     float64
}

// Fig12 regenerates Fig 12a (throughput and log growth vs IPU region
// factor) and Fig 12b (fuzzy-operation percentage vs IPU region factor)
// in one sweep: 100% RMW, uniform and Zipfian.
func Fig12(o Options) ([]Fig12Row, error) {
	o.defaults()
	var rows []Fig12Row
	fmt.Fprintf(o.Out, "\n--- Fig 12: IPU region factor sweep (100%% RMW) ---\n")
	for _, distr := range []string{"uniform", "zipf"} {
		for _, f := range []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0} {
			const pageBits = 14
			// Buffer sized to hold the dataset; the mutable fraction of
			// the buffer is then the fraction of the dataset that is
			// in-place updatable.
			pages := bufferPagesFor(o.Keys, 8, pageBits, 1.5)
			sys, err := NewFasterSystem(FasterOptions{Keys: o.Keys, ValueSize: 8,
				Mode: hlog.ModeHybrid, PageBits: pageBits, BufferPages: pages,
				MutableFraction: f})
			if err != nil {
				return nil, err
			}
			var gen ycsb.Generator
			if distr == "zipf" {
				gen = ycsb.NewZipfian(o.Keys, ycsb.DefaultTheta, o.Seed)
			} else {
				gen = ycsb.NewUniform(o.Keys, o.Seed)
			}
			wl := ycsb.NewWorkload(gen, ycsb.MixRMW100, o.Seed)
			tail0 := sys.Store().Log().TailAddress()
			res := Run(sys, RunConfig{Threads: o.MaxThreads, Duration: o.Duration,
				Workload: wl, ValueSize: 8, Preload: true,
				RMWInputs: ycsb.InputArray(), Seed: o.Seed}, "RMW "+distr)
			tail1 := sys.Store().Log().TailAddress()
			fz, total := sys.FuzzyStats()
			maybeDumpMetrics(o, sys, fmt.Sprintf("RMW %s ipu=%.1f", distr, f))
			sys.Close()
			growth := float64(tail1-tail0) / res.Elapsed.Seconds() / (1 << 20)
			pct := 0.0
			if total > 0 {
				pct = 100 * float64(fz) / float64(total)
			}
			row := Fig12Row{Result: res, IPUFactor: f, LogGrowthMBs: growth, FuzzyPct: pct}
			rows = append(rows, row)
			fmt.Fprintf(o.Out, "%s  ipu=%.1f logGrowth=%8.2f MB/s fuzzy=%.4f%%\n",
				res, f, growth, pct)
		}
	}
	return rows, nil
}

// Fig13 regenerates the fuzzy-percentage vs thread-count sweep (100% RMW
// uniform, IPU factor 0.8).
func Fig13(o Options) ([]Fig12Row, error) {
	o.defaults()
	var rows []Fig12Row
	fmt.Fprintf(o.Out, "\n--- Fig 13: fuzzy ops vs threads (IPU=0.8, 100%% RMW uniform) ---\n")
	for _, threads := range threadSweep(o.MaxThreads) {
		const pageBits = 14
		pages := bufferPagesFor(o.Keys, 8, pageBits, 1.5)
		sys, err := NewFasterSystem(FasterOptions{Keys: o.Keys, ValueSize: 8,
			Mode: hlog.ModeHybrid, PageBits: pageBits, BufferPages: pages,
			MutableFraction: 0.8})
		if err != nil {
			return nil, err
		}
		wl := ycsb.NewWorkload(ycsb.NewUniform(o.Keys, o.Seed), ycsb.MixRMW100, o.Seed)
		res := Run(sys, RunConfig{Threads: threads, Duration: o.Duration,
			Workload: wl, ValueSize: 8, Preload: true,
			RMWInputs: ycsb.InputArray(), Seed: o.Seed}, "RMW uniform")
		fz, total := sys.FuzzyStats()
		maybeDumpMetrics(o, sys, fmt.Sprintf("RMW uniform threads=%d", threads))
		sys.Close()
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(fz) / float64(total)
		}
		row := Fig12Row{Result: res, IPUFactor: 0.8, FuzzyPct: pct}
		rows = append(rows, row)
		fmt.Fprintf(o.Out, "%s  fuzzy=%.4f%%\n", res, pct)
	}
	return rows, nil
}

// TagAblation regenerates the §7.2.2 tag-size experiment: YCSB 50:50
// uniform at full threads, with index tags of 1, 4 and 14 bits.
func TagAblation(o Options) ([]Result, error) {
	o.defaults()
	var results []Result
	fmt.Fprintf(o.Out, "\n--- Tag-size ablation (50:50 uniform, all threads) ---\n")
	for _, tagBits := range []uint{1, 4, 14} {
		sys, err := NewFasterSystem(FasterOptions{Keys: o.Keys, ValueSize: 8,
			Mode: hlog.ModeHybrid, TagBits: tagBits,
			BufferPages: bufferPagesFor(o.Keys, 8, 16, 2.0)})
		if err != nil {
			return nil, err
		}
		wl := ycsb.NewWorkload(ycsb.NewUniform(o.Keys, o.Seed), ycsb.Mix50R50BU, o.Seed)
		res := Run(sys, RunConfig{Threads: o.MaxThreads, Duration: o.Duration,
			Workload: wl, ValueSize: 8, Preload: true,
			RMWInputs: ycsb.InputArray(), Seed: o.Seed}, fmt.Sprintf("tag=%d", tagBits))
		sys.Close()
		results = append(results, res)
		fmt.Fprintf(o.Out, "%s\n", res)
	}
	return results, nil
}

// LogBandwidth regenerates the §7.3 closing measurement: a 0:100 blind
// update workload with a mostly read-only region, reporting the sequential
// log write bandwidth achieved at the device.
func LogBandwidth(o Options) (float64, error) {
	o.defaults()
	dev := device.NewMem(device.MemConfig{})
	// A buffer around half the dataset with a mostly read-only region
	// forces continuous RCU appends and page flushes, which is what the
	// paper's bandwidth probe measures.
	const pageBits = 14
	pages := bufferPagesFor(o.Keys, 100, pageBits, 0.5)
	sys, err := NewFasterSystem(FasterOptions{Keys: o.Keys, ValueSize: 100,
		Mode: hlog.ModeHybrid, PageBits: pageBits,
		BufferPages: pages, MutableFraction: 0.2, Device: dev})
	if err != nil {
		return 0, err
	}
	wl := ycsb.NewWorkload(ycsb.NewUniform(o.Keys, o.Seed), ycsb.Mix0R100BU, o.Seed)
	res := Run(sys, RunConfig{Threads: min(4, o.MaxThreads), Duration: o.Duration,
		Workload: wl, ValueSize: 100, Preload: true,
		RMWInputs: ycsb.InputArray(), Seed: o.Seed}, "0:100 uniform")
	written := dev.Stats().BytesWritten
	maybeDumpMetrics(o, sys, "0:100 uniform bandwidth")
	sys.Close()
	mbs := float64(written) / res.Elapsed.Seconds() / (1 << 20)
	fmt.Fprintf(o.Out, "\n--- §7.3 log write bandwidth: %.1f MB/s (%.3f Mops/s) ---\n", mbs, res.Mops())
	return mbs, nil
}
