// Command faster-bench regenerates the throughput experiments of the
// FASTER paper's evaluation (Figs 8-13, the §7.2.2 tag ablation, the
// §7.2.4 Redis-style pipelining comparison, and the §7.3 log-bandwidth
// probe) as printed tables. Scales are configurable; defaults are laptop
// sized. See EXPERIMENTS.md for the mapping to the paper's figures.
// Every run opens with an environment header (cores, GOMAXPROCS, Go
// version, commit, transparent huge page modes) that the tables' numbers
// depend on.
//
// Usage:
//
//	faster-bench -fig all
//	faster-bench -fig 9a -keys 200000 -duration 5s -threads 8
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"repro/internal/bench"
)

func main() {
	var (
		fig      = flag.String("fig", "all", "experiment: 8, 9a, 9b, 10, 11, 12, 13, tag, redis, net, netvs, bw, all")
		keys     = flag.Uint64("keys", 100_000, "dataset size in keys (paper: 250M)")
		duration = flag.Duration("duration", 2*time.Second, "measurement window per cell (paper: 30s)")
		threads  = flag.Int("threads", 0, "max threads (default 2*GOMAXPROCS; paper: 56)")
		seed     = flag.Int64("seed", 42, "workload seed")
		metrics  = flag.Bool("metrics", false, "dump the store metrics report after each FASTER cell")
	)
	flag.Parse()
	printEnv(os.Stdout)

	o := bench.Options{
		Keys:        *keys,
		Duration:    *duration,
		MaxThreads:  *threads,
		Out:         os.Stdout,
		Seed:        *seed,
		DumpMetrics: *metrics,
	}

	run := func(name string, fn func() error) {
		if *fig != "all" && *fig != name {
			return
		}
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "faster-bench: %s: %v\n", name, err)
			os.Exit(1)
		}
	}

	run("8", func() error { _, err := bench.Fig8(o); return err })
	run("9a", func() error { _, err := bench.Fig9a(o); return err })
	run("9b", func() error { _, err := bench.Fig9b(o); return err })
	run("10", func() error { _, err := bench.Fig10(o); return err })
	run("11", func() error { _, err := bench.Fig11(o); return err })
	run("12", func() error { _, err := bench.Fig12(o); return err })
	run("13", func() error { _, err := bench.Fig13(o); return err })
	run("tag", func() error { _, err := bench.TagAblation(o); return err })
	run("redis", func() error { _, err := bench.RedisPipeline(o, 10, nil); return err })
	run("net", func() error { _, err := bench.NetPipeline(o, 10, nil); return err })
	// netvs reruns both halves to print the ratio table, so it is
	// explicit-only: "all" already covers redis and net separately.
	if *fig == "netvs" {
		run("netvs", func() error { return bench.NetVsRedis(o, 10, nil) })
	}
	run("bw", func() error { _, err := bench.LogBandwidth(o); return err })
}

// printEnv writes the environment header: the machine and build that
// every table below it was measured on.
func printEnv(w io.Writer) {
	rev, modified := "unknown", "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
	}
	fmt.Fprintf(w, "# cpus=%d gomaxprocs=%d go=%s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	fmt.Fprintf(w, "# vcs.revision=%s vcs.modified=%s\n", rev, modified)
	fmt.Fprintf(w, "# thp.enabled=%s thp.defrag=%s\n", thpMode("enabled"), thpMode("defrag"))
}

// thpMode returns the bracketed (selected) transparent huge page mode in
// /sys/kernel/mm/transparent_hugepage/name, or "unknown".
func thpMode(name string) string {
	b, err := os.ReadFile("/sys/kernel/mm/transparent_hugepage/" + name)
	if err != nil {
		return "unknown"
	}
	_, rest, _ := strings.Cut(string(b), "[")
	mode, _, ok := strings.Cut(rest, "]")
	if !ok {
		return "unknown"
	}
	return mode
}
