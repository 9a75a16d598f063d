// Command kvbench is the repository's one benchmark: four fixed
// workloads, named end-to-end and per-layer metrics, output checking, and
// an outside-in cost ledger. It imports only the layers it measures and
// changes none of them. See README.md; BENCHMARK.json at the repository
// root names it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// watchdog ends a run that has hung: one run must finish well inside the
// three minutes the contract gives it.
const watchdog = 170 * time.Second

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (default: all four, timed then traced)")
		seed    = flag.Uint64("seed", 1, "seed of every generated key, operation and value")
		seconds = flag.Int("seconds", 20, "seconds measured per run")
		trace   = flag.Int("trace", 0, "1: also run the traced replay and report the per-layer metrics")
		smoke   = flag.Bool("smoke", false, "tiny sizes: exercises the harness and its checkers, measures nothing")
		compare = flag.Bool("compare", false, "compare result files: -compare a.json[,a2.json...] b.json[,b2.json...]")
		outDir  = flag.String("out", "kvbench/out", "directory for result files, traces and the restart check's checkpoint")
		spec    = flag.String("benchmark", "BENCHMARK.json", "the benchmark definition (-compare reads the bounds from it)")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal("-compare takes two arguments, each one result file or a comma-separated list of them")
		}
		if err := compareFiles(os.Stdout, *spec, strings.Split(flag.Arg(0), ","), strings.Split(flag.Arg(1), ",")); err != nil {
			fatal("%v", err)
		}
		return
	}
	if flag.NArg() != 0 {
		fatal("unexpected argument %q", flag.Arg(0))
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatal("-seconds must be at least 1 and -trace 0 or 1")
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal("%v", err)
	}
	opt := options{seed: *seed, seconds: *seconds, trace: *trace == 1, smoke: *smoke, outDir: *outDir}

	if *name != "" {
		w := findWorkload(*name)
		if w == nil {
			fatal("unknown workload %q", *name)
		}
		if !runOne(w, opt) {
			os.Exit(1)
		}
		return
	}
	// The full benchmark: every workload, timed with tracing off, then
	// traced. A wrong reply or an invalid run fails the whole command.
	ok := true
	for _, w := range workloads {
		for _, tr := range []bool{false, true} {
			opt.trace = tr
			resetPeakRSS()
			ok = runOne(w, opt) && ok
		}
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "kvbench: "+format+"\n", args...)
	os.Exit(2)
}

// runOne runs one workload once, prints its lines and its result object,
// writes its result file, and reports whether the run was correct.
func runOne(w *workload, opt options) bool {
	timer := time.AfterFunc(watchdog, func() {
		fmt.Fprintf(os.Stderr, "kvbench: %s still running after %v, giving up\n", w.name, watchdog)
		os.Exit(3)
	})
	defer timer.Stop()
	res, err := runWorkload(w, opt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "kvbench: %s: %v\n", w.name, err)
		return false
	}
	res.print(os.Stdout)
	if err := res.writeFile(opt.outPath(fmt.Sprintf("%s-trace%d-seed%d.json", w.name, res.Trace, opt.seed))); err != nil {
		fmt.Fprintf(os.Stderr, "kvbench: %s: %v\n", w.name, err)
		return false
	}
	return res.Correct
}

// runWorkload dispatches on the workload's kind and settles the verdict.
func runWorkload(w *workload, opt options) (*result, error) {
	if opt.smoke {
		w = w.smokeSized()
	}
	var res *result
	var err error
	if w.embedded {
		res, err = runEmbedded(w, opt)
	} else {
		res, err = runRESP(w, opt)
	}
	if err != nil {
		return nil, err
	}
	// A smoke run is too short to compact three times or to keep the
	// generator on schedule; only its output checks count.
	res.Valid = len(res.Invalid) == 0 || opt.smoke
	res.Correct = res.wrong == 0 && res.Valid
	return res, nil
}

// env says which machine and which tree produced a result file.
type env struct {
	NumCPU     int        `json:"num_cpu"`
	GOMAXPROCS int        `json:"gomaxprocs"`
	GoVersion  string     `json:"go_version"`
	Commit     string     `json:"commit"`
	Dirty      bool       `json:"dirty"`
	Date       string     `json:"date"`
	Callers    int        `json:"callers"`
	Device     string     `json:"device"`
	Rates      [3]float64 `json:"frozen_rates"`
	LimitUs    float64    `json:"p99_limit_us"`
}

func newEnv(w *workload) env {
	e := env{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: "unknown", Date: time.Now().UTC().Format(time.RFC3339), Callers: callers(),
		Device: fmt.Sprintf("device.Mem read_latency=%v write_bandwidth=unlimited workers=4 per shard", deviceReadLatency),
		Rates:  w.rates, LimitUs: w.limitUs,
	}
	// The driver's checkout is not a git repository; then the commit stays
	// unknown.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
		if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil {
			e.Dirty = len(st) > 0
		}
	}
	return e
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     uint64  `json:"n,omitempty"`
}

// result is one run: what the result file holds.
type result struct {
	Env       env                   `json:"env"`
	Workload  string                `json:"workload"`
	Trace     int                   `json:"trace"`
	Seed      uint64                `json:"seed"`
	Seconds   int                   `json:"seconds"`
	Smoke     bool                  `json:"smoke,omitempty"`
	Correct   bool                  `json:"correct"`
	Valid     bool                  `json:"valid"`
	Invalid   []string              `json:"invalid,omitempty"`
	Notes     []string              `json:"notes,omitempty"`
	Attempted uint64                `json:"attempted"`
	Failed    uint64                `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
	Ladder    []stepResult          `json:"ladder,omitempty"`

	order  []string // metric names in the order they were added
	wrong  uint64
	ledger ledger
}

func newResult(w *workload, opt options) *result {
	r := &result{Env: newEnv(w), Workload: w.name, Seed: opt.seed, Seconds: opt.seconds, Smoke: opt.smoke,
		Metrics: map[string]jsonMetric{}}
	if opt.trace {
		r.Trace = 1
	}
	return r
}

func (r *result) add(name string, value float64, unit string, n uint64) {
	if _, dup := r.Metrics[name]; !dup {
		r.order = append(r.order, name)
	}
	r.Metrics[name] = jsonMetric{Value: value, Unit: unit, N: n}
}

func (r *result) addAll(ms []metric) {
	for _, m := range ms {
		r.add(m.name, m.value, m.unit, m.n)
	}
}

func (r *result) invalid(format string, args ...any) {
	r.Invalid = append(r.Invalid, fmt.Sprintf(format, args...))
}

// print writes one line per metric (`workload metric value unit n`), the
// ledger, and last the one-line result object the driver reads: the
// end-to-end metrics of a timed run, the per-layer metrics of a traced
// one.
func (r *result) print(w io.Writer) {
	for _, name := range r.order {
		m := r.Metrics[name]
		fmt.Fprintf(w, "%s %s %.9g %s %d\n", r.Workload, name, m.Value, m.Unit, m.N)
	}
	r.ledger.print(w, r.Workload)
	for _, why := range r.Invalid {
		fmt.Fprintf(w, "# invalid: %s\n", why)
	}
	for _, note := range r.Notes {
		fmt.Fprintf(w, "# %s\n", note)
	}
	names := endToEnd
	if r.Trace == 1 {
		names = perLayer
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted uint64                `json:"attempted"`
		Failed    uint64                `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{r.Correct, max(r.Attempted, 1), r.Failed, map[string]jsonMetric{}}
	for _, d := range names {
		// A layer the workload bypasses reports 0, which is the prediction.
		out.Metrics[d.name] = jsonMetric{Value: r.Metrics[d.name].Value, Unit: d.unit}
	}
	line, _ := json.Marshal(out) // plain numbers, strings and bools cannot fail
	fmt.Fprintf(w, "%s\n", line)
}

func (r *result) writeFile(path string) error {
	raw, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
