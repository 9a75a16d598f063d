package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmoke runs every workload, timed and traced, at -smoke sizes for a
// second: the harness compiles, its checkers run and find nothing wrong.
// It asserts no timings.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			opt := options{seed: 7, seconds: 1, trace: trace, smoke: true, outDir: t.TempDir()}
			res, err := runWorkload(w, opt)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d notes=%v", w.name, trace, res.Correct, res.Attempted, res.Failed, res.Notes)
			}
			for _, d := range endToEnd {
				if m, ok := res.Metrics[d.name]; !ok || m.Value <= 0 || m.Unit != d.unit {
					t.Errorf("%s trace=%v: end-to-end metric %s = %+v", w.name, trace, d.name, m)
				}
			}
			if !trace {
				continue
			}
			for _, d := range perLayer {
				m, ok := res.Metrics[d.name]
				// A workload without a network has no resp, server or tcp rows.
				if !ok && !w.embedded {
					t.Errorf("%s: per-layer metric %s missing", w.name, d.name)
				}
				if ok && m.Unit != d.unit {
					t.Errorf("%s: per-layer metric %s has unit %q, want %q", w.name, d.name, m.Unit, d.unit)
				}
			}
			var out bytes.Buffer
			res.print(&out)
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last struct {
				Metrics map[string]jsonMetric `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil || len(last.Metrics) != len(perLayer) {
				t.Errorf("%s: last line is not the result object with %d metrics: %v", w.name, len(perLayer), err)
			}
			if _, err := os.Stat(filepath.Join(opt.outDir, "trace-"+w.name+".json")); err != nil {
				t.Errorf("%s: %v", w.name, err)
			}
		}
	}
}

// TestSpecMatchesCode holds BENCHMARK.json and the tables in the code
// together.
func TestSpecMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark's directory")
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why || len(w.why) > 200 {
			t.Errorf("workload %d: %q / %q (%d characters)", i, spec.Workloads[i].Name, w.name, len(w.why))
		}
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the code", kind, len(got), len(want))
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s metric %d: %+v in BENCHMARK.json, %+v in the code", kind, i, got[i], d)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if math.Abs(q1-3.5) > 1e-9 || math.Abs(q3-31) > 1e-9 {
		t.Errorf("quartiles = %v, %v; Python gives 3.5, 31.0", q1, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "BENCHMARK.json")
	os.WriteFile(spec, []byte(`{"workloads":[{"name":"w"}],"end_to_end":[
		{"name":"steady","unit":"us","better":"lower","bound":0.1},
		{"name":"worse","unit":"1/s","better":"higher","bound":0.1},
		{"name":"noisy","unit":"us","better":"lower","bound":0.1}]}`), 0o644)
	write := func(name string, steady, worse, noisy float64) string {
		r := result{Workload: "w", Metrics: map[string]jsonMetric{
			"steady": {Value: steady}, "worse": {Value: worse}, "noisy": {Value: noisy}}}
		p := filepath.Join(dir, name)
		if err := r.writeFile(p); err != nil {
			t.Fatal(err)
		}
		return p
	}
	a := []string{write("a1", 100, 1000, 10), write("a2", 101, 1010, 20), write("a3", 102, 990, 30)}
	b := []string{write("b1", 103, 800, 10), write("b2", 102, 805, 20), write("b3", 104, 795, 30)}
	var out bytes.Buffer
	if err := compareFiles(&out, spec, a, b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"steady", "within", "worse", "REGRESSION", "noisy", "unresolved"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("compare output lacks %q:\n%s", want, out.String())
		}
	}
}
