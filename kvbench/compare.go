package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchmarkSpec is the part of BENCHMARK.json -compare needs.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadSide reads result files into workload -> metric -> one value per
// file.
func loadSide(paths []string) (map[string]map[string][]float64, error) {
	side := map[string]map[string][]float64{}
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(raw, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if r.Trace != 0 {
			continue // end-to-end metrics are taken with tracing off
		}
		if side[r.Workload] == nil {
			side[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			side[r.Workload][name] = append(side[r.Workload][name], m.Value)
		}
	}
	return side, nil
}

// compareFiles prints, per workload and end-to-end metric, side b's median
// against side a's and the verdict under the metric's bound (the
// reported-only metrics follow, without a verdict). Where either
// side's own spread (interquartile distance over median) exceeds the
// bound the row is `unresolved`: the runs cannot tell a change of that
// size from noise, which is not the same as `within`.
func compareFiles(w io.Writer, specPath string, a, b []string) error {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	sa, err := loadSide(a)
	if err != nil {
		return err
	}
	sb, err := loadSide(b)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-15s %-10s %12s %12s %12s %12s %8s %7s %7s %6s  %s\n",
		"workload", "metric", "a.median", "a.q1..q3", "b.median", "b.q1..q3", "worse", "spread", "bound", "n", "verdict")
	metrics := spec.EndToEnd
	for _, d := range reportedOnly {
		better := "lower"
		if d.name == "max_rate_ok" {
			better = "higher"
		}
		metrics = append(metrics, specMetric{Name: d.name, Unit: d.unit, Better: better})
	}
	for _, wl := range spec.Workloads {
		for _, m := range metrics {
			va, vb := sa[wl.Name][m.Name], sb[wl.Name][m.Name]
			if len(va) == 0 || len(vb) == 0 || median(va) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			// worse is how far b is on the bad side of a, as a share of a.
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = -worse
			}
			noise := max(spread(va), spread(vb))
			verdict := "within"
			switch {
			case m.Bound == 0:
				verdict = "reported only"
			case noise > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "REGRESSION"
			case worse < -m.Bound:
				verdict = "improved"
			}
			qa1, qa3 := quartiles(va)
			qb1, qb3 := quartiles(vb)
			fmt.Fprintf(w, "%-15s %-10s %12.5g %12s %12.5g %12s %+7.1f%% %6.1f%% %6.1f%% %2d/%-2d  %s\n",
				wl.Name, m.Name, ma, fmt.Sprintf("%.4g..%.4g", qa1, qa3), mb, fmt.Sprintf("%.4g..%.4g", qb1, qb3),
				100*worse, 100*noise, 100*m.Bound, len(va), len(vb), verdict)
		}
	}
	return nil
}
