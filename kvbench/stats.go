package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (nearest rank) of sorted.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func sortInt64(v []int64) { sort.Slice(v, func(i, j int) bool { return v[i] < v[j] }) }

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func medianInt64(v []int64) float64 {
	f := make([]float64, len(v))
	for i, x := range v {
		f[i] = float64(x)
	}
	return median(f)
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(v, n=4) does (exclusive method), which is what the
// acceptance rule for run-to-run spread is stated in.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 {
		j, delta := i*(ld+1)/4, i*(ld+1)%4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(v []float64) float64 {
	m := median(v)
	if m == 0 || len(v) < 2 {
		return 0
	}
	q1, q3 := quartiles(v)
	return math.Abs((q3 - q1) / m)
}

// windowed summarises latency samples of one load step the steady way:
// samples are cut into fixed windows by the time they were due, each
// window's quantile is taken, and the median over windows is reported, so
// one collector pause or one noisy neighbour moves one window, not the
// result. due and lat are parallel (ns from step start, ns).
func windowed(due, lat []int64, window, total int64, q float64) float64 {
	nw := int(total / window)
	if nw < 1 {
		nw = 1
	}
	buckets := make([][]int64, nw)
	for i, d := range due {
		w := int(d / window)
		if w >= nw {
			w = nw - 1
		}
		buckets[w] = append(buckets[w], lat[i])
	}
	var qs []float64
	for _, b := range buckets {
		if len(b) == 0 {
			continue
		}
		sortInt64(b)
		qs = append(qs, float64(percentile(b, q)))
	}
	return median(qs)
}

// windowRate is the median over windows of completions per second.
func windowRate(done []int64, window, total int64) float64 {
	nw := int(total / window)
	if nw < 1 {
		return float64(len(done)) / (float64(total) / 1e9)
	}
	counts := make([]float64, nw)
	for _, d := range done {
		if w := int(d / window); w >= 0 && w < nw {
			counts[w]++
		}
	}
	for i := range counts {
		counts[i] /= float64(window) / 1e9
	}
	return median(counts)
}
