package main

import (
	"math"
	"sort"
)

// The estimator every timing metric shares: the measured region is cut
// into equal windows, each window yields one value, and the metric is a
// quantile across windows, printed with the median and the quartiles
// beside it. Min-of-N is not used anywhere: it reports the luckiest
// moment.
//
// Which quantile depends on what the number is for. A per-layer metric
// is the median across windows. An end-to-end metric is the decile on
// its better side (the 90th percentile of throughput, the 10th of
// latency and CPU), because this host has two speeds: it shares cores
// with other tenants, and for seconds to a minute at a time everything
// runs up to 40% slower. A median lands on whichever speed held for most
// of the run; the better decile stays on the undisturbed one as long as
// a tenth of the windows saw it. README.md has the measurements.

// summary is one metric's value with its evidence.
type summary struct {
	Value   float64 `json:"value"` // what is reported: the median, or the better decile
	Median  float64 `json:"median"`
	Q1      float64 `json:"q1"`
	Q3      float64 `json:"q3"`
	Windows int     `json:"windows"`
	Samples uint64  `json:"samples"` // packets, bursts or operations behind the windows
}

// quartiles returns the three cut points of vals exactly as Python's
// statistics.quantiles(vals, n=4) does, so a spread computed here and
// one computed by whoever checks the benchmark agree. One value yields
// itself three times.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	data := append([]float64(nil), vals...)
	sort.Float64s(data)
	n := len(data)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return data[0], data[0], data[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (data[j-1]*(4-delta) + data[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// summarize folds per-window values into a summary whose value is their
// median.
func summarize(vals []float64, samples uint64) summary {
	q1, q2, q3 := quartiles(vals)
	return summary{Value: q2, Median: q2, Q1: q1, Q3: q3, Windows: len(vals), Samples: samples}
}

// undisturbed folds per-window values into a summary whose value is the
// decile on the better side, by the nearest-rank rule: what the system
// does in the windows the host leaves it alone.
func undisturbed(vals []float64, samples uint64, better string) summary {
	s := summarize(vals, samples)
	if len(vals) == 0 {
		return s
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	p := 0.1
	if better == "higher" {
		p = 0.9
	}
	s.Value = sorted[max(int(math.Ceil(p*float64(len(sorted))))-1, 0)]
	return s
}

// median is the middle cut point alone.
func median(vals []float64) float64 {
	_, q2, _ := quartiles(vals)
	return q2
}

// percentile reads the p-quantile (0..1) off an ascending slice by the
// nearest-rank rule; an empty slice reads 0.
func percentile(sorted []uint32, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i])
}
