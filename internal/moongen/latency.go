package moongen

import (
	"errors"
	"sort"
	"time"
)

// LatencyRecorder collects per-packet latency samples, as MoonGen does
// with hardware timestamps (the paper cites [49] for microsecond-level
// accuracy; here a sample is the monotonic clock's reading of the
// engine's Poll that carried the packet).
type LatencyRecorder struct {
	samples []time.Duration
	sorted  bool
}

// NewLatencyRecorder preallocates room for n samples.
func NewLatencyRecorder(n int) *LatencyRecorder {
	return &LatencyRecorder{samples: make([]time.Duration, 0, n)}
}

// Record adds one sample.
func (r *LatencyRecorder) Record(d time.Duration) {
	r.samples = append(r.samples, d)
	r.sorted = false
}

// Count returns the number of samples.
func (r *LatencyRecorder) Count() int { return len(r.samples) }

// TrimmedMean returns the mean of the samples after discarding the top
// trim fraction (e.g. 0.01 drops the slowest 1%; 0 keeps every sample).
// The paper's averages carry ~20 ns confidence intervals on a dedicated
// test bed; on a shared machine the trimmed mean recovers that stability
// by excluding scheduler artifacts. The full distribution stays
// available via Quantile.
func (r *LatencyRecorder) TrimmedMean(trim float64) time.Duration {
	if len(r.samples) == 0 {
		return 0
	}
	r.ensureSorted()
	keep := len(r.samples) - int(trim*float64(len(r.samples)))
	if keep < 1 {
		keep = 1
	}
	var sum time.Duration
	for _, s := range r.samples[:keep] {
		sum += s
	}
	return sum / time.Duration(keep)
}

func (r *LatencyRecorder) ensureSorted() {
	if !r.sorted {
		sort.Slice(r.samples, func(i, j int) bool { return r.samples[i] < r.samples[j] })
		r.sorted = true
	}
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of the samples.
func (r *LatencyRecorder) Quantile(q float64) time.Duration {
	if len(r.samples) == 0 {
		return 0
	}
	r.ensureSorted()
	idx := int(q * float64(len(r.samples)-1))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(r.samples) {
		idx = len(r.samples) - 1
	}
	return r.samples[idx]
}

// ErrNoSamples reports an empty recorder where samples were required.
var ErrNoSamples = errors.New("moongen: no latency samples recorded")
