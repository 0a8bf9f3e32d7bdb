// Package paired reads two sets of timings of the same work, A (the
// baseline) and B (the side under test), as pairs: the i-th run of A
// and the i-th run of B, taken back to back, form pair i. A change in
// the host's speed between pairs then lands on both sides of a pair
// and cancels in its ratio, which two per-side summaries cannot do.
//
// Per set it reports the median paired ratio B/A, a percentile-
// bootstrap 95% confidence interval of that median, and the pairs B
// won, and it reads a verdict off the interval against a bound.
package paired

import (
	"math/rand/v2"
	"slices"
)

const (
	// resamples is the bootstrap's resample count: the 2.5th and 97.5th
	// percentiles of 2,000 resampled medians sit 50 resamples from each
	// end, enough that the interval's ends do not wander with the seed.
	resamples = 2000
	// seed fixes the resampling, so the same pairs always give the same
	// interval.
	seed = 0x9e3779b97f4a7c15
)

// Verdict is what a Result says against a bound.
type Verdict string

// The four verdicts, checked in this order: regressed, improved, same,
// unresolved.
const (
	Regressed  Verdict = "regressed"
	Improved   Verdict = "improved"
	Same       Verdict = "same"
	Unresolved Verdict = "unresolved"
)

// Result is B against A over a set of pairs.
type Result struct {
	// Pairs is the number of pairs.
	Pairs int
	// Ratio is the median of the pairs' ratios b/a, the mean of the
	// middle two for an even count. The log is monotone, so for an odd
	// count log(Ratio) is the median paired log-ratio; for an even one
	// the two differ only in how the middle pair is averaged.
	Ratio float64
	// Lo and Hi bound Ratio's 95% percentile-bootstrap interval.
	Lo, Hi float64
	// Won is the number of pairs B won, b < a.
	Won int
}

// Compare pairs a[i] with b[i] and reads the set, lower being better:
// a time or a cost. The two must be the same length, at least one,
// with every a[i] positive.
func Compare(a, b []float64) Result {
	if len(a) != len(b) || len(a) == 0 {
		panic("paired: Compare needs two equally long, nonempty sets")
	}
	ratios := make([]float64, len(a))
	r := Result{Pairs: len(a)}
	for i := range a {
		ratios[i] = b[i] / a[i]
		if b[i] < a[i] {
			r.Won++
		}
	}
	r.Ratio = Median(ratios)
	rng := rand.New(rand.NewPCG(seed, seed))
	medians := make([]float64, resamples)
	sample := make([]float64, len(ratios))
	for k := range medians {
		for i := range sample {
			sample[i] = ratios[rng.IntN(len(ratios))]
		}
		medians[k] = median(sample)
	}
	slices.Sort(medians)
	r.Lo = medians[resamples*25/1000]
	r.Hi = medians[resamples*975/1000-1]
	return r
}

// Verdict reads r against bound, a share (0.05 is 5%): regressed if
// the interval lies wholly above 1+bound, improved if it lies wholly
// below 1, same if it lies inside [1/(1+bound), 1+bound], and
// unresolved otherwise. The bound is symmetric in the log-ratio, so B
// 10% slower than A and A 10% slower than B are the same distance
// from 1.
func (r Result) Verdict(bound float64) Verdict {
	switch limit := 1 + bound; {
	case r.Lo > limit:
		return Regressed
	case r.Hi < 1:
		return Improved
	case r.Lo >= 1/limit && r.Hi <= limit:
		return Same
	}
	return Unresolved
}

// Median returns the median of v, the mean of the middle two for an
// even count, leaving v as it was.
func Median(v []float64) float64 { return median(slices.Clone(v)) }

// median sorts v and returns its median, the mean of the middle two
// for an even count.
func median(v []float64) float64 {
	slices.Sort(v)
	mid := len(v) / 2
	if len(v)%2 == 0 {
		return (v[mid-1] + v[mid]) / 2
	}
	return v[mid]
}
