package paired

import (
	"math"
	"math/rand/v2"
	"testing"
)

// drifting returns n pairs of one workload's timings on a host whose
// speed drifts by up to ±40% between pairs (the two states of a shared
// host) and jitters by up to ±3% within one: a[i] is the baseline, b[i]
// the same work made factor times slower.
func drifting(n int, factor float64, seed uint64) (a, b []float64) {
	rng := rand.New(rand.NewPCG(seed, 1))
	jitter := func() float64 { return 1 + 0.06*(rng.Float64()-0.5) }
	for range n {
		host := 1 + 0.8*(rng.Float64()-0.5)
		a = append(a, 100*host*jitter())
		b = append(b, 100*factor*host*jitter())
	}
	return a, b
}

func TestTenPercentSlower(t *testing.T) {
	a, b := drifting(20, 1.10, 7)
	r := Compare(a, b)
	t.Logf("ratio %.4f, 95%% CI [%.4f, %.4f], B won %d of %d", r.Ratio, r.Lo, r.Hi, r.Won, r.Pairs)
	if got := r.Verdict(0.05); got != Regressed {
		t.Errorf("10%% slower at a 5%% bound reads %s, want %s", got, Regressed)
	}
	if got := r.Verdict(0.25); got != Same {
		t.Errorf("10%% slower at a 25%% bound reads %s, want %s", got, Same)
	}
	if r.Won != 0 {
		t.Errorf("B won %d pairs while 10%% slower in each", r.Won)
	}
	// And B 10% faster is an improvement at any bound.
	if got := Compare(b, a).Verdict(0.25); got != Improved {
		t.Errorf("10%% faster reads %s, want %s", got, Improved)
	}
}

func TestAAStraddlesOne(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		a, b := drifting(20, 1, seed)
		r := Compare(a, b)
		if !(r.Lo < 1 && 1 < r.Hi) {
			t.Errorf("seed %d: A/A interval [%.4f, %.4f] does not straddle 1", seed, r.Lo, r.Hi)
		}
		if got := r.Verdict(0.05); got != Same {
			t.Errorf("seed %d: A/A reads %s at a 5%% bound, want %s", seed, got, Same)
		}
	}
}

func TestDeterministic(t *testing.T) {
	a, b := drifting(15, 1.02, 3)
	first := Compare(a, b)
	for range 3 {
		if again := Compare(a, b); again != first {
			t.Fatalf("same pairs, different reading: %+v then %+v", first, again)
		}
	}
}

// TestMedianOfRatios pins Ratio to the plain median of b/a — the mean
// of the middle two for an even count — and the interval around it.
func TestMedianOfRatios(t *testing.T) {
	a := []float64{100, 100, 100, 100}
	b := []float64{101, 104, 99, 102}
	r := Compare(a, b)
	if want := (1.01 + 1.02) / 2; math.Abs(r.Ratio-want) > 1e-12 {
		t.Errorf("ratio %v, want %v", r.Ratio, want)
	}
	if r.Won != 1 || r.Pairs != 4 {
		t.Errorf("won %d of %d, want 1 of 4", r.Won, r.Pairs)
	}
	if !(0.99 <= r.Lo && r.Lo <= r.Ratio && r.Ratio <= r.Hi && r.Hi <= 1.04) {
		t.Errorf("interval [%v, %v] around %v is outside the pairs' range", r.Lo, r.Hi, r.Ratio)
	}
	one := Compare([]float64{10}, []float64{12})
	if one.Ratio != 1.2 || one.Lo != 1.2 || one.Hi != 1.2 {
		t.Errorf("one pair: %+v, want ratio and interval 1.2", one)
	}
}

// TestUnresolved: a set too noisy to place inside or outside the bound
// says so.
func TestUnresolved(t *testing.T) {
	a := []float64{100, 100, 100, 100, 100, 100}
	b := []float64{80, 125, 95, 130, 105, 88}
	r := Compare(a, b)
	if got := r.Verdict(0.05); got != Unresolved {
		t.Errorf("interval [%.3f, %.3f] reads %s at 5%%, want %s", r.Lo, r.Hi, got, Unresolved)
	}
}
