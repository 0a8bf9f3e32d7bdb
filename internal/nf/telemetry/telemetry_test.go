package telemetry

import (
	"math"
	"testing"
)

// TestHistBucketEdges pins the bucket law at its edges: 0 alone in
// bucket 0, 1 in bucket 1, 2^k−1 the last value of bucket k and 2^k the
// first of bucket k+1, and everything from 2^63 up clamped into the top
// bucket.
func TestHistBucketEdges(t *testing.T) {
	cases := []struct {
		v      uint64
		bucket int
	}{
		{0, 0},
		{1, 1},
		{2, 2},
		{3, 2},
		{4, 3},
		{1<<10 - 1, 10},
		{1 << 10, 11},
		{1<<62 - 1, 62},
		{1 << 62, 63},
		{1<<63 - 1, 63},
		{1 << 63, HistBuckets - 1},
		{math.MaxUint64, HistBuckets - 1},
	}
	for _, c := range cases {
		var h Hist
		h.Observe(c.v)
		s := h.Snapshot()
		if s.Count != 1 || s.Sum != c.v {
			t.Fatalf("Observe(%d): count %d sum %d", c.v, s.Count, s.Sum)
		}
		if got := s.MaxBucket(); got != c.bucket || s.Buckets[c.bucket] != 1 {
			t.Fatalf("Observe(%d) landed in bucket %d, want %d", c.v, got, c.bucket)
		}
	}
	var empty HistSnapshot
	if empty.MaxBucket() != -1 || empty.Mean() != 0 || empty.Quantile(0.5) != 0 {
		t.Fatal("an empty histogram is not empty")
	}
}

// TestObserveNIsRepeatedObserve: the batched form is n single
// observations, and n == 0 is none.
func TestObserveNIsRepeatedObserve(t *testing.T) {
	var batched, single Hist
	for _, c := range []struct{ v, n uint64 }{{0, 3}, {1, 1}, {77, 32}, {1 << 20, 5}, {9, 0}} {
		batched.ObserveN(c.v, c.n)
		for i := uint64(0); i < c.n; i++ {
			single.Observe(c.v)
		}
	}
	if b, s := batched.Snapshot(), single.Snapshot(); b != s {
		t.Fatalf("ObserveN diverged from repeated Observe:\n%+v\n%+v", b, s)
	}
	if got := batched.Snapshot().Count; got != 41 {
		t.Fatalf("count %d, want 41", got)
	}
}

// TestMergeIsHistogramOfUnion: merging two workers' snapshots is the
// histogram one worker would have built from both streams.
func TestMergeIsHistogramOfUnion(t *testing.T) {
	a := []uint64{0, 1, 5, 5, 1000, 1 << 40}
	b := []uint64{2, 5, 999, 1 << 40, math.MaxUint64}
	var ha, hb, union Hist
	for _, v := range a {
		ha.Observe(v)
		union.Observe(v)
	}
	for _, v := range b {
		hb.Observe(v)
		union.Observe(v)
	}
	merged := ha.Snapshot()
	merged.Merge(hb.Snapshot())
	if want := union.Snapshot(); merged != want {
		t.Fatalf("merge is not the union:\n%+v\n%+v", merged, want)
	}
	if mean := merged.Mean(); mean != float64(merged.Sum)/float64(len(a)+len(b)) {
		t.Fatalf("mean %v over %d observations", mean, len(a)+len(b))
	}
}

// TestQuantileAgreesWithUpperBound: a quantile is reported as its
// bucket's inclusive upper bound, so it is exact for a value on a
// bucket's upper edge and one bucket's width high for the value just
// past it.
func TestQuantileAgreesWithUpperBound(t *testing.T) {
	if UpperBound(0) != 0 || UpperBound(-1) != 0 || UpperBound(1) != 1 || UpperBound(64) != math.MaxUint64 {
		t.Fatal("UpperBound's ends moved")
	}
	for k := 1; k < HistBuckets-1; k++ {
		edge := uint64(1)<<uint(k) - 1
		if UpperBound(k) != edge {
			t.Fatalf("UpperBound(%d) = %d, want %d", k, UpperBound(k), edge)
		}
		var on, past Hist
		on.Observe(edge)
		past.Observe(edge + 1)
		onSnap, pastSnap := on.Snapshot(), past.Snapshot()
		if got := onSnap.Quantile(1); got != edge {
			t.Fatalf("k=%d: quantile of %d is %d", k, edge, got)
		}
		if got := pastSnap.Quantile(1); got != UpperBound(k+1) {
			t.Fatalf("k=%d: quantile of %d is %d, want %d", k, edge+1, got, UpperBound(k+1))
		}
	}
	// Across buckets: 90 cheap observations and 10 dear ones put the
	// median in the cheap bucket and the p99 in the dear one; a
	// quantile too small to select anyone selects the first.
	var h Hist
	h.ObserveN(100, 90)
	h.ObserveN(5000, 10)
	s := h.Snapshot()
	if p50, p99 := s.Quantile(0.5), s.Quantile(0.99); p50 != 127 || p99 != 8191 {
		t.Fatalf("p50 %d p99 %d, want 127 and 8191", p50, p99)
	}
	if s.Quantile(0.9) != 127 || s.Quantile(0.91) != 8191 || s.Quantile(0.0001) != 127 {
		t.Fatal("quantile boundary between the two buckets moved")
	}
}

// TestRingKeepsNewestInOrder: below capacity the ring returns
// everything pushed, in order; past capacity, the newest ringSize
// records, oldest first, with Seq counting every push ever made.
func TestRingKeepsNewestInOrder(t *testing.T) {
	var r Ring
	if got := r.Snapshot(); len(got) != 0 {
		t.Fatalf("empty ring returned %d records", len(got))
	}
	push := func(from, to int) {
		for i := from; i < to; i++ {
			r.Push(Record{Now: int64(i), Seq: 999}) // Push owns Seq
		}
	}
	check := func(first, n int) {
		t.Helper()
		got := r.Snapshot()
		if len(got) != n {
			t.Fatalf("%d records, want %d", len(got), n)
		}
		for i, rec := range got {
			if want := first + i; rec.Now != int64(want) || rec.Seq != uint64(want) {
				t.Fatalf("slot %d holds push %d (seq %d), want %d", i, rec.Now, rec.Seq, want)
			}
		}
	}
	push(0, 10)
	check(0, 10)
	push(10, ringSize)
	check(0, ringSize)
	push(ringSize, ringSize+1)
	check(1, ringSize)
	push(ringSize+1, 3*ringSize+17)
	check(2*ringSize+17, ringSize)

	// The snapshot is a copy: a scraper holding one does not see later
	// pushes.
	held := r.Snapshot()
	push(3*ringSize+17, 3*ringSize+18)
	if held[0].Now != int64(2*ringSize+17) {
		t.Fatal("snapshot aliases the ring")
	}
}
