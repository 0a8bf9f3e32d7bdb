package experiments

import (
	"testing"
	"time"

	"vignat/internal/nf"
)

// benchHit100 times 256 established NAT flows, few enough to stay in
// L2, in an otherwise empty table: after the warm passes every packet
// of the cached side is a hit, so Hit100 against Hit100Off is the hit
// path against the slow path's established branch at its cheapest,
// where the sweep's 100% row runs 2,048 flows at near capacity. ns/pkt
// counts the engine's Poll calls only (see rig.run).
func benchHit100(b *testing.B, fastPath int) {
	const flows = 256
	r, err := catalogRig("nat", rowOptions(Capacity), nf.Config{FastPath: fastPath})
	if err != nil {
		b.Fatal(err)
	}
	frames := fpEstablishedFrames(flows)
	for range warmPasses {
		if _, err := run(r, frames, false); err != nil {
			b.Fatal(err)
		}
	}
	before := r.Engine.Stats()
	b.ResetTimer()
	var elapsed time.Duration
	for done := 0; done < b.N; done += flows {
		d, err := run(r, frames[:min(flows, b.N-done)], true)
		if err != nil {
			b.Fatal(err)
		}
		elapsed += d
	}
	b.StopTimer()
	if after := r.Engine.Stats(); fastPath > 0 && after.FastPathHits-before.FastPathHits != uint64(b.N) {
		b.Fatalf("%d of %d packets hit the cache", after.FastPathHits-before.FastPathHits, b.N)
	}
	b.ReportMetric(float64(elapsed.Nanoseconds())/float64(b.N), "ns/pkt")
}

func BenchmarkFastPathHit100(b *testing.B)    { benchHit100(b, nf.DefaultFastPathEntries) }
func BenchmarkFastPathHit100Off(b *testing.B) { benchHit100(b, 0) }
