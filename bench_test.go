// Package vignat's root benchmark harness: one testing.B benchmark per
// table and figure of the paper's evaluation (§6) plus the ablation and
// micro-benchmarks that explain them. Run everything with
//
//	go test -bench=. -benchmem
//
// Figure benches print their paper-style series through b.Log; shapes
// (who wins, by what factor, where the crossovers fall) are the
// reproduction target — see EXPERIMENTS.md for paper-vs-measured.
package vignat_test

import (
	"fmt"
	"testing"
	"time"

	"vignat/internal/experiments"
	"vignat/internal/flow"
	"vignat/internal/libvig"
	"vignat/internal/moongen"
	"vignat/internal/nat"
	"vignat/internal/netstack"
	"vignat/internal/nf"
	"vignat/internal/nf/nfkit"
	"vignat/internal/testbed"
	"vignat/internal/unverified"
)

// benchScale keeps `go test -bench=.` affordable while preserving the
// workload structure; cmd/vigbench runs the full-scale versions.
const benchScale = experiments.Scale(0.15)

// --- Fig. 12: probe-flow latency vs background flows ---

func BenchmarkFig12ProbeLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig12(experiments.Fig12Config{
			Timeout:    2 * time.Second,
			FlowCounts: []int{1000, 30000, 60000, 64000},
			Scale:      benchScale,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Log("\n" + experiments.FormatFig12(rows, nil))
	}
}

// BenchmarkFig12xLongExpiry is the in-text 60 s variant: probes never
// expire, so they take the lookup-hit path.
func BenchmarkFig12xLongExpiry(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig12(experiments.Fig12Config{
			Timeout:    60 * time.Second,
			FlowCounts: []int{1000, 60000},
			NFs:        experiments.DPDKNFs,
			Scale:      benchScale,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Log("\n" + experiments.FormatFig12(rows, experiments.DPDKNFs))
	}
}

// --- Fig. 13: latency CCDF at 92% occupancy ---

func BenchmarkFig13LatencyCCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig13(experiments.Fig13Config{Scale: benchScale})
		if err != nil {
			b.Fatal(err)
		}
		b.Log("\n" + experiments.FormatFig13(rows))
	}
}

// --- Fig. 14: max throughput at ≤0.1% loss ---

func BenchmarkFig14Throughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig14(experiments.Fig14Config{
			FlowCounts: []int{1000, 30000, 64000},
			Scale:      benchScale,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Log("\n" + experiments.FormatFig14(rows, nil))
	}
}

// --- Table V1: verification pipeline statistics ---

// BenchmarkTableV1Validation proves every Table V1 declaration at 1 and
// 4 validation workers, reporting the exploration and the validation
// wall time per proof pass beside ns/op.
func BenchmarkTableV1Validation(b *testing.B) {
	proofs, err := experiments.TableV1Proofs()
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("validate-%dworker", workers), func(b *testing.B) {
			var explore, validate time.Duration
			for i := 0; i < b.N; i++ {
				for _, p := range proofs {
					rep, err := nfkit.VerifySym(*p.Sym, nfkit.ModelExact, workers)
					if err != nil || !rep.OK() {
						b.Fatalf("%s: proof failed: %v", p.Name, err)
					}
					explore += rep.Explore
					validate += rep.Validate
				}
			}
			b.ReportMetric(float64(explore.Nanoseconds())/float64(b.N), "explore-ns/op")
			b.ReportMetric(float64(validate.Nanoseconds())/float64(b.N), "validate-ns/op")
		})
	}
}

// --- Ablation: verified open-addressing table vs chaining table ---

func benchFlowKeys(n int) []flow.ID {
	keys := make([]flow.ID, n)
	for i := range keys {
		keys[i] = flow.ID{
			SrcIP:   flow.MakeAddr(10, 0, 0, 0) + flow.Addr(1+i/1024),
			SrcPort: uint16(10000 + i%1024),
			DstIP:   flow.MakeAddr(198, 18, 0, 1),
			DstPort: 80,
			Proto:   flow.UDP,
		}
	}
	return keys
}

func benchOccupancies() []struct {
	name string
	frac float64
} {
	return []struct {
		name string
		frac float64
	}{
		{"occ25", 0.25}, {"occ92", 0.92},
	}
}

func BenchmarkAblationFlowTableVerifiedHit(b *testing.B) {
	for _, occ := range benchOccupancies() {
		b.Run(occ.name, func(b *testing.B) {
			n := int(occ.frac * experiments.Capacity)
			ft, err := nat.NewFlowTable(experiments.Capacity, experiments.ExtIP, experiments.PortBase)
			if err != nil {
				b.Fatal(err)
			}
			keys := benchFlowKeys(n)
			for i, k := range keys {
				if _, ok := ft.Add(k, libvig.Time(i)); !ok {
					b.Fatal("fill failed")
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := ft.LookupInt(keys[i%n]); !ok {
					b.Fatal("lost key")
				}
			}
		})
	}
}

func BenchmarkAblationFlowTableVerifiedMiss(b *testing.B) {
	for _, occ := range benchOccupancies() {
		b.Run(occ.name, func(b *testing.B) {
			n := int(occ.frac * experiments.Capacity)
			ft, _ := nat.NewFlowTable(experiments.Capacity, experiments.ExtIP, experiments.PortBase)
			keys := benchFlowKeys(n)
			for i, k := range keys {
				ft.Add(k, libvig.Time(i))
			}
			miss := benchFlowKeys(n)
			for i := range miss {
				miss[i].SrcIP += 1 << 20 // outside the inserted universe
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := ft.LookupInt(miss[i%n]); ok {
					b.Fatal("phantom hit")
				}
			}
		})
	}
}

func BenchmarkAblationFlowTableChainingHit(b *testing.B) {
	for _, occ := range benchOccupancies() {
		b.Run(occ.name, func(b *testing.B) {
			n := int(occ.frac * experiments.Capacity)
			ct, err := unverified.NewChainTable(experiments.Capacity, experiments.ExtIP, experiments.PortBase)
			if err != nil {
				b.Fatal(err)
			}
			keys := benchFlowKeys(n)
			for i, k := range keys {
				if ct.Add(k, libvig.Time(i)) == nil {
					b.Fatal("fill failed")
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if ct.LookupInt(keys[i%n]) == nil {
					b.Fatal("lost key")
				}
			}
		})
	}
}

func BenchmarkAblationFlowTableChainingMiss(b *testing.B) {
	for _, occ := range benchOccupancies() {
		b.Run(occ.name, func(b *testing.B) {
			n := int(occ.frac * experiments.Capacity)
			ct, _ := unverified.NewChainTable(experiments.Capacity, experiments.ExtIP, experiments.PortBase)
			keys := benchFlowKeys(n)
			for i, k := range keys {
				ct.Add(k, libvig.Time(i))
			}
			miss := benchFlowKeys(n)
			for i := range miss {
				miss[i].SrcIP += 1 << 20
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if ct.LookupInt(miss[i%n]) != nil {
					b.Fatal("phantom hit")
				}
			}
		})
	}
}

// --- Micro-benchmarks of the per-packet path components ---

func BenchmarkNATProcessHit(b *testing.B) {
	clock := libvig.NewVirtualClock(0)
	n, err := nat.New(nat.Config{
		Capacity: experiments.Capacity, Timeout: time.Hour,
		ExternalIP: experiments.ExtIP, PortBase: experiments.PortBase, ExternalPort: 1,
	}, clock)
	if err != nil {
		b.Fatal(err)
	}
	a := nat.AsNF(n)
	id := benchFlowKeys(1)[0]
	spec := &netstack.FrameSpec{ID: id}
	fresh := netstack.Craft(make([]byte, netstack.FrameLen(spec)), spec)
	work := make([]byte, len(fresh))
	pkts, verdicts := []nf.Pkt{{Frame: work, FromInternal: true}}, make([]nf.Verdict, 1)
	copy(work, fresh)
	a.ProcessBatch(pkts, verdicts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, fresh)
		clock.Advance(10)
		a.ProcessBatch(pkts, verdicts)
	}
}

// BenchmarkNATProcessProbeWorstCase is the paper's probe-flow path:
// expire the previous flow, miss, allocate, rewrite.
func BenchmarkNATProcessProbeWorstCase(b *testing.B) {
	clock := libvig.NewVirtualClock(0)
	texp := time.Millisecond
	n, err := nat.New(nat.Config{
		Capacity: experiments.Capacity, Timeout: texp,
		ExternalIP: experiments.ExtIP, PortBase: experiments.PortBase, ExternalPort: 1,
	}, clock)
	if err != nil {
		b.Fatal(err)
	}
	a := nat.AsNF(n)
	id := benchFlowKeys(1)[0]
	spec := &netstack.FrameSpec{ID: id}
	fresh := netstack.Craft(make([]byte, netstack.FrameLen(spec)), spec)
	work := make([]byte, len(fresh))
	pkts, verdicts := []nf.Pkt{{Frame: work, FromInternal: true}}, make([]nf.Verdict, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, fresh)
		clock.Advance(2 * texp.Nanoseconds()) // previous flow has expired
		a.ProcessBatch(pkts, verdicts)
	}
}

func BenchmarkUnverifiedProcessHit(b *testing.B) {
	clock := libvig.NewVirtualClock(0)
	a, err := unverified.New(experiments.Capacity, experiments.ExtIP, experiments.PortBase, time.Hour, clock)
	if err != nil {
		b.Fatal(err)
	}
	id := benchFlowKeys(1)[0]
	spec := &netstack.FrameSpec{ID: id}
	fresh := netstack.Craft(make([]byte, netstack.FrameLen(spec)), spec)
	work := make([]byte, len(fresh))
	pkts, verdicts := []nf.Pkt{{Frame: work, FromInternal: true}}, make([]nf.Verdict, 1)
	copy(work, fresh)
	a.ProcessBatch(pkts, verdicts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, fresh)
		clock.Advance(10)
		a.ProcessBatch(pkts, verdicts)
	}
}

func BenchmarkPacketParse(b *testing.B) {
	id := benchFlowKeys(1)[0]
	spec := &netstack.FrameSpec{ID: id, PayloadLen: 64}
	frame := netstack.Craft(make([]byte, netstack.FrameLen(spec)), spec)
	var p netstack.Packet
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Parse(frame); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPacketCraft(b *testing.B) {
	id := benchFlowKeys(1)[0]
	spec := &netstack.FrameSpec{ID: id, PayloadLen: 64}
	buf := make([]byte, netstack.FrameLen(spec))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		netstack.Craft(buf, spec)
	}
}

func BenchmarkFlowIDHash(b *testing.B) {
	keys := benchFlowKeys(1024)
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= keys[i%1024].Hash()
	}
	_ = sink
}

// BenchmarkMoongenSchedule measures the generator itself, to confirm it
// is far cheaper than the NFs it drives.
func BenchmarkMoongenSchedule(b *testing.B) {
	s, err := moongen.NewSchedule(1000, 1e6, 100, 470, 1<<62, 1, 200)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Next(); !ok {
			b.Fatal("schedule exhausted")
		}
	}
}

// BenchmarkTestbedLatencyPoint measures one full Fig. 12 data point, to
// document the cost of the harness itself.
func BenchmarkTestbedLatencyPoint(b *testing.B) {
	for i := 0; i < b.N; i++ {
		mb, err := experiments.BuildMiddlebox(experiments.NFVerified, 2*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		cfg := testbed.DefaultLatencyConfig(10000)
		cfg.Warmup = 300 * time.Millisecond
		cfg.Duration = 600 * time.Millisecond
		if _, err := testbed.MeasureLatency(mb, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
