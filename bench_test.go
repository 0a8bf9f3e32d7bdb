// Package vignat's root micro-benchmarks: the per-packet path's
// components, verified and unverified. Run them with
//
//	go test -bench=. -benchmem
//
// The paper's figures and tables are `go run ./cmd/vigbench -fig …`
// (shape_test.go in internal/experiments runs each scaled down), and
// the per-layer costs of the deployed NFs are rows of the benchmark
// harness (`bash benchmark/run.sh --trace 1`).
package vignat_test

import (
	"testing"
	"time"

	"vignat/internal/experiments"
	"vignat/internal/flow"
	"vignat/internal/libvig"
	"vignat/internal/nat"
	"vignat/internal/netstack"
	"vignat/internal/nf"
	"vignat/internal/unverified"
)

// benchFlowKeys is n distinct outbound UDP tuples.
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
