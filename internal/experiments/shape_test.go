package experiments

import (
	"testing"
	"time"

	"vignat/internal/flow"
	"vignat/internal/moongen"
	"vignat/internal/nf"
	"vignat/internal/nf/telemetry"
)

// TestFig12Shape asserts the paper's qualitative result on a scaled-down
// run: both NATs cost more than the no-op forwarder, the verified NAT's
// latency is within a band of the unverified one's (the paper's
// headline claim — not an ordering: the two sit ~1% apart and which is
// ahead is run-to-run noise and moves with every flow-path change), and
// Linux is several times higher than all of them, at every occupancy.
//
// The contenders run back to back, not in alternating rounds: a probe's
// latency is ~5 µs of modelled wire and I/O cost plus ~0.2 µs
// measured, so a host running 40% slower for one contender moves the
// ratio by under 2%.
func TestFig12Shape(t *testing.T) {
	const band = 0.25 // verified within ±25% of unverified; the full run tracks much closer
	rows, err := Fig12(Fig12Config{Timeout: 2 * time.Second, FlowCounts: []int{1000, 60000}, Scale: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		noop := r.Latency[NFNoop]
		unv := r.Latency[NFUnverified]
		ver := r.Latency[NFVerified]
		lin := r.Latency[NFLinux]
		t.Logf("bg=%d: noop=%v unverified=%v verified=%v linux=%v",
			r.BackgroundFlows, noop, unv, ver, lin)
		if !(noop < unv && noop < ver) {
			t.Errorf("bg=%d: no-op (%v) not faster than both NATs (%v, %v)", r.BackgroundFlows, noop, unv, ver)
		}
		if ratio := float64(ver) / float64(unv); ratio < 1-band || ratio > 1+band {
			t.Errorf("bg=%d: verified (%v) not within ±%.0f%% of unverified (%v)", r.BackgroundFlows, ver, 100*band, unv)
		}
		if !(lin > 3*noop && lin > 3*unv && lin > 3*ver) {
			t.Errorf("bg=%d: Linux (%v) not ≫ the DPDK NFs (%v, %v, %v)", r.BackgroundFlows, lin, noop, unv, ver)
		}
	}
}

// TestFig14Shape asserts the paper's rough throughput factors: both NATs
// below the no-op forwarder, the verified NAT within a band of the
// unverified one (paper: 10% penalty; again a band, not an ordering),
// Linux far below both.
//
// As in Fig. 12 the contenders run back to back: each packet's service
// time is the modelled 330 ns of I/O plus ~100–200 ns measured, so a host
// running 40% slower for one contender moves the ratio by under 15%.
func TestFig14Shape(t *testing.T) {
	// The scaled-down run's verified/unverified ratio wanders 0.75–0.95
	// on a shared host, hence the width.
	const band = 0.45
	rows, err := Fig14(Fig14Config{FlowCounts: []int{10000}, Scale: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	noop := r.Throughput[NFNoop]
	unv := r.Throughput[NFUnverified]
	ver := r.Throughput[NFVerified]
	lin := r.Throughput[NFLinux]
	t.Logf("flows=%d: noop=%.2f unverified=%.2f verified=%.2f linux=%.2f Mpps",
		r.Flows, noop/1e6, unv/1e6, ver/1e6, lin/1e6)
	if !(noop > unv && noop > ver) {
		t.Errorf("no-op (%.2f) not faster than both NATs (%.2f, %.2f)", noop/1e6, unv/1e6, ver/1e6)
	}
	if ratio := ver / unv; ratio < 1-band || ratio > 1+band {
		t.Errorf("verified (%.2f) not within ±%.0f%% of unverified (%.2f)", ver/1e6, 100*band, unv/1e6)
	}
	if lin > 0.5*ver || lin > 0.5*unv {
		t.Errorf("Linux (%.2f) not ≪ the NATs (%.2f, %.2f)", lin/1e6, unv/1e6, ver/1e6)
	}
}

// TestFig13Shape: in the far tail (≥50µs) all DPDK NFs coincide (the
// injected DPDK outliers dominate), and near the band the verified NAT
// keeps at least as much tail mass as the no-op baseline.
func TestFig13Shape(t *testing.T) {
	rows, err := Fig13(Fig13Config{BackgroundFlows: 60000, Scale: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	byNF := map[NFKind]Fig13Row{}
	for _, r := range rows {
		byNF[r.NF] = r
	}
	for i, th := range Fig13Thresholds {
		if th < 50*time.Microsecond {
			continue
		}
		a := byNF[NFNoop].CCDF[i].Fraction
		b := byNF[NFUnverified].CCDF[i].Fraction
		c := byNF[NFVerified].CCDF[i].Fraction
		if a != b || b != c {
			t.Errorf("far tail at %v differs: %f %f %f", th, a, b, c)
		}
	}
	idx := 5 // 5750ns in Fig13Thresholds
	if byNF[NFVerified].CCDF[idx].Fraction < byNF[NFNoop].CCDF[idx].Fraction {
		t.Errorf("verified tail lighter than no-op at %v", Fig13Thresholds[idx])
	}
}

// TestContendersAllocateNothing: every figure contender handles the
// testbed's one-packet burst without allocating, on an established flow
// and on the probe path (the flow expired: expire, miss, insert) — the
// testbed's per-packet timings assume no allocation.
func TestContendersAllocateNothing(t *testing.T) {
	flows, err := moongen.MakeFlows(0, 1, 0, flow.UDP)
	if err != nil {
		t.Fatal(err)
	}
	fresh := flows[0].Frame()
	for _, kind := range AllNFs {
		for _, c := range []struct {
			path    string
			timeout time.Duration
			step    int64
		}{{"hit", time.Hour, 1000}, {"probe", time.Millisecond, 2 * time.Millisecond.Nanoseconds()}} {
			mb, err := BuildMiddlebox(kind, c.timeout)
			if err != nil {
				t.Fatal(err)
			}
			work := make([]byte, len(fresh))
			pkts, verdicts := []nf.Pkt{{Frame: work, FromInternal: true}}, make([]nf.Verdict, 1)
			allocs := testing.AllocsPerRun(200, func() {
				copy(work, fresh)
				mb.Clock.Advance(c.step)
				mb.NF.ProcessBatch(pkts, verdicts)
			})
			if allocs != 0 || verdicts[0] != nf.Forward {
				t.Errorf("%v, %s path: %.1f allocations a packet, verdict %v", kind, c.path, allocs, verdicts[0])
			}
		}
	}
}

// TestTableV1PipelineHealthy runs the verification-statistics experiment
// once and checks every proof completes over its expected path count,
// the NAT's over the expected task count.
func TestTableV1PipelineHealthy(t *testing.T) {
	tv, err := RunTableV1(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{11, 11, 13, 13, 9}
	if len(tv.Rows) != len(want) {
		t.Fatalf("%d rows, want %d", len(tv.Rows), len(want))
	}
	for i, r := range tv.Rows {
		if !r.ProofComplete || r.Paths != want[i] {
			t.Fatalf("%s: complete=%v paths=%d, want a complete proof over %d", r.NF, r.ProofComplete, r.Paths, want[i])
		}
	}
	if tv.Rows[0].Tasks != 109 {
		t.Fatalf("nat tasks=%d, want 109", tv.Rows[0].Tasks)
	}
	t.Log("\n" + tv.Format())
}

// TestAblationRuns checks the ablation harness produces sane rows.
func TestAblationRuns(t *testing.T) {
	rows, err := RunAblation([]float64{0.25, 0.92}, 20000)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatal("row count")
	}
	for _, r := range rows {
		if r.VerifiedHit <= 0 || r.ChainHit <= 0 {
			t.Fatalf("degenerate timing row %+v", r)
		}
	}
	t.Log("\n" + FormatAblation(rows))
}

// TestTelemetryOverheadShape runs the telemetry experiment scaled down
// and checks its structure: both modes produced sane timings, the
// enabled rig's histograms and trace ring were populated by the
// measured traffic, and the fast/slow split is nonempty on both sides
// (the acceptance bar for the PR 6 tail view). The ≤3% budget itself
// is held by the full-scale CI run — a 0.1-scale pass on a noisy host
// is no basis for a tight ratio assertion.
func TestTelemetryOverheadShape(t *testing.T) {
	res, err := TelemetryOverhead(TelemetryConfig{Rounds: 2, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	g := res.Gateway
	if g.NsOff <= 0 || g.NsOn <= 0 {
		t.Fatalf("degenerate gateway timings: %+v", g)
	}
	if g.PollSamples == 0 || g.PktSamples == 0 || g.BurstSamples == 0 || g.TxDrainSamples == 0 {
		t.Fatalf("enabled rig left histograms empty: %+v", g)
	}
	if g.TraceRecords == 0 {
		t.Fatalf("trace ring never sampled: %+v", g)
	}
	// The timing histograms sample one poll in telemetry.TimingStride,
	// and the enabled rig runs telPasses passes per round: the sampled
	// per-packet weights must still cover at least half the expected
	// share of the measured region (half absorbs poll phase).
	want := uint64(g.Packets) * telPasses / telemetry.TimingStride / 2
	if g.PktSamples < want {
		t.Fatalf("per-packet histogram undercounts the measured region: %d pkts over %d passes at stride %d, %d samples < %d",
			g.Packets, telPasses, telemetry.TimingStride, g.PktSamples, want)
	}
	s := res.Split
	if s.FastPkts == 0 || s.SlowPkts == 0 {
		t.Fatalf("fast/slow split empty on one side: %+v", s)
	}
	if s.ObservedHitRate <= 0 {
		t.Fatalf("cache never hit in the split leg: %+v", s)
	}
	t.Log("\n" + FormatTelemetry(res))
}

func TestBuildMiddleboxUnknown(t *testing.T) {
	if _, err := BuildMiddlebox(NFKind(99), time.Second); err == nil {
		t.Fatal("unknown NF accepted")
	}
}
