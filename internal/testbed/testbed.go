// Package testbed simulates the paper's RFC 2544 evaluation setup
// (Fig. 11): a Tester machine running MoonGen connected through the
// Middlebox under test. There is no 10 GbE hardware here, so the testbed
// splits every per-packet cost into
//
//   - a *measured* component — the Middlebox NF's actual packet
//     processing, executed for real on every simulated packet and timed
//     with the monotonic clock (flow-table lookups, inserts, expiry,
//     header rewriting: the costs the paper's comparison is about).
//     Every packet enters the NF the way the engine hands it packets,
//     as a burst through nf.NF.ProcessBatch — here a preallocated
//     one-packet burst — so the verified NAT timed is the adapter the
//     daemon runs, and
//   - a *modelled* component — wire/NIC propagation and the packet I/O
//     framework (DPDK poll-mode vs. the kernel path), which are constants
//     taken from the paper's own baseline measurements (no-op forwarding
//     at 4.75 µs; NetFilter ~20 µs and 0.6 Mpps).
//
// The middlebox is a single server with a bounded FIFO queue (the RX
// descriptor ring), so throughput saturates at 1/service-time and loss
// appears when the offered rate exceeds it — reproducing the shape of
// Fig. 14 without pretending to reproduce its absolute testbed numbers.
package testbed

import (
	"errors"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"vignat/internal/libvig"
	"vignat/internal/moongen"
	"vignat/internal/nf"
)

// procCap clamps individual per-packet processing measurements. Readings
// above it are Go-runtime artifacts (GC stop-the-world, OS preemption of
// the measuring goroutine), not NF behaviour: the slowest real operation
// — a full-table miss probe plus expiry — is two orders of magnitude
// below this. The paper's DPDK outliers are modelled separately in
// CostModel; without the clamp a single multi-millisecond artifact
// dominates a whole experiment's mean.
const procCap = 25 * time.Microsecond

// timerOverhead measures the cost of one time.Now/time.Since pair so it
// can be subtracted from per-packet readings (on VMs without vDSO fast
// paths this is ~150 ns, comparable to the work being measured).
func timerOverhead() int64 {
	const n = 4096
	samples := make([]int64, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		samples[i] = time.Since(t0).Nanoseconds()
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	return samples[n/2]
}

// quiesce runs f with the garbage collector off, a clean heap, and the
// goroutine pinned to its OS thread, so GC pauses and scheduler
// migrations do not land inside per-packet timings.
func quiesce(f func() error) error {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	old := debug.SetGCPercent(-1)
	runtime.GC()
	defer debug.SetGCPercent(old)
	return f()
}

// clampProc converts one raw timing into a per-packet processing cost.
func clampProc(raw, overhead int64) int64 {
	p := raw - overhead
	if p < 0 {
		p = 0
	}
	if p > procCap.Nanoseconds() {
		p = procCap.Nanoseconds()
	}
	return p
}

// Noop is the paper's no-op forwarding baseline: DPDK receive → transmit
// with no other processing.
type Noop struct{}

var _ nf.NF = Noop{}

// Name identifies the NF.
func (Noop) Name() string { return "noop" }

// ProcessBatch forwards every packet.
func (Noop) ProcessBatch(pkts []nf.Pkt, verdicts []nf.Verdict) {
	for i := range pkts {
		verdicts[i] = nf.Forward
	}
}

// Expire frees nothing: the no-op keeps no state.
func (Noop) Expire(libvig.Time) int { return 0 }

// NFStats is zero: the no-op keeps no counters.
func (Noop) NFStats() nf.Stats { return nf.Stats{} }

// CostModel carries the modelled (non-measured) cost constants.
type CostModel struct {
	// WireOneWay is tester→middlebox propagation + NIC latency, charged
	// twice per round trip.
	WireOneWay time.Duration
	// IOLatency is the framework's per-packet latency contribution
	// (DPDK RX+TX, or kernel RX path + qdisc for NetFilter).
	IOLatency time.Duration
	// IOCPU is the framework's per-packet CPU cost, which bounds
	// throughput together with the measured processing time.
	IOCPU time.Duration
	// OutlierProb/Min/Max model the rare framework-level latency spikes
	// the paper observes ("outliers two orders of magnitude above the
	// average... due to DPDK packet processing, not NAT-specific
	// processing"). The same seed across NFs makes the far tails
	// coincide, as in Fig. 13.
	OutlierProb float64
	OutlierMin  time.Duration
	OutlierMax  time.Duration
}

// DPDKCost is calibrated so no-op forwarding sits at the paper's
// 4.75 µs latency and ~3 Mpps single-core throughput.
var DPDKCost = CostModel{
	WireOneWay:  2200 * time.Nanosecond,
	IOLatency:   350 * time.Nanosecond,
	IOCPU:       330 * time.Nanosecond,
	OutlierProb: 1e-4,
	OutlierMin:  50 * time.Microsecond,
	OutlierMax:  300 * time.Microsecond,
}

// KernelCost is calibrated so the NetFilter NAT sits at ~20 µs latency
// and ~0.6 Mpps throughput, per §6.
var KernelCost = CostModel{
	WireOneWay:  2200 * time.Nanosecond,
	IOLatency:   15300 * time.Nanosecond,
	IOCPU:       1450 * time.Nanosecond,
	OutlierProb: 1e-4,
	OutlierMin:  50 * time.Microsecond,
	OutlierMax:  500 * time.Microsecond,
}

// RxQueueDepth is the middlebox ingress queue bound (RX descriptors).
const RxQueueDepth = 512

// Middlebox wraps an NF with its virtual clock and cost model. The NF
// reads its time from Clock.
type Middlebox struct {
	NF    nf.NF
	Clock *libvig.VirtualClock
	Cost  CostModel
}

// LatencyConfig describes a Fig. 12/13-style latency experiment.
type LatencyConfig struct {
	BackgroundFlows int
	BackgroundRate  float64 // aggregate pps (paper: 100,000)
	ProbeFlows      int     // paper: 1,000
	ProbeRate       float64 // per-flow pps (paper: 0.47)
	Duration        time.Duration
	Warmup          time.Duration
	PayloadLen      int
	Seed            int64
}

// DefaultLatencyConfig returns the paper's workload for a given
// background-flow count.
func DefaultLatencyConfig(backgroundFlows int) LatencyConfig {
	return LatencyConfig{
		BackgroundFlows: backgroundFlows,
		BackgroundRate:  100_000,
		ProbeFlows:      1000,
		ProbeRate:       0.47,
		Duration:        6 * time.Second,
		Warmup:          3 * time.Second,
		Seed:            1,
	}
}

// MeasureLatency runs the latency experiment: background flows hold the
// table occupancy steady while probe-flow packets — each arriving after
// its previous flow expired — measure the worst-case path (lookup miss,
// expiry, insert). Returned samples are probe-packet latencies.
func MeasureLatency(mb *Middlebox, cfg LatencyConfig) (*moongen.LatencyRecorder, error) {
	total := cfg.BackgroundFlows + cfg.ProbeFlows
	flows, err := moongen.MakeFlows(0, total, cfg.PayloadLen, flowProto)
	if err != nil {
		return nil, err
	}
	horizon := (cfg.Warmup + cfg.Duration).Nanoseconds()
	sched, err := moongen.NewSchedule(
		cfg.BackgroundFlows, cfg.BackgroundRate,
		cfg.ProbeFlows, cfg.ProbeRate*float64(cfg.ProbeFlows),
		horizon, cfg.Seed, 200, // ±200 ns generator jitter
	)
	if err != nil {
		return nil, err
	}
	rec := moongen.NewLatencyRecorder(1 << 14)
	scratch := make([]byte, 2048)
	pkts, verdicts := []nf.Pkt{{FromInternal: true}}, make([]nf.Verdict, 1)
	warmupEnd := cfg.Warmup.Nanoseconds()
	// The DPDK outlier spikes of Fig. 13 ("two orders of magnitude above
	// the average... due to DPDK packet processing, not NAT-specific
	// processing") are modelled deterministically — every 1/prob-th
	// probe sample, magnitude cycling through the band — so the far
	// tails of all NFs coincide, as in the paper, and small runs are not
	// dominated by outlier sampling noise.
	outlierEvery := 0
	if mb.Cost.OutlierProb > 0 {
		outlierEvery = int(1 / mb.Cost.OutlierProb)
	}
	probeSamples := 0

	err = quiesce(func() error {
		overhead := timerOverhead()
		var busyUntil int64 // server model: when the NF frees up
		for {
			ev, ok := sched.Next()
			if !ok {
				return nil
			}
			arrival := ev.Time + mb.Cost.WireOneWay.Nanoseconds()
			start := arrival
			if busyUntil > start {
				start = busyUntil
			}
			mb.Clock.Set(start)
			f := &flows[ev.Flow]
			frame := scratch[:len(f.Frame())]
			copy(frame, f.Frame())
			pkts[0].Frame = frame

			t0 := time.Now()
			mb.NF.ProcessBatch(pkts, verdicts)
			proc := clampProc(time.Since(t0).Nanoseconds(), overhead)

			busyUntil = start + proc + mb.Cost.IOCPU.Nanoseconds()
			if ev.Probe && ev.Time >= warmupEnd {
				if verdicts[0] == nf.Drop {
					return errors.New("testbed: probe packet dropped during latency run")
				}
				lat := (busyUntil - arrival) + // queueing + service
					2*mb.Cost.WireOneWay.Nanoseconds() +
					mb.Cost.IOLatency.Nanoseconds()
				probeSamples++
				if outlierEvery > 0 && probeSamples%outlierEvery == outlierEvery/2 {
					span := mb.Cost.OutlierMax.Nanoseconds() - mb.Cost.OutlierMin.Nanoseconds()
					k := int64(probeSamples / outlierEvery)
					lat += mb.Cost.OutlierMin.Nanoseconds() + (k*2654435761)%(span+1)
				}
				rec.Record(time.Duration(lat))
			}
		}
	})
	if err != nil {
		return nil, err
	}
	if rec.Count() == 0 {
		return nil, moongen.ErrNoSamples
	}
	return rec, nil
}

// flowProto is the transport protocol of generated test traffic.
const flowProto = 17 // UDP

// ThroughputConfig describes a Fig. 14-style throughput experiment.
type ThroughputConfig struct {
	Flows      int
	PayloadLen int     // 0 → 64-byte frames, as in the paper
	MaxLoss    float64 // paper: 0.1%
	TrialPkts  int     // packets per rate trial
	SearchLo   float64 // pps bracket
	SearchHi   float64
	SearchTol  float64
	Seed       int64
}

// DefaultThroughputConfig returns the paper's workload for a flow count.
func DefaultThroughputConfig(flows int) ThroughputConfig {
	return ThroughputConfig{
		Flows:     flows,
		MaxLoss:   0.001,
		TrialPkts: 200_000,
		SearchLo:  100_000,
		SearchHi:  6_000_000,
		SearchTol: 25_000,
		Seed:      1,
	}
}

// MeasureThroughput finds the maximum offered rate with loss ≤ MaxLoss
// using the RFC 2544 binary search. Flows never expire during a trial
// (they are all continuously active, as in the paper's fixed-flow-count
// workload).
func MeasureThroughput(mb *Middlebox, cfg ThroughputConfig) (float64, error) {
	flows, err := moongen.MakeFlows(0, cfg.Flows, cfg.PayloadLen, flowProto)
	if err != nil {
		return 0, err
	}
	scratch := make([]byte, 2048)
	pkts, verdicts := []nf.Pkt{{FromInternal: true}}, make([]nf.Verdict, 1)

	// Completion-time FIFO ring: the in-flight count is the number of
	// accepted-but-unfinished packets, bounded by the RX descriptor
	// ring. Preallocated once so trials do not allocate.
	ring := make([]int64, RxQueueDepth+1)

	trial := func(rate float64) float64 {
		interval := int64(1e9 / rate)
		ioCPU := mb.Cost.IOCPU.Nanoseconds()
		var busyUntil int64
		drops := 0
		head, tail, inFlight := 0, 0, 0
		arrival := mb.Clock.Now()
		overhead := timerOverhead()
		for i := 0; i < cfg.TrialPkts; i++ {
			arrival += interval
			// Retire completed packets.
			for inFlight > 0 && ring[head] <= arrival {
				head = (head + 1) % len(ring)
				inFlight--
			}
			if inFlight >= RxQueueDepth {
				drops++
				continue
			}
			start := arrival
			if busyUntil > start {
				start = busyUntil
			}
			mb.Clock.Set(start)
			f := &flows[i%len(flows)]
			frame := scratch[:len(f.Frame())]
			copy(frame, f.Frame())
			pkts[0].Frame = frame
			t0 := time.Now()
			mb.NF.ProcessBatch(pkts, verdicts)
			proc := clampProc(time.Since(t0).Nanoseconds(), overhead)
			if verdicts[0] == nf.Drop {
				drops++ // NF-level drop also counts as loss
			}
			busyUntil = start + proc + ioCPU
			ring[tail] = busyUntil
			tail = (tail + 1) % len(ring)
			inFlight++
		}
		return float64(drops) / float64(cfg.TrialPkts)
	}

	var tput float64
	err = quiesce(func() error {
		var serr error
		tput, serr = moongen.ThroughputSearch(trial, cfg.SearchLo, cfg.SearchHi, cfg.SearchTol, cfg.MaxLoss)
		return serr
	})
	return tput, err
}
