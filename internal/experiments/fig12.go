package experiments

import (
	"fmt"
	"strings"
	"time"

	"vignat/internal/flow"
	"vignat/internal/libvig"
	"vignat/internal/moongen"
	"vignat/internal/nf/nfkit/nfkittest"
)

// The paper's latency workload (§6, Figs. 12 and 13): background flows
// at an aggregate 100,000 packets/s hold the flow table's occupancy,
// and 1,000 probe flows at 0.47 packets/s each arrive after their
// previous entry expired, so every probe takes the NAT's worst path:
// expire, miss, insert.
const (
	bgRate     = 100_000
	probeFlows = 1000
	probeRate  = 0.47
	// genJitter is the generator's emission jitter, ±ns.
	genJitter = 200
)

// probeLatency replays the paper's latency schedule with bgFlows
// background flows through r on its virtual clock: warmup, then
// duration more of schedule time. Every background flow first sends
// one packet, untimed, at time zero, so the table holds bgFlows flows
// however short the schedule: at 100,000 packets/s a run shorter than
// bgFlows/100,000 s would otherwise never open them all. The
// background packets that fall between two probes travel in bursts,
// untimed, at the time of the last of them; each probe then rides
// alone at its own time, and the engine's Poll that carries it is
// timed. It records the probes timed after warmup in rec, and fails if
// the contender drops a probe.
func probeLatency(r *nfkittest.Rig, clock *libvig.VirtualClock, bgFlows int, warmup, duration time.Duration, rec *moongen.LatencyRecorder) error {
	flows, err := moongen.MakeFlows(0, bgFlows+probeFlows, 0, flow.UDP)
	if err != nil {
		return err
	}
	frames := make([]frame, len(flows))
	for i := range flows {
		frames[i] = frame{flows[i].Frame(), true}
	}
	sched, err := moongen.NewSchedule(bgFlows, bgRate, probeFlows, probeRate*probeFlows,
		(warmup + duration).Nanoseconds(), 1, genJitter)
	if err != nil {
		return err
	}
	if _, err := run(r, frames[:bgFlows], false); err != nil {
		return err
	}
	recorded := rec.Count()
	var pending []frame
	var pendingAt libvig.Time
	flush := func() error {
		clock.Set(pendingAt)
		_, err := run(r, pending, false)
		pending = pending[:0]
		return err
	}
	for {
		ev, ok := sched.Next()
		if !ok {
			break
		}
		if !ev.Probe {
			pending, pendingAt = append(pending, frames[ev.Flow]), ev.Time
			continue
		}
		if err := flush(); err != nil {
			return err
		}
		clock.Set(ev.Time)
		before := r.Engine.Stats()
		if err := send(r, frames[ev.Flow:ev.Flow+1], ev.Time); err != nil {
			return err
		}
		d, err := r.Poll(1)
		if err != nil {
			return err
		}
		if after := r.Engine.Stats(); after.Dropped != before.Dropped || after.TxFreed != before.TxFreed {
			return fmt.Errorf("experiments: probe of flow %d dropped at %v", ev.Flow, time.Duration(ev.Time))
		}
		if err := r.Drain(nil); err != nil {
			return err
		}
		if ev.Time >= warmup.Nanoseconds() {
			rec.Record(d)
		}
	}
	if err := flush(); err != nil {
		return err
	}
	if rec.Count() == recorded {
		return moongen.ErrNoSamples
	}
	return nil
}

// fig12Trim is the share of a round's probes, the slowest, left out of
// its mean. A probe is one Poll of well under a microsecond on the
// kernel-bypass rings, so the host preempting the tester once adds tens
// of microseconds to it: at 1% one such probe in a short round still
// moved the round's mean by a third.
const fig12Trim = 0.1

// figRounds is the number of rounds of Figs. 12 and 14, each running
// every contender once.
const figRounds = 5

// Point is one x-axis point of Fig. 12 or 14: a flow count and each
// contender's figure in every round there.
type Point struct {
	Flows  int
	Rounds Rounds
}

// Fig12Config parameterizes the Fig. 12 run.
type Fig12Config struct {
	// Timeout is the NAT flow expiry: 2 s for the main experiment,
	// 60 s for the in-text variant where no flow ever expires.
	Timeout time.Duration
	// FlowCounts is the x-axis; nil means the paper's axis.
	FlowCounts []int
	// Scale shrinks run duration for smoke tests.
	Scale Scale
}

// Fig12 measures the probe flows' time through each contender as a
// function of the number of background flows (paper Fig. 12; with
// Timeout=60s, the in-text variant). Probe flows expire between
// packets when Timeout is 2 s, so each probe exercises the miss+insert
// worst case; with 60 s they never expire and probes take the hit
// path. A probe's time is the Poll that carries it: for the Linux NAT
// that includes the kernel's receive and send. A point's rounds hold
// each round's mean probe time, ns, less the slowest fig12Trim of its
// probes.
func Fig12(cfg Fig12Config) ([]Point, error) {
	if cfg.Timeout == 0 {
		cfg.Timeout = 2 * time.Second
	}
	counts := cfg.FlowCounts
	if counts == nil {
		counts = FlowCounts
	}
	warmup, duration := cfg.Scale.apply(3*time.Second), cfg.Scale.apply(6*time.Second)
	points := make([]Point, 0, len(counts))
	for _, n := range counts {
		probe, err := contenderRounds(AllNFs, figRounds, func(kind NFKind) (float64, error) {
			r, clock, err := figureRig(kind, cfg.Timeout)
			if err != nil {
				return 0, err
			}
			defer r.Close()
			rec := moongen.NewLatencyRecorder(int(probeRate * probeFlows * duration.Seconds()))
			if err := probeLatency(r, clock, n, warmup, duration, rec); err != nil {
				return 0, fmt.Errorf("fig12 %v @%d flows: %w", kind, n, err)
			}
			return float64(rec.TrimmedMean(fig12Trim).Nanoseconds()), nil
		})
		if err != nil {
			return nil, err
		}
		points = append(points, Point{n, probe})
	}
	return points, nil
}

// FormatFig12 renders the points: each contender's median probe time,
// then the verified NAT's and the Linux NAT's paired ratio to the
// unverified NAT with its bootstrap 95% CI.
func FormatFig12(points []Point) string {
	return formatPoints("bg flows", "", points, func(r Rounds, k NFKind) string {
		return fmt.Sprintf("%14.3fµs", r.Median(k)/1000)
	})
}

// formatPoints renders a figure one point a line: cell's rendering of
// each contender's rounds, then the verified NAT's and the Linux NAT's
// paired ratio to the unverified NAT as "ratio [lo, hi]". ratio names
// what the ratios compare.
func formatPoints(axis, ratio string, points []Point, cell func(Rounds, NFKind) string) string {
	b := &strings.Builder{}
	fmt.Fprintf(b, "%-10s", axis)
	for _, k := range AllNFs {
		fmt.Fprintf(b, "%16s", k)
	}
	fmt.Fprintf(b, "%26s%26s\n", ratio+"verified/unverified", ratio+"linux/unverified")
	for _, p := range points {
		fmt.Fprintf(b, "%-10d", p.Flows)
		for _, k := range AllNFs {
			b.WriteString(cell(p.Rounds, k))
		}
		for _, k := range []NFKind{NFVerified, NFLinux} {
			res := p.Rounds.Compare(NFUnverified, k)
			fmt.Fprintf(b, "%26s", fmt.Sprintf("%.2f [%.2f, %.2f]", res.Ratio, res.Lo, res.Hi))
		}
		fmt.Fprintln(b)
	}
	return b.String()
}
