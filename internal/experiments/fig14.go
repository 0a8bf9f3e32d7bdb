package experiments

import (
	"fmt"
	"runtime"
	"time"

	"vignat/internal/flow"
	"vignat/internal/moongen"
	"vignat/internal/paired"
)

// Fig14Config parameterizes the throughput experiment.
type Fig14Config struct {
	// FlowCounts is the x-axis; nil means the paper's axis.
	FlowCounts []int
	// Scale shrinks the timed packet count (200,000 at 1.0).
	Scale Scale
}

// fig14Passes is the number of timed passes in a round. A pass that a
// preemption lands in reads up to twice the others, so a round's figure
// is the median pass.
const fig14Passes = 8

// Fig14 measures each contender's lossless service rate as a function
// of flow count, 64-byte packets, single core — the paper's Fig. 14.
// The paper searches for the highest offered rate with at most 0.1%
// loss (RFC 2544); a lock-step rig polls until every frame it queued is
// consumed, so it never drops one and there is no rate to search for.
// What it measures instead is the rate at which the engine serves a
// backlog: every flow is established untimed, then the flows take
// turns through the timed Polls, each pass carrying on where the last
// stopped, so every flow is timed once the passes have sent n packets
// (200,000 at scale 1.0 cover the paper's 64,000 flows). Flows never
// expire (60 s timeout, virtual time standing still), matching the
// paper's fixed-flow workload. A point's rounds hold each round's Poll time per packet,
// ns, the median of its fig14Passes passes: the inverse of the
// contender's lossless service rate.
func Fig14(cfg Fig14Config) ([]Point, error) {
	counts := cfg.FlowCounts
	if counts == nil {
		counts = FlowCounts
	}
	pass := cfg.Scale.applyInt(200_000) / fig14Passes
	points := make([]Point, 0, len(counts))
	for _, n := range counts {
		flows, err := moongen.MakeFlows(0, n, 0, flow.UDP)
		if err != nil {
			return nil, err
		}
		established := make([]frame, n)
		for i := range flows {
			established[i] = frame{flows[i].Frame(), true}
		}
		seq := make([]frame, fig14Passes*pass)
		for i := range seq {
			seq[i] = established[i%n]
		}
		cost, err := contenderRounds(AllNFs, figRounds, func(kind NFKind) (float64, error) {
			r, _, err := figureRig(kind, 60*time.Second)
			if err != nil {
				return 0, err
			}
			defer r.Close()
			if _, err := run(r, established, false); err != nil {
				return 0, err
			}
			// Rig construction just allocated; collect now so the GC
			// does not fire inside the timed Polls.
			runtime.GC()
			costs := make([]float64, fig14Passes)
			for i := range costs {
				elapsed, err := run(r, seq[i*pass:(i+1)*pass], true)
				if err != nil {
					return 0, fmt.Errorf("fig14 %v @%d flows: %w", kind, n, err)
				}
				costs[i] = float64(elapsed.Nanoseconds()) / float64(pass)
			}
			return paired.Median(costs), nil
		})
		if err != nil {
			return nil, err
		}
		points = append(points, Point{n, cost})
	}
	return points, nil
}

// FormatFig14 renders each contender's service rate in Mpps, the
// paper's unit, then the verified NAT's and the Linux NAT's paired cost
// ratio to the unverified NAT with its bootstrap 95% CI.
func FormatFig14(points []Point) string {
	return formatPoints("flows", "cost ", points, func(r Rounds, k NFKind) string {
		return fmt.Sprintf("%12.2fMpps", 1e3/r.Median(k))
	})
}
