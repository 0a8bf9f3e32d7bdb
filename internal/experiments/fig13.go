package experiments

import (
	"fmt"
	"strings"
	"time"

	"vignat/internal/moongen"
)

// Fig13Quantiles are the probe-time quantiles Fig. 13 reports for each
// kernel-bypass contender: the body and the tail of the paper's CCDF.
var Fig13Quantiles = []float64{0.5, 0.9, 0.99, 0.999}

// Fig13Row is one contender's probe-time quantiles, Quantiles[i] at
// Fig13Quantiles[i], over the probes of every round.
type Fig13Row struct {
	NF        NFKind
	Quantiles []time.Duration
}

// fig13Rounds is the number of rounds of Fig. 13, each running every
// contender once; a contender's probes are pooled over them.
const fig13Rounds = 3

// Fig13 measures the probe-time distribution of the three kernel-bypass
// contenders at high flow-table occupancy, on Fig. 12's workload and
// rig at the paper's 60,000 background flows (92% occupancy), with a
// longer run for the tail.
func Fig13(scale Scale) ([]Fig13Row, error) {
	warmup, duration := scale.apply(3*time.Second), scale.apply(20*time.Second)
	recs := make(map[NFKind]*moongen.LatencyRecorder, len(DPDKNFs))
	_, err := alternate(fig13Rounds, len(DPDKNFs), func(s int) (float64, error) {
		kind := DPDKNFs[s]
		r, clock, err := figureRig(kind, 2*time.Second)
		if err != nil {
			return 0, err
		}
		defer r.Close()
		if recs[kind] == nil {
			recs[kind] = moongen.NewLatencyRecorder(fig13Rounds * int(probeRate*probeFlows*duration.Seconds()))
		}
		if err := probeLatency(r, clock, 60000, warmup, duration, recs[kind]); err != nil {
			return 0, fmt.Errorf("fig13 %v: %w", kind, err)
		}
		return 0, nil
	})
	if err != nil {
		return nil, err
	}
	rows := make([]Fig13Row, 0, len(DPDKNFs))
	for _, kind := range DPDKNFs {
		row := Fig13Row{NF: kind}
		for _, q := range Fig13Quantiles {
			row.Quantiles = append(row.Quantiles, recs[kind].Quantile(q))
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatFig13 renders the quantiles: quantiles down, contenders across.
func FormatFig13(rows []Fig13Row) string {
	b := &strings.Builder{}
	fmt.Fprintf(b, "%-10s", "quantile")
	for _, r := range rows {
		fmt.Fprintf(b, "%18s", r.NF)
	}
	fmt.Fprintln(b)
	for i, q := range Fig13Quantiles {
		fmt.Fprintf(b, "%-10s", fmt.Sprintf("p%g", 100*q))
		for _, r := range rows {
			fmt.Fprintf(b, "%16.3fµs", float64(r.Quantiles[i].Nanoseconds())/1000)
		}
		fmt.Fprintln(b)
	}
	return b.String()
}
