package experiments

import (
	"fmt"
	"strings"
	"time"

	"vignat/internal/flow"
	"vignat/internal/moongen"
	"vignat/internal/nf"
	"vignat/internal/testbed"
)

// Fig14Row is one x-axis point of Fig. 14: the RFC 2544 maximum
// throughput (pps, ≤0.1% loss) per NF at a given flow count.
type Fig14Row struct {
	Flows      int
	Throughput map[NFKind]float64
}

// Fig14Config parameterizes the throughput experiment.
type Fig14Config struct {
	FlowCounts []int
	NFs        []NFKind
	Scale      Scale
}

// Fig14 measures maximum throughput with ≤0.1% loss as a function of
// flow count, 64-byte packets, single core — the paper's Fig. 14.
// Flows never expire during a trial (60 s timeout vs. sub-second
// trials), matching the paper's fixed-flow workload.
func Fig14(cfg Fig14Config) ([]Fig14Row, error) {
	counts := cfg.FlowCounts
	if counts == nil {
		counts = FlowCounts
	}
	nfs := cfg.NFs
	if nfs == nil {
		nfs = AllNFs
	}
	rows := make([]Fig14Row, 0, len(counts))
	for _, n := range counts {
		row := Fig14Row{Flows: n, Throughput: make(map[NFKind]float64)}
		for _, kind := range nfs {
			mb, err := BuildMiddlebox(kind, 60*time.Second)
			if err != nil {
				return nil, err
			}
			tcfg := testbed.DefaultThroughputConfig(n)
			tcfg.TrialPkts = cfg.Scale.applyInt(tcfg.TrialPkts)
			// Warm the flow table so trials measure steady state.
			if err := warmFlows(mb, n); err != nil {
				return nil, err
			}
			tput, err := testbed.MeasureThroughput(mb, tcfg)
			if err != nil {
				return nil, fmt.Errorf("fig14 %v @%d flows: %w", kind, n, err)
			}
			row.Throughput[kind] = tput
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// warmFlows establishes every flow once so the table is populated.
func warmFlows(mb *testbed.Middlebox, n int) error {
	flows, err := moongen.MakeFlows(0, n, 0, flow.UDP)
	if err != nil {
		return err
	}
	scratch := make([]byte, 2048)
	pkts, verdicts := []nf.Pkt{{FromInternal: true}}, make([]nf.Verdict, 1)
	for i := range flows {
		pkts[0].Frame = scratch[:copy(scratch, flows[i].Frame())]
		mb.Clock.Advance(1000)
		mb.NF.ProcessBatch(pkts, verdicts)
	}
	return nil
}

// FormatFig14 renders the rows in Mpps, the paper's unit.
func FormatFig14(rows []Fig14Row, nfs []NFKind) string {
	if nfs == nil {
		nfs = AllNFs
	}
	b := &strings.Builder{}
	fmt.Fprintf(b, "%-18s", "flows")
	for _, k := range nfs {
		fmt.Fprintf(b, "%18s", k)
	}
	fmt.Fprintln(b)
	for _, r := range rows {
		fmt.Fprintf(b, "%-18d", r.Flows)
		for _, k := range nfs {
			fmt.Fprintf(b, "%14.2fMpps", r.Throughput[k]/1e6)
		}
		fmt.Fprintln(b)
	}
	return b.String()
}
