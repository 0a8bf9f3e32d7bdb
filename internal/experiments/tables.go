package experiments

import (
	"fmt"
	"strings"
	"time"

	"vignat/internal/catalog"
	"vignat/internal/flow"
	"vignat/internal/libvig"
	"vignat/internal/moongen"
	"vignat/internal/nat"
	"vignat/internal/nf/nfkit"
	"vignat/internal/unverified"
)

// TableV1Row is one NF's verification statistics, the paper's in-text
// figures (§5.2.1–§5.2.2): path and task counts from exhaustive symbolic
// execution, its time, and validation wall time at 1 and N workers (the
// paper's NAT: 108 paths, 431 traces, 38 min on one core, 11 min on
// four).
type TableV1Row struct {
	NF                            string
	Paths, Tasks                  int
	Explore, Validate1, ValidateN time.Duration
	ProofComplete                 bool
}

// TableV1 is the verification statistics of every proof in TableV1Proofs.
type TableV1 struct {
	Rows []TableV1Row
	// WorkersN is the N of ValidateN; Runs the repetitions averaged to
	// stabilize the (fast) Go timings.
	WorkersN, Runs int
}

// TableV1Proofs returns the declarations Table V1 reports: the five
// flow- and subscriber-table catalog rows — the NAT, the firewall, the
// balancer in both orientations, the policer — at the daemon's default
// configuration.
func TableV1Proofs() ([]catalog.Proof, error) {
	var proofs []catalog.Proof
	for _, name := range []string{"nat", "firewall", "lb", "lb-passthrough", "policer"} {
		row, ok := catalog.Find(catalog.Rows, name)
		if !ok {
			return nil, fmt.Errorf("experiments: no catalog row %q", name)
		}
		p, err := row.Proofs(catalog.Defaults())
		if err != nil {
			return nil, err
		}
		proofs = append(proofs, p...)
	}
	return proofs, nil
}

// RunTableV1 proves every declaration of TableV1Proofs at 1 and at workers
// validation workers, repeat times each, and averages the timings.
func RunTableV1(workers, repeat int) (*TableV1, error) {
	if repeat <= 0 {
		repeat = 1
	}
	proofs, err := TableV1Proofs()
	if err != nil {
		return nil, err
	}
	tv := &TableV1{WorkersN: workers, Runs: repeat}
	for _, p := range proofs {
		row := TableV1Row{NF: p.Name, ProofComplete: true}
		for i := 0; i < repeat; i++ {
			for _, w := range []int{1, workers} {
				rep, err := nfkit.VerifySym(*p.Sym, nfkit.ModelExact, w)
				if err != nil {
					return nil, err
				}
				row.Paths, row.Tasks = rep.Paths, rep.Tasks
				row.ProofComplete = row.ProofComplete && rep.OK()
				row.Explore += rep.Explore / time.Duration(2*repeat)
				if w == 1 {
					row.Validate1 += rep.Validate / time.Duration(repeat)
				} else {
					row.ValidateN += rep.Validate / time.Duration(repeat)
				}
			}
		}
		tv.Rows = append(tv.Rows, row)
	}
	return tv, nil
}

// Format renders the verification statistics table.
func (t *TableV1) Format() string {
	b := &strings.Builder{}
	fmt.Fprintf(b, "verification statistics (paper, NAT only: 108 paths, 431 tasks, <1 min ESE, 38/11 min validate at 1/4 cores)\n")
	fmt.Fprintf(b, "%-16s%7s%7s%12s%14s%14s  %s\n", "NF", "paths", "tasks", "explore",
		"validate x1", fmt.Sprintf("validate x%d", t.WorkersN), "proof")
	for _, r := range t.Rows {
		fmt.Fprintf(b, "%-16s%7d%7d%12s%14s%14s  %v\n", r.NF, r.Paths, r.Tasks,
			r.Explore.Round(time.Microsecond), r.Validate1.Round(time.Microsecond),
			r.ValidateN.Round(time.Microsecond), r.ProofComplete)
	}
	return b.String()
}

// AblationRow compares the verified flow table (libVig double map, open
// addressing) against the unverified one (separate chaining) at one
// occupancy level — the paper's in-text explanation of the Fig. 12/14
// deltas ("the difference is greatest for lookups that find no match").
type AblationRow struct {
	Occupancy    float64
	VerifiedHit  time.Duration
	VerifiedMiss time.Duration
	ChainHit     time.Duration
	ChainMiss    time.Duration
}

// RunAblation measures per-op lookup times at the given occupancies.
func RunAblation(occupancies []float64, opsPerPoint int) ([]AblationRow, error) {
	if opsPerPoint <= 0 {
		opsPerPoint = 200_000
	}
	rows := make([]AblationRow, 0, len(occupancies))
	for _, occ := range occupancies {
		nflows := int(occ * Capacity)
		if nflows < 1 {
			nflows = 1
		}
		row := AblationRow{Occupancy: occ}

		// Verified table: libVig dmap + dchain composition.
		vt, err := newPopulatedFlowTable(nflows)
		if err != nil {
			return nil, err
		}
		hitKeys, missKeys := ablationKeys(nflows)
		row.VerifiedHit = timePerOp(opsPerPoint, func(i int) {
			vt.LookupInt(hitKeys[i%len(hitKeys)])
		})
		row.VerifiedMiss = timePerOp(opsPerPoint, func(i int) {
			vt.LookupInt(missKeys[i%len(missKeys)])
		})

		// Chaining table.
		ct, err := newPopulatedChainTable(nflows)
		if err != nil {
			return nil, err
		}
		row.ChainHit = timePerOp(opsPerPoint, func(i int) {
			ct.LookupInt(hitKeys[i%len(hitKeys)])
		})
		row.ChainMiss = timePerOp(opsPerPoint, func(i int) {
			ct.LookupInt(missKeys[i%len(missKeys)])
		})
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatAblation renders the flow-table ablation rows.
func FormatAblation(rows []AblationRow) string {
	b := &strings.Builder{}
	fmt.Fprintf(b, "%-12s%16s%16s%16s%16s\n", "occupancy",
		"verified hit", "verified miss", "chaining hit", "chaining miss")
	for _, r := range rows {
		fmt.Fprintf(b, "%-12.2f%16s%16s%16s%16s\n", r.Occupancy,
			r.VerifiedHit, r.VerifiedMiss, r.ChainHit, r.ChainMiss)
	}
	return b.String()
}

func ablationKey(i int, miss bool) flow.ID {
	dst := moongen.ServerIP
	src := flow.MakeAddr(10, 0, 0, 0) + flow.Addr(1+i/1024)
	port := uint16(10000 + i%1024)
	if miss {
		src = flow.MakeAddr(172, 16, 0, 0) + flow.Addr(1+i/1024)
	}
	return flow.ID{SrcIP: src, SrcPort: port, DstIP: dst, DstPort: 80, Proto: flow.UDP}
}

func ablationKeys(n int) (hits, misses []flow.ID) {
	k := n
	if k > 4096 {
		k = 4096
	}
	hits = make([]flow.ID, k)
	misses = make([]flow.ID, k)
	for i := 0; i < k; i++ {
		hits[i] = ablationKey(i*(n/k), false)
		misses[i] = ablationKey(i, true)
	}
	return hits, misses
}

func newPopulatedFlowTable(n int) (*nat.FlowTable, error) {
	t, err := nat.NewFlowTable(Capacity, ExtIP, PortBase)
	if err != nil {
		return nil, err
	}
	now := libvig.Time(0)
	for i := 0; i < n; i++ {
		if _, ok := t.Add(ablationKey(i, false), now); !ok {
			return nil, fmt.Errorf("experiments: flow table filled early at %d", i)
		}
	}
	return t, nil
}

func newPopulatedChainTable(n int) (*unverified.ChainTable, error) {
	t, err := unverified.NewChainTable(Capacity, ExtIP, PortBase)
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		if t.Add(ablationKey(i, false), 0) == nil {
			return nil, fmt.Errorf("experiments: chain table filled early at %d", i)
		}
	}
	return t, nil
}

func timePerOp(ops int, f func(i int)) time.Duration {
	start := time.Now()
	for i := 0; i < ops; i++ {
		f(i)
	}
	return time.Since(start) / time.Duration(ops)
}
