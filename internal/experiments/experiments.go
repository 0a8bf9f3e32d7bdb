// Package experiments regenerates every figure and in-text measurement
// of the paper's evaluation (§6) plus the verification statistics of §5.
// Each experiment returns structured rows; cmd/vigbench renders them as
// the paper-style tables, and shape_test.go runs each scaled down. See
// EXPERIMENTS.md for paper-vs-measured notes.
package experiments

import (
	"fmt"
	"time"

	"vignat/internal/flow"
	"vignat/internal/libvig"
	"vignat/internal/nat"
	"vignat/internal/netfilter"
	"vignat/internal/nf"
	"vignat/internal/nf/nfkit/nfkittest"
	"vignat/internal/paired"
	"vignat/internal/unverified"
)

// ExtIP is the NAT's external address in all experiments.
var ExtIP = flow.MakeAddr(198, 18, 1, 1)

// Capacity is the flow-table capacity of every NAT, as in the paper
// ("supports the same number of flows (65,535)").
const Capacity = 65535

// PortBase is the first external port the allocators manage.
const PortBase = 1

// FlowCounts is the shared x-axis of Figs. 12 and 14 (thousands of
// flows: 1..64k).
var FlowCounts = []int{1000, 10000, 20000, 30000, 40000, 50000, 60000, 64000}

// NFKind names a contender of the evaluation.
type NFKind int

// The four NFs of the evaluation.
const (
	NFNoop NFKind = iota
	NFUnverified
	NFVerified
	NFLinux
)

// nfLabels are the paper's labels for the NFs, by kind.
var nfLabels = [...]string{"No-op", "Unverified NAT", "Verified NAT", "Linux NAT"}

// String returns the paper's label for the NF.
func (k NFKind) String() string {
	if k < 0 || int(k) >= len(nfLabels) {
		return "NF(?)"
	}
	return nfLabels[k]
}

// AllNFs lists the evaluation's middleboxes in the paper's order.
var AllNFs = []NFKind{NFNoop, NFUnverified, NFVerified, NFLinux}

// DPDKNFs lists the kernel-bypass contenders (Fig. 13 compares only
// these).
var DPDKNFs = []NFKind{NFNoop, NFUnverified, NFVerified}

// noop is the paper's no-op forwarding baseline: receive, then
// transmit with no other processing.
type noop struct{}

func (noop) Name() string { return "noop" }

func (noop) ProcessBatch(pkts []nf.Pkt, verdicts []nf.Verdict) {
	for i := range pkts {
		verdicts[i] = nf.Forward
	}
}

func (noop) Expire(libvig.Time) int { return 0 }

func (noop) NFStats() nf.Stats { return nf.Stats{} }

// contender builds a fresh NF of the given kind on its own virtual
// clock, with flow timeout timeout. The verified NAT enters through
// its adapter (nat.AsNF), the one the engine runs.
func contender(kind NFKind, timeout time.Duration) (nf.NF, *libvig.VirtualClock, error) {
	clock := libvig.NewVirtualClock(0)
	var n nf.NF
	var err error
	switch kind {
	case NFNoop:
		n = noop{}
	case NFVerified:
		var v *nat.NAT
		cfg := nat.Config{Capacity: Capacity, Timeout: timeout, ExternalIP: ExtIP, PortBase: PortBase, ExternalPort: 1}
		if v, err = nat.New(cfg, clock); err == nil {
			n = nat.AsNF(v)
		}
	case NFUnverified:
		n, err = unverified.New(Capacity, ExtIP, PortBase, timeout, clock)
	case NFLinux:
		n, err = netfilter.New(Capacity, ExtIP, PortBase, timeout, clock)
	default:
		err = fmt.Errorf("experiments: unknown NF kind %d", kind)
	}
	return n, clock, err
}

// figureRig runs a fresh contender of the given kind on its own rig.
// The kernel-bypass contenders poll in-memory rings; the Linux NAT
// crosses unix sockets, so the kernel's own receive and send run
// inside each of its polls.
func figureRig(kind NFKind, timeout time.Duration) (*nfkittest.Rig, *libvig.VirtualClock, error) {
	n, clock, err := contender(kind, timeout)
	if err != nil {
		return nil, nil, err
	}
	transport := "mem"
	if kind == NFLinux {
		transport = "unix"
	}
	r, err := nfkittest.NewRig(n, transport, 1, nf.Config{Clock: clock})
	return r, clock, err
}

// Scale shrinks experiment durations for quick runs and tests: 1.0 is
// the full paper-shaped run, 0.1 a smoke run.
type Scale float64

// apply scales d, to no less than 100 ms.
func (s Scale) apply(d time.Duration) time.Duration {
	if s <= 0 {
		s = 1
	}
	scaled := time.Duration(float64(d) * float64(s))
	if scaled < 100*time.Millisecond {
		scaled = 100 * time.Millisecond
	}
	return scaled
}

// applyInt scales n, to no fewer than 1000.
func (s Scale) applyInt(n int) int {
	if s <= 0 {
		s = 1
	}
	scaled := int(float64(n) * float64(s))
	if scaled < 1000 {
		scaled = 1000
	}
	return scaled
}

// Rounds holds each contender's figure from every round of a figure
// run: Rounds[k][i] is contender k's figure in round i, and the
// contenders of a round ran back to back (see alternate), so their
// i-th figures form pair i.
type Rounds map[NFKind][]float64

// Median is contender k's median figure over the rounds.
func (r Rounds) Median(k NFKind) float64 { return paired.Median(r[k]) }

// Compare reads contender b against contender a as pairs, a the
// baseline (package paired): Ratio is the median of b/a.
func (r Rounds) Compare(a, b NFKind) paired.Result { return paired.Compare(r[a], r[b]) }

// contenderRounds runs leg for every contender in kinds, rounds times,
// the contenders alternating within each round.
func contenderRounds(kinds []NFKind, rounds int, leg func(NFKind) (float64, error)) (Rounds, error) {
	t, err := alternate(rounds, len(kinds), func(s int) (float64, error) { return leg(kinds[s]) })
	if err != nil {
		return nil, err
	}
	out := make(Rounds, len(kinds))
	for s, k := range kinds {
		out[k] = t[s]
	}
	return out, nil
}
