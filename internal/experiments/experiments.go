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
	"vignat/internal/testbed"
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

// NFKind names a middlebox variant.
type NFKind int

// The four NFs of the evaluation.
const (
	NFNoop NFKind = iota
	NFUnverified
	NFVerified
	NFLinux
)

// String returns the paper's label for the NF.
func (k NFKind) String() string {
	switch k {
	case NFNoop:
		return "No-op"
	case NFUnverified:
		return "Unverified NAT"
	case NFVerified:
		return "Verified NAT"
	case NFLinux:
		return "Linux NAT"
	default:
		return "NF(?)"
	}
}

// AllNFs lists the evaluation's middleboxes in the paper's order.
var AllNFs = []NFKind{NFNoop, NFUnverified, NFVerified, NFLinux}

// DPDKNFs lists the DPDK-based NFs (Fig. 13 compares only these).
var DPDKNFs = []NFKind{NFNoop, NFUnverified, NFVerified}

// BuildMiddlebox constructs a fresh middlebox of the given kind with its
// own virtual clock, flow timeout, and the appropriate cost model. The
// verified NAT enters through its adapter (nat.AsNF), the one the
// engine runs.
func BuildMiddlebox(kind NFKind, timeout time.Duration) (*testbed.Middlebox, error) {
	clock := libvig.NewVirtualClock(0)
	switch kind {
	case NFNoop:
		return &testbed.Middlebox{NF: testbed.Noop{}, Clock: clock, Cost: testbed.DPDKCost}, nil
	case NFVerified:
		n, err := nat.New(nat.Config{
			Capacity:     Capacity,
			Timeout:      timeout,
			ExternalIP:   ExtIP,
			PortBase:     PortBase,
			InternalPort: 0,
			ExternalPort: 1,
		}, clock)
		if err != nil {
			return nil, err
		}
		return &testbed.Middlebox{NF: nat.AsNF(n), Clock: clock, Cost: testbed.DPDKCost}, nil
	case NFUnverified:
		n, err := unverified.New(Capacity, ExtIP, PortBase, timeout, clock)
		if err != nil {
			return nil, err
		}
		return &testbed.Middlebox{NF: n, Clock: clock, Cost: testbed.DPDKCost}, nil
	case NFLinux:
		n, err := netfilter.New(Capacity, ExtIP, PortBase, timeout, clock)
		if err != nil {
			return nil, err
		}
		return &testbed.Middlebox{NF: n, Clock: clock, Cost: testbed.KernelCost}, nil
	default:
		return nil, fmt.Errorf("experiments: unknown NF kind %d", kind)
	}
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
