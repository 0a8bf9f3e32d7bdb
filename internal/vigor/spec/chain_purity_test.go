// Prefetch purity on the firewall→policer→LB→NAT home-gateway chain:
// the same randomized gateway trace through N chains in lock-step must
// produce bit-identical outputs (side and full frame bytes, so every NAT
// and VIP rewrite is compared too), identical final state in all four
// NFs, and identical counters.
package spec_test

import (
	"testing"
	"time"

	"vignat/internal/catalog"
	"vignat/internal/firewall"
	"vignat/internal/flow"
	"vignat/internal/lb"
	"vignat/internal/libvig"
	"vignat/internal/nat"
	"vignat/internal/nf"
	"vignat/internal/nf/nfkit"
	"vignat/internal/nf/nfkit/nfkittest"
	"vignat/internal/policer"
)

const (
	chainCap     = 64
	chainTimeout = 300 * time.Millisecond
	// Tight per-host budget: the trace's fat replies overrun it, so the
	// over-rate clips are part of the compared behavior.
	chainPolRate  = 2000 // bytes/second
	chainPolBurst = 1600 // bytes
)

// gateway is one build of the home-gateway chain, with its four cores.
type gateway struct {
	fw    *firewall.Firewall
	pol   *policer.Policer
	lb    *lb.Balancer
	nat   *nat.NAT
	chain *nf.Chain
}

// decls returns the gateway's four declarations for its own cores, as
// shipped or with every Prefetch hook stripped.
func (g *gateway) decls(t *testing.T, clock libvig.Clock, prefetch bool) (nfkit.Decl[*firewall.Firewall], nfkit.Decl[*policer.Policer], nfkit.Decl[*lb.Balancer], nfkit.Decl[*nat.NAT]) {
	t.Helper()
	fwD := firewall.Kit(chainCap, chainTimeout, clock)
	polD := policer.Kit(g.pol.Config(), clock)
	lbD := lb.Kit(g.lb.Config(), clock)
	natD := nat.Kit(g.nat.Config(), clock)
	if fwD.Prefetch == nil || lbD.Prefetch == nil || natD.Prefetch == nil {
		t.Fatal("a DoubleMap-backed NF declares no Prefetch hook")
	}
	if !prefetch {
		fwD.Prefetch, polD.Prefetch, lbD.Prefetch, natD.Prefetch = nil, nil, nil, nil
	}
	return fwD, polD, lbD, natD
}

// catalogGateway builds the gateway the daemon serves (`vignat -nf
// gateway`): the catalog row's chain of four 1-shard compositions, at a
// 64-entry table, a short timeout, four resolvers and a tight budget.
func catalogGateway(t *testing.T, clock libvig.Clock) *gateway {
	t.Helper()
	o := catalog.Defaults()
	o.Capacity, o.Timeout, o.Backends, o.Rate, o.Bucket = chainCap, chainTimeout, 4, chainPolRate, chainPolBurst
	row, _ := catalog.Find(catalog.Rows, "gateway")
	served, err := row.New(o, clock)
	if err != nil {
		t.Fatal(err)
	}
	chain := served.NF.(*nf.Chain)
	el := chain.Elems()
	return &gateway{fw: el[0].(*firewall.Sharded).Core(0), pol: el[1].(*policer.Sharded).Core(0),
		lb: el[2].(*lb.Sharded).Core(0), nat: el[3].(*nat.Sharded).Core(0), chain: chain}
}

// adaptedGateway builds the gateway at the catalog row's configuration,
// from fresh cores adapted from their declarations as shipped or with
// the Prefetch hooks stripped: the chain the benchmarks time.
func adaptedGateway(t *testing.T, clock libvig.Clock, prefetch bool) *gateway {
	t.Helper()
	served := catalogGateway(t, clock)
	g := &gateway{}
	var err error
	if g.fw, err = firewall.New(chainCap, chainTimeout, clock); err != nil {
		t.Fatal(err)
	}
	if g.pol, err = policer.New(served.pol.Config(), clock); err != nil {
		t.Fatal(err)
	}
	if g.lb, err = lb.New(served.lb.Config(), clock); err != nil {
		t.Fatal(err)
	}
	for i := range 4 {
		if _, err := g.lb.AddBackend(flow.MakeAddr(9, 9, 9, byte(9+i)), clock.Now()); err != nil {
			t.Fatal(err)
		}
	}
	if g.nat, err = nat.New(served.nat.Config(), clock); err != nil {
		t.Fatal(err)
	}
	fwD, polD, lbD, natD := g.decls(t, clock, prefetch)
	if g.chain, err = nf.NewChain("homegw", fwD.Adapt(g.fw), polD.Adapt(g.pol), lbD.Adapt(g.lb), natD.Adapt(g.nat)); err != nil {
		t.Fatal(err)
	}
	return g
}

// gatewayTrace is the gateway rows' trace: eight hosts, each with a web
// flow and a query to the resolver VIP, in bursts of up to eight, with
// replies, strays at the external address, ICMP the firewall drops, fat
// payloads that make the policer's budget bite, and the clock jumping
// past every NF's timeout one burst in 29.
func gatewayTrace(seed int64, steps int) nfkittest.Trace {
	pool := clients(8, 3, 1)
	for h := range 8 {
		pool = append(pool, flow.ID{SrcIP: flow.MakeAddr(10, 0, 0, byte(1+h)), SrcPort: uint16(30000 + h),
			DstIP: catalog.ResolverVIP, DstPort: catalog.ResolverPort, Proto: flow.UDP})
	}
	return nfkittest.Trace{
		Seed: seed, Steps: steps, Burst: 8, Clients: pool, ClientsInternal: true,
		Texp: chainTimeout, Tick: 6, Jump: 29, Payload: 1400,
		Mix: nfkittest.Mix{Client: 3, Reply: 3, Stray: 1, ICMP: 1},
	}
}

// TestPrefetchObservationallyPureChain is the gateway's half of the
// purity argument (see TestPrefetchObservationallyPureNAT): firewall,
// balancer and NAT each prefetch for the sub-burst the element before
// them let through, and stripping all three hooks must change nothing.
// The third subject is the gateway the daemon serves, four 1-shard
// compositions in a chain: it must match the adapters' chain byte for
// byte, and all three must end in the same state, NF by NF.
func TestPrefetchObservationallyPureChain(t *testing.T) {
	clock := libvig.NewVirtualClock(0)
	gws := []*gateway{adaptedGateway(t, clock, true), adaptedGateway(t, clock, false), catalogGateway(t, clock)}
	rigs := make([]*nfkittest.Rig, len(gws))
	for i, g := range gws {
		rigs[i] = newRig(t, g.chain, clock, nf.Config{})
	}
	play(t, clock, gatewayTrace(131, 1200), rigs, nil, nil)
	ref := gws[0]
	for _, g := range gws[1:] {
		fwD, polD, lbD, natD := g.decls(t, clock, true)
		sameFinalState(t, "firewall", fwD, ref.fw, g.fw)
		sameFinalState(t, "policer", polD, ref.pol, g.pol)
		sameFinalState(t, "lb", lbD, ref.lb, g.lb)
		sameFinalState(t, "nat", natD, ref.nat, g.nat)
	}
	// The churn must actually have exercised every NF's expiry.
	natSt, polSt, lbSt := ref.nat.Stats(), ref.pol.Stats(), ref.lb.Stats()
	if natSt.FlowsExpired == 0 || polSt.BucketsExpired == 0 || lbSt.FlowsExpired == 0 || ref.fw.Expired() == 0 {
		t.Fatalf("churn too weak: nat expired %d, pol expired %d, lb expired %d, fw expired %d",
			natSt.FlowsExpired, polSt.BucketsExpired, lbSt.FlowsExpired, ref.fw.Expired())
	}
	if polSt.DroppedOverRate == 0 {
		t.Fatalf("policer never clipped; fatten the replies")
	}
}
