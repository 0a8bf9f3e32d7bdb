// Fast-path conformance: the established-flow cache must be invisible
// to every observer except the cycle counter. Each test here drives one
// randomized trace through a cached and an uncached engine in lock-step,
// demands byte-identical outputs and, where an executable spec oracle
// applies, judges the cached engine's outputs against it directly, so
// "cache on" is pinned to the paper's semantics and not merely to "cache
// off". Traces include the two invalidation families: expiry churn
// (quiet spells past Texp) and control-plane drains (backend removal
// mid-run).
package spec_test

import (
	"testing"
	"time"

	"vignat/internal/firewall"
	"vignat/internal/flow"
	"vignat/internal/lb"
	"vignat/internal/libvig"
	"vignat/internal/nat"
	"vignat/internal/nf"
	"vignat/internal/nf/nfkit/nfkittest"
	"vignat/internal/policer"
	"vignat/internal/vigor/spec"
)

// onOff builds two NFs with mk, the first on an engine caching 1024
// flows, the second on one caching none.
func onOff[N nf.NF](t *testing.T, clock libvig.Clock, mk func() (N, error)) ([2]N, []*nfkittest.Rig) {
	t.Helper()
	var nfs [2]N
	rigs := make([]*nfkittest.Rig, 2)
	for i, fastPath := range []int{1024, 0} {
		var err error
		if nfs[i], err = mk(); err != nil {
			t.Fatal(err)
		}
		rigs[i] = newRig(t, nfs[i], clock, nf.Config{FastPath: fastPath})
	}
	return nfs, rigs
}

// exercisedCache fails unless the cached engine hit and evicted.
func exercisedCache(t *testing.T, r *nfkittest.Rig) {
	t.Helper()
	if ps := r.Engine.Stats(); ps.FastPathHits == 0 || ps.FastPathEvictions == 0 {
		t.Fatalf("trace never exercised the cache: %+v", ps)
	}
}

// TestFastPathNATConformanceOracle is the NAT leg: one packet a poll,
// so that the oracle's per-step expiry matches the engine's, through 48
// flows contending for 32 sessions, with repeats (cache hits), replies,
// strays and the clock jumping past the timeout one step in 31.
func TestFastPathNATConformanceOracle(t *testing.T) {
	clock := libvig.NewVirtualClock(0)
	nats, rigs := onOff(t, clock, func() (*nat.Sharded, error) {
		return nat.NewSharded(natConfig(confCap, confTimeout), clock, 1)
	})
	tr := natTrace(97, 4000, clients(48, 5, 3))
	tr.Jump = 31
	play(t, clock, tr, rigs, natJudge(natOracle(confCap, confTimeout)), nil)
	if a, b := nats[0].Stats(), nats[1].Stats(); a != b {
		t.Fatalf("NAT counters diverged\ncached   %+v\nuncached %+v", a, b)
	}
	exercisedCache(t, rigs[0])
	if nats[0].Stats().FlowsExpired == 0 {
		t.Fatal("trace never exercised expiry")
	}
}

// TestFastPathPolicerConformanceOracle is the policer leg: fat ingress
// against a tight per-subscriber budget, in trains on one tuple, so that
// over-rate clips land on cache hits too (a fast-path hit re-runs the
// real charge — rate limiting is never bypassed), plus egress
// passthrough, runts and expiry churn, judged by the token-bucket
// oracle.
func TestFastPathPolicerConformanceOracle(t *testing.T) {
	const rate, burst, texp = 2000, 1600, 300 * time.Millisecond
	clock := libvig.NewVirtualClock(0)
	pols, rigs := onOff(t, clock, func() (*policer.Sharded, error) {
		return policer.NewSharded(policer.Config{Rate: rate, Burst: burst, Capacity: 1024, Timeout: texp}, clock, 1)
	})
	tr := nfkittest.Trace{
		Seed: 53, Steps: 900, Burst: 9, Clients: subscribers(24, 2), Texp: texp, Tick: 8, Jump: 29, Payload: 1200,
		Mix: nfkittest.Mix{Client: 5, Train: 2, Reply: 1, Runt: 2},
	}
	play(t, clock, tr, rigs, policerJudge(spec.NewPolicerOracle(rate, burst, 0, texp.Nanoseconds()), nil), nil)
	if a, b := pols[0].Stats(), pols[1].Stats(); a != b {
		t.Fatalf("policer counters diverged\ncached   %+v\nuncached %+v", a, b)
	}
	if rigs[0].Engine.Stats().FastPathHits == 0 {
		t.Fatal("trace never hit the cache")
	}
	if st := pols[0].Stats(); st.DroppedOverRate == 0 || st.BucketsExpired == 0 {
		t.Fatalf("trace too gentle: %+v", st)
	}
}

// TestFastPathPolicerOverRateOnHit pins the non-negotiable property in
// isolation: once a subscriber's flow is cached, an over-budget packet
// of that very flow is a cache HIT that still DROPS — the fast path
// re-charges the real bucket, it never short-circuits the meter.
func TestFastPathPolicerOverRateOnHit(t *testing.T) {
	clock := libvig.NewVirtualClock(0)
	pol, err := policer.NewSharded(policer.Config{Rate: 1000, Burst: 2000, Capacity: 64, Timeout: time.Hour}, clock, 1)
	if err != nil {
		t.Fatal(err)
	}
	r := newRig(t, pol, clock, nf.Config{FastPath: 256})
	id := subscribers(1, 1)[0]
	send := func(payload int) bool {
		_, forwarded := one(t, r, id, false, payload, clock.Now())
		return forwarded
	}
	// Two small packets admit + install; the third is a hit.
	for range 3 {
		if !send(4) {
			t.Fatal("small packet clipped unexpectedly")
		}
	}
	hitsBefore := r.Engine.Stats().FastPathHits
	if hitsBefore == 0 {
		t.Fatal("flow never entered the cache")
	}
	// Exhaust the bucket with fat packets on the SAME tuple: each is a
	// cache hit; once the budget is gone they must drop.
	var dropped, droppedOnHit int
	for range 8 {
		forwarded := send(1000)
		hits := r.Engine.Stats().FastPathHits
		if !forwarded {
			dropped++
			if hits > hitsBefore {
				droppedOnHit++
			}
		}
		hitsBefore = hits
	}
	if dropped == 0 || droppedOnHit == 0 {
		t.Fatalf("%d over-rate drops, %d of them on a cache hit", dropped, droppedOnHit)
	}
	if st := pol.Stats(); st.DroppedOverRate != uint64(dropped) {
		t.Fatalf("DroppedOverRate=%d, observed %d drops", st.DroppedOverRate, dropped)
	}
}

// TestFastPathLBConformanceDrain is the drain-invalidation leg: VIP
// traffic from 32 clients, their backends' replies and junk through a
// balancer with passthrough on (non-VIP traffic is forwarded by
// configuration alone, the one outcome the cache may hold guard-free),
// with backends removed at steps 300 and 600 and one re-added at 450,
// and expiry spells between. Every sticky flow pinned to a removed
// backend is erased, so its cached rewrite must die: the LB oracle
// names any stale rewrite to a dead backend.
func TestFastPathLBConformanceDrain(t *testing.T) {
	const texp = 400 * time.Millisecond
	clock := libvig.NewVirtualClock(0)
	cfg := lb.Config{VIP: lbVIP, VIPPort: lbVIPPort, Capacity: 256, Timeout: texp, MaxBackends: 8, Passthrough: true}
	lbs, rigs := onOff(t, clock, func() (*lb.Sharded, error) { return lb.NewSharded(cfg, clock, 1) })
	o := spec.NewLBOracle(lbVIP, lbVIPPort, 256, texp.Nanoseconds(), true)
	backends := backendSet(t, clock, lbs[:], o, 6, 6)
	tr := nfkittest.Trace{
		Seed: 71, Steps: 900, Burst: 7, Clients: lbClients(32, 172, 16, 0), Texp: texp, Tick: 8, Jump: 37,
		Mix: nfkittest.Mix{Client: 3, Reply: 1, Junk: 1},
	}
	play(t, clock, tr, rigs, lbJudge(o), func(step int) {
		switch step {
		case 300, 600:
			backends.remove(t, backends.ips[step/300-1])
		case 450:
			backends.add(t, backends.ips[0])
		}
	})
	if a, b := lbs[0].Stats(), lbs[1].Stats(); a != b {
		t.Fatalf("LB counters diverged\ncached   %+v\nuncached %+v", a, b)
	}
	exercisedCache(t, rigs[0])
	if st := lbs[0].Stats(); st.FlowsUnpinned == 0 || st.FlowsExpired == 0 {
		t.Fatalf("trace never exercised drain+expiry: %+v", st)
	}
}

// TestFastPathFirewallConformance is the firewall leg: the membership
// NF whose fast path caches an identity rewrite, where the property
// that matters most is negative — once a session expires, a cached
// inbound verdict MUST miss (the fpGens guard), or the firewall
// forwards unsolicited external traffic forever. The trace mixes
// outbound repeats (hit traffic), replies cached in their own right,
// full-table drops (24 flows against 16 sessions), strays, and expiry
// spells; the engines must end on identical counters.
func TestFastPathFirewallConformance(t *testing.T) {
	const texp = 300 * time.Millisecond
	clock := libvig.NewVirtualClock(0)
	fws, rigs := onOff(t, clock, func() (*firewall.Sharded, error) { return firewall.NewSharded(16, texp, clock, 1) })
	tr := nfkittest.Trace{
		Seed: 31, Steps: 900, Burst: 8, Clients: clients(24, 3, 2), ClientsInternal: true, Texp: texp, Tick: 8, Jump: 29,
		Mix: nfkittest.Mix{Client: 3, Reply: 2, Stray: 1},
	}
	play(t, clock, tr, rigs, nil, nil)
	on, off := fws[0].ShardFirewall(0), fws[1].ShardFirewall(0)
	onProc, onDrop := on.Stats()
	offProc, offDrop := off.Stats()
	if onProc != offProc || onDrop != offDrop || on.Expired() != off.Expired() {
		t.Fatalf("firewall counters diverged\ncached   proc=%d drop=%d exp=%d\nuncached proc=%d drop=%d exp=%d",
			onProc, onDrop, on.Expired(), offProc, offDrop, off.Expired())
	}
	onLive, _ := fws[0].Occupancy("sessions")
	if offLive, _ := fws[1].Occupancy("sessions"); onLive != offLive {
		t.Fatalf("session counts diverged: cached %d, uncached %d", onLive, offLive)
	}
	exercisedCache(t, rigs[0])
	if on.Expired() == 0 || onDrop == 0 {
		t.Fatalf("trace too gentle: drops=%d expired=%d", onDrop, on.Expired())
	}
}

// TestFastPathGatewayChainConformance covers the composite case: the
// firewall→policer→LB→NAT home-gateway chain. An nf.Chain does not
// implement the fast-path contract (one cached verdict cannot carry
// the per-element guards a four-NF walk depends on), so the engine
// must resolve a requested cache down to none — declining is the
// conservative, correct posture — and the trace, including a backend
// drain at step 250 and expiry spells, must stay bit-identical with an
// explicitly disabled engine.
func TestFastPathGatewayChainConformance(t *testing.T) {
	clock := libvig.NewVirtualClock(0)
	gws := []*gateway{adaptedGateway(t, clock, true), adaptedGateway(t, clock, true)}
	rigs := []*nfkittest.Rig{newRig(t, gws[0].chain, clock, nf.Config{FastPath: 4096}), newRig(t, gws[1].chain, clock, nf.Config{})}
	if n := rigs[0].Engine.FastPathEntries(); n != 0 {
		t.Fatalf("composite chain must decline the cache, resolved %d entries", n)
	}
	play(t, clock, gatewayTrace(23, 500), rigs, nil, func(step int) {
		if step == 250 {
			for _, g := range gws {
				if err := g.lb.RemoveBackend(0); err != nil {
					t.Fatal(err)
				}
			}
		}
	})
	if a, b := gws[0].nat.Stats(), gws[1].nat.Stats(); a != b {
		t.Fatalf("chain NAT counters diverged\ncached   %+v\nuncached %+v", a, b)
	}
	if a, b := gws[0].lb.Stats(), gws[1].lb.Stats(); a != b {
		t.Fatalf("chain LB counters diverged\ncached   %+v\nuncached %+v", a, b)
	}
	if rigs[0].Engine.Stats().FastPathHits != 0 {
		t.Fatal("a declined cache must never record hits")
	}
}

// subscribers is a universe of n ingress tuples from one remote server
// to subscribers in 10.0.0.0/16, their protocols cycling through the
// first protos of UDP, TCP and ICMP.
func subscribers(n, protos int) []flow.ID {
	ids := make([]flow.ID, n)
	for i := range ids {
		ids[i] = flow.ID{
			SrcIP: flow.MakeAddr(198, 51, 100, 7), SrcPort: 443,
			DstIP: flow.MakeAddr(10, 0, byte(1+i/200), byte(10+i%200)), DstPort: uint16(50000 + i),
			Proto: [3]flow.Protocol{flow.UDP, flow.TCP, flow.ICMP}[i%protos],
		}
	}
	return ids
}
