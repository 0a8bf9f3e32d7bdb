// Prefetch purity on the firewall→policer→LB→NAT home-gateway chain:
// the same randomized gateway trace through N chains under lock-step
// virtual clocks must produce bit-identical outputs (port and full
// frame bytes, so every NAT and VIP rewrite is compared too), identical
// final state in all four NFs, and identical counters.
package spec_test

import (
	"encoding/binary"
	"math/rand"
	"testing"
	"time"

	"vignat/internal/catalog"
	"vignat/internal/dpdk"
	"vignat/internal/firewall"
	"vignat/internal/flow"
	"vignat/internal/lb"
	"vignat/internal/libvig"
	"vignat/internal/nat"
	"vignat/internal/netstack"
	"vignat/internal/nf"
	"vignat/internal/nf/nfkit"
	"vignat/internal/policer"
)

const (
	chainCap     = 64
	chainTimeout = 300 * time.Millisecond
	chainDNSPort = catalog.ResolverPort
	// Tight per-host budget: the scripted replies overrun it, so the
	// over-rate clips are part of the compared behavior.
	chainPolRate  = 2000 // bytes/second
	chainPolBurst = 1600 // bytes
)

var chainVIP = catalog.ResolverVIP

// chainRig is one configuration's complete gateway stand.
type chainRig struct {
	name    string
	clock   *libvig.VirtualClock
	fw      *firewall.Firewall
	pol     *policer.Policer
	lb      *lb.Balancer
	nat     *nat.NAT
	pipe    *nf.Pipeline
	intPort *dpdk.Port
	extPort *dpdk.Port
	pool    *dpdk.Mempool
}

// decls returns the gateway's four declarations for the rig's own
// cores, as shipped or with every Prefetch hook stripped.
func (r *chainRig) decls(t *testing.T, prefetch bool) (nfkit.Decl[*firewall.Firewall], nfkit.Decl[*policer.Policer], nfkit.Decl[*lb.Balancer], nfkit.Decl[*nat.NAT]) {
	t.Helper()
	fwD := firewall.Kit(chainCap, chainTimeout, r.clock)
	polD := policer.Kit(r.pol.Config(), r.clock)
	lbD := lb.Kit(r.lb.Config(), r.clock)
	natD := nat.Kit(r.nat.Config(), r.clock)
	if fwD.Prefetch == nil || lbD.Prefetch == nil || natD.Prefetch == nil {
		t.Fatal("a DoubleMap-backed NF declares no Prefetch hook")
	}
	if !prefetch {
		fwD.Prefetch, polD.Prefetch, lbD.Prefetch, natD.Prefetch = nil, nil, nil, nil
	}
	return fwD, polD, lbD, natD
}

// catalogChainRig builds the gateway the daemon serves (`vignat -nf
// gateway`): the catalog row's chain of four 1-shard compositions, at
// a 64-entry table, a short timeout, four resolvers and a tight budget.
func catalogChainRig(t *testing.T) (*chainRig, *nf.Chain) {
	t.Helper()
	o := catalog.Defaults()
	o.Capacity, o.Timeout, o.Backends, o.Rate, o.Bucket = chainCap, chainTimeout, 4, chainPolRate, chainPolBurst
	row, _ := catalog.Find(catalog.Rows, "gateway")
	clock := libvig.NewVirtualClock(0)
	run, err := row.New(o, clock)
	if err != nil {
		t.Fatal(err)
	}
	chain := run.NF.(*nf.Chain)
	el := chain.Elems()
	return &chainRig{name: "catalog", clock: clock,
		fw: el[0].(*firewall.Sharded).Core(0), pol: el[1].(*policer.Sharded).Core(0),
		lb: el[2].(*lb.Sharded).Core(0), nat: el[3].(*nat.Sharded).Core(0)}, chain
}

// buildChainRig builds the gateway at the catalog row's configuration,
// from fresh cores adapted from their declarations as shipped or with
// the Prefetch hooks stripped: the chain the benchmarks time.
func buildChainRig(t *testing.T, fastPath int, prefetch bool) *chainRig {
	t.Helper()
	served, _ := catalogChainRig(t)
	clock := served.clock
	fw, err := firewall.New(chainCap, chainTimeout, clock)
	if err != nil {
		t.Fatal(err)
	}
	pol, err := policer.New(served.pol.Config(), clock)
	if err != nil {
		t.Fatal(err)
	}
	gwLB, err := lb.New(served.lb.Config(), clock)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := gwLB.AddBackend(flow.MakeAddr(9, 9, 9, byte(9+i)), clock.Now()); err != nil {
			t.Fatal(err)
		}
	}
	gwNAT, err := nat.New(served.nat.Config(), clock)
	if err != nil {
		t.Fatal(err)
	}
	r := &chainRig{name: rigName(prefetch), clock: clock, fw: fw, pol: pol, lb: gwLB, nat: gwNAT}
	fwD, polD, lbD, natD := r.decls(t, prefetch)
	chain, err := nf.NewChain("homegw",
		fwD.Adapt(fw), polD.Adapt(pol), lbD.Adapt(gwLB), natD.Adapt(gwNAT))
	if err != nil {
		t.Fatal(err)
	}
	r.serve(t, chain, fastPath)
	return r
}

// serve puts chain behind the rig's engine on in-memory ports.
func (r *chainRig) serve(t *testing.T, chain *nf.Chain, fastPath int) {
	t.Helper()
	pool, err := dpdk.NewMempool(512)
	if err != nil {
		t.Fatal(err)
	}
	intPort, err := dpdk.NewPort(0, dpdk.DefaultRxQueue, dpdk.DefaultTxQueue, pool)
	if err != nil {
		t.Fatal(err)
	}
	extPort, err := dpdk.NewPort(1, dpdk.DefaultRxQueue, dpdk.DefaultTxQueue, pool)
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := nf.NewPipeline(chain, nf.Config{
		Internal: intPort,
		External: extPort,
		Clock:    r.clock,
		FastPath: fastPath,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.pipe, r.intPort, r.extPort, r.pool = pipe, intPort, extPort, pool
}

// chainObserved is one output, keyed by its sequence tag: which side it
// left on and its exact bytes (every rewrite included).
type chainObserved struct {
	toExternal bool
	frame      string
}

func (r *chainRig) pollAndDrain(t *testing.T, drain []*dpdk.Mbuf) map[uint32]chainObserved {
	t.Helper()
	if _, err := r.pipe.Poll(); err != nil {
		t.Fatal(err)
	}
	out := map[uint32]chainObserved{}
	for _, port := range []*dpdk.Port{r.intPort, r.extPort} {
		for {
			k := port.DrainTx(drain)
			if k == 0 {
				break
			}
			for i := 0; i < k; i++ {
				out[lbReadSeq(t, drain[i].Data)] = chainObserved{
					toExternal: port == r.extPort,
					frame:      string(drain[i].Data),
				}
				if err := drain[i].Pool().Free(drain[i]); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return out
}

// TestPrefetchObservationallyPureChain is the gateway's half of the
// purity argument (see TestPrefetchObservationallyPureNAT): firewall,
// balancer and NAT each prefetch for the sub-burst the element before
// them let through, and stripping all three hooks must change nothing.
// The third rig is the gateway the daemon serves, four 1-shard
// compositions in a chain: it must match the adapters' chain byte for
// byte.
func TestPrefetchObservationallyPureChain(t *testing.T) {
	served, chain := catalogChainRig(t)
	served.serve(t, chain, nf.FastPathDisabled)
	runChainTrace(t, []*chainRig{
		buildChainRig(t, nf.FastPathDisabled, true), buildChainRig(t, nf.FastPathDisabled, false), served,
	}, 8)
}

// runChainTrace drives every rig through one randomized gateway trace
// of at most maxBurst packets a poll (one per host) under lock-step
// virtual clocks. Every rig must match rigs[0] byte for byte and in the
// final state of all four NFs.
func runChainTrace(t *testing.T, rigs []*chainRig, maxBurst int) {
	ref := rigs[0]

	const nHosts = 8
	type flowKey struct {
		host int
		dns  bool
	}
	// lastExt[k] is flow k's translated tuple as last observed leaving
	// the reference rig (the rigs must agree on it — checked every
	// poll — so replies crafted against it are valid on all).
	lastExt := map[flowKey]flow.ID{}

	outboundID := func(h int, dns bool) flow.ID {
		if dns {
			return flow.ID{
				SrcIP:   flow.MakeAddr(10, 0, 0, byte(1+h)),
				SrcPort: uint16(30000 + h),
				DstIP:   chainVIP,
				DstPort: chainDNSPort,
				Proto:   flow.UDP,
			}
		}
		proto := flow.UDP
		if h%2 == 0 {
			proto = flow.TCP
		}
		return flow.ID{
			SrcIP:   flow.MakeAddr(10, 0, 0, byte(1+h)),
			SrcPort: uint16(20000 + h),
			DstIP:   flow.MakeAddr(93, 184, 216, byte(1+h%3)),
			DstPort: 80,
			Proto:   proto,
		}
	}

	rng := rand.New(rand.NewSource(131))
	buf := make([]byte, 2048)
	drain := make([]*dpdk.Mbuf, 64)
	var seq uint32
	var payload [4]byte
	total := 0

	for iter := 0; iter < 1200; iter++ {
		if rng.Intn(29) == 0 {
			// Expiry churn: a quiet spell past Texp ages every NF's
			// state out — flows, sessions, sticky entries, buckets.
			for _, r := range rigs {
				r.clock.Advance(libvig.Time(2 * chainTimeout.Nanoseconds()))
			}
		} else {
			d := libvig.Time(rng.Intn(int(chainTimeout.Nanoseconds() / 6)))
			for _, r := range rigs {
				r.clock.Advance(d)
			}
		}
		for _, r := range rigs {
			if r.clock.Now() != ref.clock.Now() {
				t.Fatal("virtual clocks diverged")
			}
		}

		type delivery struct {
			key          flowKey
			outbound     bool
			fromInternal bool
			seq          uint32
		}
		var deliveries []delivery
		usedHost := map[int]bool{}
		burst := 1 + rng.Intn(maxBurst)
		if iter%89 == 88 {
			burst = 0 // idle poll: only the expiry sweeps run
		}
		for p := 0; p < burst; p++ {
			h := rng.Intn(nHosts)
			if usedHost[h] {
				continue
			}
			usedHost[h] = true
			seq++
			k := flowKey{host: h, dns: rng.Intn(3) == 0}
			d := delivery{key: k, seq: seq}
			var id flow.ID
			payloadLen := 4
			switch rng.Intn(8) {
			case 0, 1, 2: // outbound
				id, d.outbound, d.fromInternal = outboundID(h, k.dns), true, true
			case 3, 4, 5: // download reply against the last observed translation
				ext, ok := lastExt[k]
				if !ok {
					id, d.outbound, d.fromInternal = outboundID(h, k.dns), true, true
					break
				}
				id = ext.Reverse()
				// Fat replies make the policer's budget bite: the
				// over-rate clips must land identically on every rig.
				payloadLen = 4 + rng.Intn(1400)
			case 6: // unsolicited external junk (dropped by the NAT)
				id = flow.ID{
					SrcIP:   flow.MakeAddr(203, 0, 113, byte(rng.Intn(250))),
					SrcPort: uint16(1024 + rng.Intn(60000)),
					DstIP:   extIP,
					DstPort: uint16(int(ref.nat.Config().PortBase) - 5 + rng.Intn(chainCap+15)), // live ports, free ones, and both sides of the range
					Proto:   flow.UDP,
				}
			case 7: // non-NATable outbound (dropped by the firewall)
				id, d.fromInternal = outboundID(h, false), true
				id.Proto = flow.ICMP
			}
			binary.BigEndian.PutUint32(payload[:], d.seq)
			s := &netstack.FrameSpec{ID: id, PayloadLen: payloadLen, Payload: payload[:]}
			frame := netstack.Craft(buf[:netstack.FrameLen(s)], s)
			for _, r := range rigs {
				port := r.intPort
				if !d.fromInternal {
					port = r.extPort
				}
				if !port.DeliverRx(frame, r.clock.Now()) {
					t.Fatal("RX queue rejected a frame")
				}
			}
			deliveries = append(deliveries, d)
			total++
		}

		outRef := ref.pollAndDrain(t, drain)

		// Every rig's observable behavior is identical, packet for
		// packet, byte for byte.
		for _, r := range rigs[1:] {
			out := r.pollAndDrain(t, drain)
			if len(outRef) != len(out) {
				t.Fatalf("iter %d: %s forwarded %d, %s %d", iter, ref.name, len(outRef), r.name, len(out))
			}
			for s, o := range outRef {
				if other, ok := out[s]; !ok || o != other {
					t.Fatalf("iter %d seq %d: outputs diverged\n%s ext=%v % x\n%s forwarded=%v ext=%v % x",
						iter, s, ref.name, o.toExternal, o.frame, r.name, ok, other.toExternal, other.frame)
				}
			}
		}

		// Track translations for crafting replies.
		for _, d := range deliveries {
			if !d.outbound {
				continue
			}
			if o, ok := outRef[d.seq]; ok && o.toExternal {
				var p netstack.Packet
				if err := p.Parse([]byte(o.frame)); err != nil {
					t.Fatal(err)
				}
				lastExt[d.key] = p.FlowID()
			}
		}
	}

	if total < 3000 {
		t.Fatalf("only %d packets driven", total)
	}
	// Final state and counters agree across rigs, NF by NF: every table
	// entry with its stamp, every counter, every reason count.
	for _, r := range rigs[1:] {
		what := ref.name + " vs " + r.name
		fwD, polD, lbD, natD := r.decls(t, true)
		sameFinalState(t, what+": firewall", fwD, ref.fw, r.fw)
		sameFinalState(t, what+": policer", polD, ref.pol, r.pol)
		sameFinalState(t, what+": lb", lbD, ref.lb, r.lb)
		sameFinalState(t, what+": nat", natD, ref.nat, r.nat)
	}
	// The churn must actually have exercised every NF's expiry.
	natStats, polStats, lbStats := ref.nat.Stats(), ref.pol.Stats(), ref.lb.Stats()
	if natStats.FlowsExpired == 0 || polStats.BucketsExpired == 0 || lbStats.FlowsExpired == 0 ||
		ref.fw.Expired() == 0 {
		t.Fatalf("churn too weak: nat expired %d, pol expired %d, lb expired %d, fw expired %d",
			natStats.FlowsExpired, polStats.BucketsExpired, lbStats.FlowsExpired, ref.fw.Expired())
	}
	if polStats.DroppedOverRate == 0 {
		t.Fatalf("policer never clipped; fatten the replies")
	}
	for _, r := range rigs {
		if r.pool.InUse() != 0 {
			t.Fatalf("mbuf leak: %d in use", r.pool.InUse())
		}
	}
	t.Logf("chain equivalence: %d packets; nat %+v; pol %+v", total, natStats, polStats)
}
