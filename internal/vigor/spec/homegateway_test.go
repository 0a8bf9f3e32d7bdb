// The home gateway, end to end: the workload the paper's introduction
// motivates — a home router carrying a mix of long-lived TCP sessions
// (streaming), short UDP exchanges (DNS), idle flows that must expire,
// and unsolicited outside traffic, all behind one external IP — through
// the chain vignat -nf gateway serves (firewall → policer → LB → NAT,
// built by the catalog row's own constructor).
//
// The balancer fronts a resolver VIP for the home network (clients
// internal, upstream resolvers external, passthrough for everything
// else), and the policer enforces a per-host download budget on the
// translated return traffic — on the internal→external axis it sits
// just behind the firewall, so inbound packets reach it after the NAT
// has translated them back and the balancer has restored the VIP, which
// is exactly when the destination names the subscriber to charge. Every
// observable NAT action is cross-checked against the executable RFC
// 3022 specification (for VIP flows, against the balancer-resolved
// tuple), the balancer's contract is asserted inline, and the policer is
// mirrored by its own spec oracle: a mid-run download surge must be
// clipped on exactly the packets the budget law names, while everything
// else stays conforming — so the chain remains RFC 3022-oracle-clean end
// to end. This is the only check of the whole chain against all three
// oracles.
//
// The chain runs as a single run-to-completion worker driven lock-step
// (Pipeline.Poll) so the oracles can observe one packet at a time; the
// chain still gets element-pass batching inside each burst.
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
	"vignat/internal/nat/stateless"
	"vignat/internal/nf"
	"vignat/internal/nf/nfkit/nfkittest"
	"vignat/internal/policer"
	"vignat/internal/vigor/spec"
)

func TestHomeGatewayOracleClean(t *testing.T) {
	const (
		nHosts  = 8
		texp    = 2 * time.Second
		simTime = 30 * time.Second

		// Per-host download budget: generous against the scripted
		// workload (~400 B/s per host), tight against the surge.
		polRate  = 2000 // bytes/second
		polBurst = 4000 // bytes
	)
	o := catalog.Defaults()
	o.Capacity, o.Timeout, o.Backends, o.Rate, o.Bucket = 1024, texp, 4, polRate, polBurst
	row, _ := catalog.Find(catalog.Rows, "gateway")
	clock := libvig.NewVirtualClock(0)
	run, err := row.New(o, clock)
	if err != nil {
		t.Fatal(err)
	}
	chain := run.NF.(*nf.Chain)
	elems := chain.Elems()
	fw, pol, bal, gwNAT := elems[0].(*firewall.Sharded), elems[1].(*policer.Sharded), elems[2].(*lb.Sharded), elems[3].(*nat.Sharded)

	// The upstream resolver pool the VIP fronts.
	resolverIdx := map[flow.Addr]int{}
	for i := 0; i < o.Backends; i++ {
		ip, live := bal.Backend(i)
		if !live {
			t.Fatalf("resolver %d not live", i)
		}
		resolverIdx[ip] = i
	}

	r := newRig(t, chain, clock, nf.Config{})

	oracle := spec.NewOracle(o.Capacity, texp.Nanoseconds(), catalog.ExtIP, nat.DefaultPortBase, o.Capacity)
	polOracle := spec.NewPolicerOracle(polRate, polBurst, 0, texp.Nanoseconds())

	dns := flow.ID{DstIP: catalog.ResolverVIP, DstPort: catalog.ResolverPort, Proto: flow.UDP} // hosts query the VIP, not a resolver
	video := flow.ID{DstIP: flow.MakeAddr(151, 101, 1, 1), DstPort: 443, Proto: flow.TCP}

	type counters struct{ sent, dropped, policed int }
	var c counters
	isResolver := func(a flow.Addr) bool {
		_, ok := resolverIdx[a]
		return ok
	}

	// process pushes one packet through the gateway chain via the
	// engine, watches which port it leaves on, checks the observation
	// against the RFC 3022 oracle, and returns the translated tuple
	// (zero on drop). VIP-bound flows are resolved by the balancer
	// before the NAT sees them, so the oracle is fed the post-LB tuple
	// (learned from the output, after checking it names a live
	// resolver); resolver replies have their source restored to the
	// VIP by the balancer *after* the NAT, so the oracle sees the
	// un-restored source while the restoration itself is asserted here.
	//
	// inward, when non-zero, is the post-NAT tuple an external packet
	// must be translated to (the harness knows it from the session it
	// crafted the reply against). Such a packet reaches the policer —
	// last before the firewall on the inbound axis — and the policer
	// oracle adjudicates it: a conforming packet must come through, an
	// over-budget one must be clipped. A clipped packet is still a NAT
	// forward (the drop happens downstream), so the RFC 3022 oracle is
	// stepped with the reconstructed NAT output, and the clip is
	// charged to the policer's books, which are audited at the end.
	process := func(id flow.ID, fromInternal bool, payload int, inward flow.ID) flow.ID {
		obs, err := natObserved(one(t, r, id, fromInternal, payload, clock.Now()))
		if err != nil {
			t.Fatal(err)
		}
		wire := len(nfkittest.Frame(id, payload, 0))

		expectedInward := !fromInternal && inward != (flow.ID{})
		if expectedInward {
			// The policer oracle adjudicates every packet that reaches
			// the policer stage: the budget decides, and the chain's
			// observable outcome must match it.
			got := policer.VerdictConform
			if obs.Verdict == stateless.VerdictDrop {
				got = policer.VerdictDrop
			}
			if err := polOracle.Step(inward.DstIP, wire, true, true, clock.Now(), got); err != nil {
				t.Fatalf("policer spec violation: %v", err)
			}
			if got == policer.VerdictDrop {
				// The NAT forwarded; the policer clipped downstream.
				// Feed the RFC 3022 oracle the reconstructed NAT output
				// so its session state (the rejuvenation that did
				// happen) stays exact.
				obs.Verdict = stateless.VerdictToInternal
				obs.Tuple = inward
				if err := oracle.Step(id, fromInternal, true, clock.Now(), obs); err != nil {
					t.Fatalf("RFC 3022 violation (clipped reply): %v", err)
				}
				c.policed++
				return flow.ID{}
			}
		}

		oracleID := id
		if fromInternal && id.DstIP == catalog.ResolverVIP {
			// A VIP query must come out aimed at a live resolver; feed
			// the oracle the balancer-resolved tuple.
			if obs.Verdict != stateless.VerdictToExternal {
				t.Fatalf("VIP query %v not forwarded (verdict %v)", id, obs.Verdict)
			}
			if !isResolver(obs.Tuple.DstIP) {
				t.Fatalf("VIP query %v steered to %v, not a resolver", id, obs.Tuple.DstIP)
			}
			if _, live := bal.Backend(resolverIdx[obs.Tuple.DstIP]); !live {
				t.Fatalf("VIP query %v steered to removed resolver %v", id, obs.Tuple.DstIP)
			}
			oracleID.DstIP = obs.Tuple.DstIP
		}
		if !fromInternal && isResolver(id.SrcIP) && id.SrcPort == catalog.ResolverPort &&
			obs.Verdict == stateless.VerdictToInternal {
			// The balancer restored the resolver's source to the VIP
			// after the NAT's rewrite; assert that, then un-restore for
			// the RFC 3022 check of the NAT's own action.
			if obs.Tuple.SrcIP != catalog.ResolverVIP {
				t.Fatalf("resolver reply reached the host as %v, want VIP %v",
					obs.Tuple.SrcIP, catalog.ResolverVIP)
			}
			obs.Tuple.SrcIP = id.SrcIP
		}
		if err := oracle.Step(oracleID, fromInternal, true, clock.Now(), obs); err != nil {
			t.Fatalf("RFC 3022 violation: %v", err)
		}
		if obs.Verdict == stateless.VerdictDrop {
			c.dropped++
			return flow.ID{}
		}
		c.sent++
		return obs.Tuple
	}

	// Each host keeps one video session alive (packet every 500 ms, the
	// server answering each one) and queries the resolver VIP — hosts
	// 0–3 every second (their sticky entries stay live, pinning
	// stickiness), hosts 4–7 every 5 s (their entries expire between
	// queries, exercising expiry and re-selection). A third of the way
	// in, host 0's video server floods it with a back-to-back download
	// surge: the policer must clip exactly the packets the budget law
	// names. Halfway through, one resolver is drained: exactly its
	// flows must remap. Every 7 s an outsider probes the gateway and
	// must be dropped.
	assigned := make(map[int]flow.Addr) // host → resolver of the last query
	var removed flow.Addr
	remapped, surgeDropped := 0, 0
	step := 100 * time.Millisecond
	surgeAt := simTime / 3
	for tick := 0; time.Duration(tick)*step < simTime; tick++ {
		clock.Advance(step.Nanoseconds())
		now := time.Duration(tick) * step

		if now == simTime/2 {
			// Drain one resolver mid-run. Sticky flows pinned to it are
			// erased (and must re-select); everyone else's stay put.
			removed, _ = bal.Backend(0)
			if err := bal.RemoveBackend(0); err != nil {
				t.Fatal(err)
			}
		}

		for h := 0; h < nHosts; h++ {
			host := flow.MakeAddr(192, 168, 1, byte(10+h))
			if now%(500*time.Millisecond) == 0 {
				id := video
				id.SrcIP, id.SrcPort = host, uint16(52000+h)
				if out := process(id, true, 64, flow.ID{}); out != (flow.ID{}) {
					// The server acks through the chain: translated
					// back by the NAT, admitted by the firewall.
					if process(out.Reverse(), false, 64, id.Reverse()) == (flow.ID{}) {
						t.Fatal("video reply dropped")
					}
					if h == 0 && now == surgeAt {
						// The download surge: a back-to-back train of
						// large segments into host 0, far past its
						// burst budget. The policer oracle inside
						// process decides each packet's fate; the
						// budget must clip the tail of the train.
						for k := 0; k < 12; k++ {
							if process(out.Reverse(), false, 1200, id.Reverse()) == (flow.ID{}) {
								surgeDropped++
							}
						}
						if surgeDropped == 0 {
							t.Fatal("download surge was never clipped; the policer policed nothing")
						}
					}
				}
			}
			interval := 5 * time.Second
			if h < 4 {
				interval = time.Second
			}
			if now%interval == time.Duration(h)*step {
				id := dns
				id.SrcIP, id.SrcPort = host, uint16(40000+h)
				out := process(id, true, 64, flow.ID{})
				if out == (flow.ID{}) {
					t.Fatal("DNS query dropped")
				}
				resolver := out.DstIP
				if prev, ok := assigned[h]; ok && resolver != prev {
					// A flow may move only if its resolver was just
					// drained (sticky hosts) or its sticky entry
					// expired and the membership changed (5s hosts).
					if prev != removed && h < 4 {
						t.Fatalf("host %d moved %v→%v though its resolver is live and its flow sticky",
							h, prev, resolver)
					}
					remapped++
				}
				assigned[h] = resolver
				// The resolver answers; the reply must come back from
				// the VIP (asserted inside process). The un-restored
				// inward tuple is the query's reverse with the
				// balancer-resolved source.
				inward := id.Reverse()
				inward.SrcIP = out.DstIP
				if process(out.Reverse(), false, 64, inward) == (flow.ID{}) {
					t.Fatal("DNS reply dropped")
				}
			}
		}
		if now%(7*time.Second) == 0 {
			// Unsolicited scan from outside: no session, must drop — at
			// the NAT, before the policer ever sees it.
			probe := flow.ID{
				SrcIP: flow.MakeAddr(198, 51, 100, 99), SrcPort: 31337,
				DstIP: catalog.ExtIP, DstPort: 17, Proto: flow.UDP,
			}
			process(probe, false, 64, flow.ID{})
		}
	}

	st := gwNAT.Stats()
	natLive, fwLive := gwNAT.ShardNAT(0).Table().Size(), fw.ShardFirewall(0).Table().Size()
	t.Logf("home gateway simulation (%v virtual) through %s: %d forwarded, %d dropped, %d policed; flows created %d, expired %d, live %d",
		simTime, chain.Name(), c.sent, c.dropped, c.policed, st.FlowsCreated, st.FlowsExpired, natLive)

	pst := pol.Stats()
	if int(pst.DroppedOverRate) != surgeDropped || surgeDropped == 0 {
		t.Fatalf("policer books disagree: %d clipped on the wire, %d in the stats", surgeDropped, pst.DroppedOverRate)
	}
	if pst.DroppedTableFull != 0 || pst.DroppedMalformed != 0 {
		t.Fatalf("unexpected policer drops: %+v", pst)
	}
	if pol.Subscribers() != polOracle.Size() {
		t.Fatalf("policer tracks %d hosts, spec oracle %d", pol.Subscribers(), polOracle.Size())
	}

	lst := bal.Stats()
	if bal.LiveBackends() != len(resolverIdx)-1 {
		t.Fatalf("%d live resolvers after the drain, want %d", bal.LiveBackends(), len(resolverIdx)-1)
	}
	if lst.ToBackend == 0 || lst.ToClient == 0 || lst.Passthrough == 0 {
		t.Fatalf("balancer saw no traffic of some class it must see: %+v", lst)
	}
	if remapped == 0 {
		t.Fatal("draining a resolver remapped no flow; the churn proved nothing")
	}

	if int(st.FlowsCreated-st.FlowsExpired) != natLive {
		t.Fatalf("NAT accounting: created %d − expired %d ≠ live %d", st.FlowsCreated, st.FlowsExpired, natLive)
	}
	if natLive != oracle.Size() {
		t.Fatalf("NAT tracks %d sessions, the RFC 3022 oracle %d", natLive, oracle.Size())
	}
	if fwLive != natLive {
		t.Fatalf("firewall tracks %d sessions, the NAT %d", fwLive, natLive)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}
