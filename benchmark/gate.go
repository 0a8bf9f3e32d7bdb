package main

import (
	"fmt"

	"vignat/internal/lb"
	"vignat/internal/libvig"
	"vignat/internal/nat/stateless"
	"vignat/internal/policer"
	"vignat/internal/vigor/spec"
)

// The correctness gate: a workload's own traffic, replayed one packet
// per poll against the executable specifications. The oracles walk every
// live flow on every step, so the gate runs the workload at a reduced
// state size (sized in gen.go) — same NF, same configuration code, same
// generator — and the timed run at full size is held to the generator's
// own expectations instead (measure in inproc.go).

// gatePackets is how much of the workload's traffic the gate replays
// after the standing state is in.
const gatePackets = 8192

// natGate holds a NAT to RFC 3022 as spec.Oracle executes it.
type natGate struct{ o *spec.Oracle }

func observed(p *pkt, out []byte) (spec.Observed, error) {
	obs := spec.Observed{Verdict: stateless.VerdictDrop}
	if out == nil {
		return obs, nil
	}
	t, err := tupleOf(out)
	if err != nil {
		return obs, err
	}
	obs.Tuple, obs.Verdict = t, stateless.VerdictToInternal
	if p.fromInternal {
		obs.Verdict = stateless.VerdictToExternal
	}
	return obs, nil
}

func (g natGate) observe(p *pkt, out []byte, now libvig.Time) error {
	id, err := tupleOf(p.frame)
	if err != nil {
		return err
	}
	obs, err := observed(p, out)
	if err != nil {
		return err
	}
	return g.o.Step(id, p.fromInternal, true, now, obs)
}

// gwGate holds the gateway chain to three specifications at once. Only
// the chain's output is visible, so each element's own action is
// reconstructed from it the way examples/homegateway does: the balancer
// resolves a VIP query before the NAT sees it and restores the VIP on a
// reply after the NAT is done with it.
type gwGate struct {
	nat *spec.Oracle
	lb  *spec.LBOracle
	pol *spec.PolicerOracle
}

func (g *gwGate) observe(p *pkt, out []byte, now libvig.Time) error {
	id, err := tupleOf(p.frame)
	if err != nil {
		return err
	}
	obs, err := observed(p, out)
	if err != nil {
		return err
	}
	if p.fromInternal {
		if out == nil {
			return fmt.Errorf("outbound %v dropped; no table is full and egress is never policed", id)
		}
		if err := g.pol.Step(id.SrcIP, len(p.frame), false, true, now, policer.VerdictPassthrough); err != nil {
			return err
		}
		resolved := id
		lbObs := spec.LBObserved{Verdict: lb.VerdictPassthrough, Tuple: id}
		if id.DstIP == gwVIP {
			resolved.DstIP = obs.Tuple.DstIP
			lbObs = spec.LBObserved{Verdict: lb.VerdictToBackend, Tuple: resolved}
		}
		if err := g.lb.Step(id, true, true, now, lbObs); err != nil {
			return err
		}
		return g.nat.Step(resolved, true, true, now, obs)
	}
	if out == nil {
		// Only the NAT may have dropped it; if the session was live the
		// oracle says so.
		return g.nat.Step(id, false, true, now, obs)
	}
	natOut := obs.Tuple
	natOut.SrcIP = id.SrcIP // before the balancer restored the VIP
	if err := g.nat.Step(id, false, true, now, spec.Observed{Verdict: obs.Verdict, Tuple: natOut}); err != nil {
		return err
	}
	lbObs := spec.LBObserved{Verdict: lb.VerdictPassthrough, Tuple: obs.Tuple}
	if obs.Tuple.SrcIP != natOut.SrcIP {
		lbObs.Verdict = lb.VerdictToClient
	}
	if err := g.lb.Step(natOut, false, true, now, lbObs); err != nil {
		return err
	}
	return g.pol.Step(obs.Tuple.DstIP, len(p.frame), true, true, now, policer.VerdictConform)
}

func newGate(w string) (observer, error) {
	switch w {
	case "nat_established":
		p := fullEstablished.sized(true)
		return natGate{spec.NewOracle(p.capacity, p.texp.Nanoseconds(), natExtIP, 1, p.capacity)}, nil
	case "nat_churn":
		p := fullChurn.sized(true)
		return natGate{spec.NewOracle(p.capacity, p.texp.Nanoseconds(), natExtIP, 1, p.capacity)}, nil
	}
	p := fullGateway.sized(true)
	texp := p.texp.Nanoseconds()
	g := &gwGate{
		nat: spec.NewOracle(p.capacity, texp, gwExtIP, 1, p.capacity),
		lb:  spec.NewLBOracle(gwVIP, gwDNSPort, p.capacity, texp, true),
		pol: spec.NewPolicerOracle(gwPolRate, gwPolBurst, p.capacity, texp),
	}
	for _, ip := range gwBackends {
		if err := g.lb.AddBackend(ip); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// runGate replays the workload against its oracles and returns how many
// packets it checked. Beyond the oracles, every packet must meet the
// generator's own expectation — the one the timed run relies on.
func runGate(w string, seed int64) (int, error) {
	obs, err := newGate(w)
	if err != nil {
		return 0, err
	}
	steps := 0
	counting := observerFunc(func(p *pkt, out []byte, now libvig.Time) error {
		steps++
		return obs.observe(p, out, now)
	})
	r, err := newRig(w, seed, true, counting)
	if err != nil {
		return steps, fmt.Errorf("gate, standing state: %w", err)
	}
	burst := make([]pkt, burstSize)
	for sent := 0; sent < gatePackets; sent += len(burst) {
		r.src.next(burst)
		for i := range burst {
			p := &burst[i]
			out, err := r.send(p)
			if err != nil {
				return steps, fmt.Errorf("gate, packet %d: %w", sent+i, err)
			}
			if (out != nil) != p.forward {
				return steps, fmt.Errorf("gate, packet %d: forwarded=%v, the generator expects %v", sent+i, out != nil, p.forward)
			}
			if out != nil {
				if t, _ := tupleOf(out); !p.matches(t) {
					return steps, fmt.Errorf("gate, packet %d: came out as %v, the generator expects %v", sent+i, t, p.want)
				}
			}
		}
	}
	return steps, nil
}

type observerFunc func(p *pkt, out []byte, now libvig.Time) error

func (f observerFunc) observe(p *pkt, out []byte, now libvig.Time) error { return f(p, out, now) }
