// The player every conformance suite runs on. A suite's test is a row:
// subjects (NFs on nfkittest rigs), an nfkittest.Trace, and a judge
// that wraps one of this package's oracles. play drives every subject
// through the trace in lock-step, demands byte-identical outputs across
// subjects, hands each packet's fate to the judge, and ends on every
// rig's conservation check.
package spec_test

import (
	"fmt"
	"maps"
	"reflect"
	"testing"
	"time"

	"vignat/internal/flow"
	"vignat/internal/lb"
	"vignat/internal/libvig"
	"vignat/internal/nat/stateless"
	"vignat/internal/netstack"
	"vignat/internal/nf"
	"vignat/internal/nf/nfkit"
	"vignat/internal/nf/nfkit/nfkittest"
	"vignat/internal/policer"
	"vignat/internal/vigor/spec"
)

var extIP = flow.MakeAddr(198, 18, 1, 1)

const (
	confCap      = 32
	confPortBase = 1000
	confTimeout  = time.Second
)

// judge is told the fate of each packet of a burst, in the order the
// engine ran them: the frame that came out, or ok false for a drop.
type judge func(p nfkittest.Packet, out nfkittest.Out, ok bool, now libvig.Time) error

// cacheLegs runs leg as two subtests: "uncached" with the flow cache
// off, and "cached" with it at nf.DefaultFastPathEntries per worker,
// which the leg passes as Config.FastPath. The cache may change no
// output, so every check a leg makes must hold on both.
func cacheLegs(t *testing.T, leg func(t *testing.T, fastPath int)) {
	for _, fastPath := range []int{0, nf.DefaultFastPathEntries} {
		name := "uncached"
		if fastPath > 0 {
			name = "cached"
		}
		t.Run(name, func(t *testing.T) { leg(t, fastPath) })
	}
}

// newRig puts n on an engine over an in-memory rig, or the transport
// given, reading clock; cfg sets workers and the flow cache. Unless n is
// a chain (which declines the cache), the engine must run the cache
// size asked for: a cached leg the cache never joined checks nothing.
func newRig(t *testing.T, n nf.NF, clock libvig.Clock, cfg nf.Config, transport ...string) *nfkittest.Rig {
	t.Helper()
	cfg.Clock = clock
	r, err := nfkittest.NewRig(n, append(transport, "mem")[0], 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = r.Close() })
	if _, chain := n.(*nf.Chain); !chain && r.Engine.FastPathEntries() != cfg.FastPath {
		t.Fatalf("engine runs %d flow-cache entries per worker, want %d", r.Engine.FastPathEntries(), cfg.FastPath)
	}
	return r
}

// play drives rigs through tr in lock-step on clock. Before each burst
// at (if set) runs and the clock advances; then every rig is handed the
// burst, polled until it has consumed it, and drained. Every rig must
// put out what the first did, byte for byte on the same side, and the
// judge (if set) is told the first rig's fate of each packet. Each rig
// ends on its Close: nothing stray, no mbuf held.
func play(t *testing.T, clock *libvig.VirtualClock, tr nfkittest.Trace, rigs []*nfkittest.Rig, j judge, at func(step int)) {
	t.Helper()
	w := tr.Walk()
	outs := make([]map[uint32]nfkittest.Out, len(rigs))
	for step := range tr.Steps {
		if at != nil {
			at(step)
		}
		clock.Advance(w.Tick())
		burst := w.Burst()
		for i, r := range rigs {
			outs[i] = exchange(t, r, clock.Now(), burst...)
			if !maps.Equal(outs[i], outs[0]) {
				t.Fatalf("step %d: rig %d put out\n%v\nrig 0\n%v", step, i, outs[i], outs[0])
			}
		}
		for _, internal := range []bool{true, false} { // the engine's RX order
			for _, p := range burst {
				if p.Internal != internal {
					continue
				}
				o, ok := outs[0][p.Seq]
				if j != nil {
					if err := j(p, o, ok, clock.Now()); err != nil {
						t.Fatalf("step %d, packet %d (%v, internal=%v): %v", step, p.Seq, p.ID, p.Internal, err)
					}
				}
				if ok {
					w.Forwarded(p, o)
				}
			}
		}
	}
	for i, r := range rigs {
		if err := r.Close(); err != nil {
			t.Fatalf("rig %d: %v", i, err)
		}
	}
}

// exchange sends ps through r at now and returns what came out, keyed
// by sequence tag.
func exchange(t *testing.T, r *nfkittest.Rig, now libvig.Time, ps ...nfkittest.Packet) map[uint32]nfkittest.Out {
	t.Helper()
	for _, p := range ps {
		if err := r.Send(p.Frame, p.Internal, now); err != nil {
			t.Fatal(err)
		}
	}
	outs := map[uint32]nfkittest.Out{}
	if _, err := r.Poll(len(ps)); err != nil {
		t.Fatal(err)
	}
	if err := r.Drain(outs); err != nil {
		t.Fatal(err)
	}
	return outs
}

// one sends id's frame with payload bytes through r at now and returns
// what came out, if anything did.
func one(t *testing.T, r *nfkittest.Rig, id flow.ID, internal bool, payload int, now libvig.Time) (nfkittest.Out, bool) {
	t.Helper()
	o, ok := exchange(t, r, now, nfkittest.Packet{ID: id, Internal: internal, Frame: nfkittest.Frame(id, payload, 0)})[0]
	return o, ok
}

// tuple reads an output frame's 5-tuple.
func tuple(o nfkittest.Out) (flow.ID, error) {
	var q netstack.Packet
	if err := q.Parse([]byte(o.Frame)); err != nil {
		return flow.ID{}, fmt.Errorf("output unparseable: %v", err)
	}
	return q.FlowID(), nil
}

// parses reports whether p's frame parses, and then whether it is TCP
// or UDP: what an NF can translate or balance.
func parses(p nfkittest.Packet) (ipv4, translatable bool) {
	var q netstack.Packet
	if q.Parse(p.Frame) != nil {
		return false, false
	}
	return true, q.NATable()
}

// natObserved is what a NAT was seen to do with a packet: drop it, or
// forward it out of a side, which names the direction.
func natObserved(out nfkittest.Out, ok bool) (spec.Observed, error) {
	if !ok {
		return spec.Observed{Verdict: stateless.VerdictDrop}, nil
	}
	got := spec.Observed{Verdict: stateless.VerdictToExternal}
	if out.Internal {
		got.Verdict = stateless.VerdictToInternal
	}
	var err error
	got.Tuple, err = tuple(out)
	return got, err
}

// natJudge holds a NAT to RFC 3022 as o executes it.
func natJudge(o *spec.Oracle) judge {
	return func(p nfkittest.Packet, out nfkittest.Out, ok bool, now libvig.Time) error {
		got, err := natObserved(out, ok)
		if err != nil {
			return err
		}
		_, natable := parses(p)
		return o.Step(p.ID, p.Internal, natable, now, got)
	}
}

// lbJudge holds a balancer, its clients on the external side, to o: a
// client packet rewritten towards a backend, a backend's reply
// rewritten towards its client, and anything else passed through.
func lbJudge(o *spec.LBOracle) judge {
	return func(p nfkittest.Packet, out nfkittest.Out, ok bool, now libvig.Time) error {
		got := spec.LBObserved{Verdict: lb.VerdictDrop}
		if ok {
			var err error
			if got.Tuple, err = tuple(out); err != nil {
				return err
			}
			switch {
			case out.Internal && !p.Internal && got.Tuple.DstIP != p.ID.DstIP:
				got.Verdict = lb.VerdictToBackend
			case !out.Internal && p.Internal && got.Tuple.SrcIP != p.ID.SrcIP:
				got.Verdict = lb.VerdictToClient
			default:
				got.Verdict = lb.VerdictPassthrough
			}
		}
		_, lbable := parses(p)
		return o.Step(p.ID, !p.Internal, lbable, now, got)
	}
}

// policerJudge holds a policer, its subscribers on the internal side,
// to o, and adds each conforming packet's bytes to conformed (if set).
func policerJudge(o *spec.PolicerOracle, conformed *int64) judge {
	return func(p nfkittest.Packet, out nfkittest.Out, ok bool, now libvig.Time) error {
		ingress, got := !p.Internal, policer.VerdictDrop
		switch {
		case ok && out.Internal != ingress:
			return fmt.Errorf("left on the side it arrived on")
		case ok && ingress:
			got = policer.VerdictConform
			if conformed != nil {
				*conformed += int64(len(p.Frame))
			}
		case ok:
			got = policer.VerdictPassthrough
		}
		policeable, _ := parses(p)
		return o.Step(p.ID.DstIP, len(p.Frame), ingress, policeable, now, got)
	}
}

// gwJudge holds the home gateway — firewall → policer → balancer →
// NAT, clients internal, the balancer fronting vip in passthrough mode —
// to the NAT, balancer and policer oracles at once, the way the
// benchmark's gate holds its gateway row. Only the chain's output is
// visible, so each element's own action is reconstructed from it: an
// outbound packet reaches the NAT with the balancer's choice of backend
// in its destination; an inbound one leaves the NAT with the sender's
// source, before the balancer restores the VIP on a reply. Where an
// inbound packet was dropped is what the oracles say the elements did
// with it: the NAT drops it when no session admits it; else the
// balancer passes it on, the policer drops it when it is over budget,
// and else the firewall did, its session gone. The firewall has no
// oracle; the judge keeps its sessions' last-seen stamps, which every
// packet that reaches it moves: outbound ones, and inbound ones the
// policer let through. It drops every frame no NF here translates.
func gwJudge(nat *spec.Oracle, bal *spec.LBOracle, pol *spec.PolicerOracle, vip flow.Addr, texp libvig.Time) judge {
	sessions := map[flow.ID]libvig.Time{} // by outbound tuple
	return func(p nfkittest.Packet, out nfkittest.Out, ok bool, now libvig.Time) error {
		if _, translatable := parses(p); !translatable {
			if ok {
				return fmt.Errorf("a frame no NF translates came through")
			}
			return nil
		}
		got, err := natObserved(out, ok)
		if err != nil {
			return err
		}
		id, wire := p.ID, len(p.Frame)
		if p.Internal {
			if !ok {
				return fmt.Errorf("outbound dropped; no table fills and egress is never policed")
			}
			sessions[id] = now
			if err := pol.Step(id.SrcIP, wire, false, true, now, policer.VerdictPassthrough); err != nil {
				return err
			}
			resolved, lbGot := id, spec.LBObserved{Verdict: lb.VerdictPassthrough, Tuple: id}
			if id.DstIP == vip {
				resolved.DstIP = got.Tuple.DstIP
				lbGot = spec.LBObserved{Verdict: lb.VerdictToBackend, Tuple: resolved}
			}
			if err := bal.Step(id, true, true, now, lbGot); err != nil {
				return err
			}
			return nat.Step(resolved, true, true, now, got)
		}

		natOut, live := nat.Inbound(id, now)
		lbGot := spec.LBObserved{Verdict: lb.VerdictPassthrough, Tuple: natOut}
		if ok {
			lbGot.Tuple = got.Tuple
			natOut = got.Tuple
			natOut.SrcIP = id.SrcIP // before the balancer restored the VIP
			got.Tuple = natOut
			if lbGot.Tuple != natOut {
				lbGot.Verdict = lb.VerdictToClient
			}
		} else if live {
			got = spec.Observed{Verdict: stateless.VerdictToInternal, Tuple: natOut}
			if bal.Restores(natOut, now) {
				lbGot.Verdict, lbGot.Tuple.SrcIP = lb.VerdictToClient, vip
			}
		}
		if err := nat.Step(id, false, true, now, got); err != nil {
			return err
		}
		if !ok && !live {
			return nil // the NAT dropped it
		}
		if err := bal.Step(natOut, false, true, now, lbGot); err != nil {
			return err
		}
		polGot := policer.VerdictDrop
		if ok || pol.Conforms(natOut.DstIP, wire, now) {
			polGot = policer.VerdictConform
		}
		if err := pol.Step(natOut.DstIP, wire, true, true, now, polGot); err != nil {
			return err
		}
		if polGot == policer.VerdictDrop {
			return nil
		}
		session := lbGot.Tuple.Reverse()
		last, known := sessions[session]
		if admitted := known && last+texp > now; admitted != ok {
			return fmt.Errorf("firewall session %v (known %v, last seen %d) let the reply through: %v, want %v",
				session, known, last, ok, admitted)
		}
		if ok {
			sessions[session] = now
		}
		return nil
	}
}

// clients is a universe of n client tuples from 10.0.0.0/24, TCP and
// UDP alternating, towards dsts servers on ports from 80.
func clients(n, dsts, ports int) []flow.ID {
	ids := make([]flow.ID, n)
	for i := range ids {
		ids[i] = flow.ID{
			SrcIP: flow.MakeAddr(10, 0, 0, byte(1+i)), SrcPort: uint16(20000 + i),
			DstIP: flow.MakeAddr(93, 184, 216, byte(1+i%dsts)), DstPort: uint16(80 + i%ports),
			Proto: flow.UDP,
		}
		if i%2 == 0 {
			ids[i].Proto = flow.TCP
		}
	}
	return ids
}

// sameFinalState demands that two cores of one declaration ended a
// trace in the same state: the same migratable records (every table
// entry with its DChain stamp, in index order) and the same counter
// array (per-reason counts and lifecycle counters — everything every
// stats view is computed from).
func sameFinalState[C any](t *testing.T, what string, d nfkit.Decl[C], a, b C) {
	t.Helper()
	if ra, rb := d.Snapshot(a), d.Snapshot(b); !reflect.DeepEqual(ra, rb) {
		t.Fatalf("%s: final table contents diverged:\n%+v\n%+v", what, ra, rb)
	}
	if ca, cb := d.Counters(a), d.Counters(b); !reflect.DeepEqual(ca, cb) {
		t.Fatalf("%s: counters and reason counts diverged:\n%v\n%v", what, ca, cb)
	}
}
