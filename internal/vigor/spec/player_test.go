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
