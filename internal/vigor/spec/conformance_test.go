// Differential spec conformance: every NAT in the repository is driven
// with long randomized packet sequences — session creation, replies,
// rejuvenation, expiry, capacity pressure, junk — while the executable
// RFC 3022 oracle checks each observable action. This is the
// implementation-facing complement of the trace-level P1 proof.
package spec_test

import (
	"math/rand"
	"testing"
	"time"

	"vignat/internal/flow"
	"vignat/internal/libvig"
	"vignat/internal/nat"
	"vignat/internal/nat/stateless"
	"vignat/internal/netfilter"
	"vignat/internal/netstack"
	"vignat/internal/nf"
	"vignat/internal/nf/nfkit/nfkittest"
	"vignat/internal/unverified"
	"vignat/internal/vigor/spec"
)

var extIP = flow.MakeAddr(198, 18, 1, 1)

const (
	confCap      = 32
	confPortBase = 1000
	confTimeout  = time.Second
)

// buildNATs builds the three implementations, each entered as an nf.NF
// (the verified NAT through its adapter).
func buildNATs(t *testing.T, clock libvig.Clock) map[string]nf.NF {
	t.Helper()
	v, err := nat.New(nat.Config{
		Capacity: confCap, Timeout: confTimeout, ExternalIP: extIP,
		PortBase: confPortBase, InternalPort: 0, ExternalPort: 1,
	}, clock)
	if err != nil {
		t.Fatal(err)
	}
	u, err := unverified.New(confCap, extIP, confPortBase, confTimeout, clock)
	if err != nil {
		t.Fatal(err)
	}
	lin, err := netfilter.New(confCap, extIP, confPortBase, confTimeout, clock)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]nf.NF{
		"verified":   nat.AsNF(v),
		"unverified": u,
		"netfilter":  lin,
	}
}

// natVerdict reads v back as the NAT's own verdict: a NAT forwards out
// the interface opposite the arrival side, so the side names the
// direction.
func natVerdict(v nf.Verdict, fromInternal bool) stateless.Verdict {
	switch {
	case v == nf.Drop:
		return stateless.VerdictDrop
	case fromInternal:
		return stateless.VerdictToExternal
	default:
		return stateless.VerdictToInternal
	}
}

// step crafts the packet for id, runs it through the NAT, and reports
// the observation to the oracle.
func step(t *testing.T, n nf.NF, o *spec.Oracle, id flow.ID, fromInternal bool, now libvig.Time) error {
	t.Helper()
	spec2 := &netstack.FrameSpec{ID: id, PayloadLen: 4}
	buf := make([]byte, netstack.FrameLen(spec2))
	frame := netstack.Craft(buf, spec2)
	v := natVerdict(nfkittest.Send(n, frame, fromInternal), fromInternal)
	var got spec.Observed
	got.Verdict = v
	if v != stateless.VerdictDrop {
		var p netstack.Packet
		if err := p.Parse(frame); err != nil {
			t.Fatalf("forwarded frame unparseable: %v", err)
		}
		got.Tuple = p.FlowID()
	}
	natable := id.Proto == flow.TCP || id.Proto == flow.UDP
	return o.Step(id, fromInternal, natable, now, got)
}

// TestRFC3022ConformanceRandomized is the big differential test: 20k
// random events against the oracle, per NAT.
func TestRFC3022ConformanceRandomized(t *testing.T) {
	for name := range buildNATs(t, libvig.NewVirtualClock(0)) {
		name := name
		t.Run(name, func(t *testing.T) {
			clock := libvig.NewVirtualClock(0)
			n := buildNATs(t, clock)[name]
			o := spec.NewOracle(confCap, confTimeout.Nanoseconds(), extIP, confPortBase, confCap)
			rng := rand.New(rand.NewSource(42))

			// A small universe of internal hosts and remote peers so
			// hits, misses, and capacity pressure all occur.
			intIDs := make([]flow.ID, 48)
			for i := range intIDs {
				proto := flow.UDP
				if i%2 == 0 {
					proto = flow.TCP
				}
				intIDs[i] = flow.ID{
					SrcIP:   flow.MakeAddr(10, 0, 0, byte(1+i)),
					SrcPort: uint16(20000 + i),
					DstIP:   flow.MakeAddr(93, 184, 216, byte(1+i%5)),
					DstPort: uint16(80 + i%3),
					Proto:   proto,
				}
			}
			// Track live external tuples the oracle knows, to generate
			// valid replies. We regenerate them from the oracle's side
			// effects indirectly: remember the last forwarded tuple per
			// internal flow.
			lastExt := map[int]flow.ID{}

			for stepN := 0; stepN < 20000; stepN++ {
				clock.Advance(libvig.Time(rng.Intn(40_000_000))) // ≤40ms
				switch rng.Intn(10) {
				case 0, 1, 2, 3, 4: // outbound packet
					i := rng.Intn(len(intIDs))
					id := intIDs[i]
					if err := step(t, n, o, id, true, clock.Now()); err != nil {
						t.Fatalf("step %d (outbound %v): %v", stepN, id, err)
					}
					lastExt[i] = id // marker; reply synthesis below re-derives
				case 5, 6, 7: // reply to some previously active flow
					if len(lastExt) == 0 {
						continue
					}
					var i int
					k := rng.Intn(len(lastExt))
					for key := range lastExt {
						if k == 0 {
							i = key
							break
						}
						k--
					}
					// Re-send outbound first to learn the current
					// translation, then reply to it. (Replying blind
					// could race expiry, which the oracle would treat
					// as an unsolicited drop — also a valid check.)
					id := intIDs[i]
					if err := step(t, n, o, id, true, clock.Now()); err != nil {
						t.Fatalf("step %d (pre-reply outbound): %v", stepN, err)
					}
					ext, ok := currentTranslation(n, id)
					if !ok {
						continue // table full: outbound was dropped
					}
					if err := step(t, n, o, ext.Reverse(), false, clock.Now()); err != nil {
						t.Fatalf("step %d (reply %v): %v", stepN, ext.Reverse(), err)
					}
				case 8: // unsolicited external junk
					id := flow.ID{
						SrcIP:   flow.MakeAddr(203, 0, 113, byte(rng.Intn(250))),
						SrcPort: uint16(1024 + rng.Intn(60000)),
						DstIP:   extIP,
						DstPort: uint16(confPortBase + rng.Intn(confCap+10)),
						Proto:   flow.UDP,
					}
					if err := step(t, n, o, id, false, clock.Now()); err != nil {
						t.Fatalf("step %d (junk): %v", stepN, err)
					}
				case 9: // non-NATable packet
					id := intIDs[rng.Intn(len(intIDs))]
					id.Proto = flow.ICMP
					if err := step(t, n, o, id, true, clock.Now()); err != nil {
						t.Fatalf("step %d (icmp): %v", stepN, err)
					}
				}
			}
		})
	}
}

// currentTranslation asks the NAT implementation what external tuple an
// internal flow currently maps to, by sending a probe frame and reading
// the rewrite. It must be called right after a successful outbound step
// so it cannot perturb oracle state (re-sending rejuvenates only).
func currentTranslation(n nf.NF, id flow.ID) (flow.ID, bool) {
	spec2 := &netstack.FrameSpec{ID: id, PayloadLen: 4}
	buf := make([]byte, netstack.FrameLen(spec2))
	frame := netstack.Craft(buf, spec2)
	if nfkittest.Send(n, frame, true) != nf.Forward {
		return flow.ID{}, false
	}
	var p netstack.Packet
	if err := p.Parse(frame); err != nil {
		return flow.ID{}, false
	}
	return p.FlowID(), true
}

// TestConformanceExpiryBoundary drives the exact expiry boundary: a
// reply at age == Texp must be dropped, at age just below must pass —
// for all three NATs, in lockstep with the oracle.
func TestConformanceExpiryBoundary(t *testing.T) {
	for name := range buildNATs(t, libvig.NewVirtualClock(0)) {
		name := name
		t.Run(name, func(t *testing.T) {
			clock := libvig.NewVirtualClock(0)
			n := buildNATs(t, clock)[name]
			o := spec.NewOracle(confCap, confTimeout.Nanoseconds(), extIP, confPortBase, confCap)
			id := flow.ID{SrcIP: flow.MakeAddr(10, 0, 0, 1), SrcPort: 1234, DstIP: flow.MakeAddr(1, 1, 1, 1), DstPort: 80, Proto: flow.UDP}

			// Establish at t=1000.
			clock.Set(1000)
			if err := step(t, n, o, id, true, clock.Now()); err != nil {
				t.Fatal(err)
			}
			ext, ok := currentTranslation(n, id)
			if !ok {
				t.Fatal("no translation")
			}
			// The probe above rejuvenated at t=1000 too.
			// Age just below Texp: reply must pass.
			clock.Set(1000 + confTimeout.Nanoseconds() - 1)
			if err := step(t, n, o, ext.Reverse(), false, clock.Now()); err != nil {
				t.Fatal(err)
			}
			// That reply rejuvenated. Now let it age exactly Texp.
			last := clock.Now()
			clock.Set(last + confTimeout.Nanoseconds())
			if err := step(t, n, o, ext.Reverse(), false, clock.Now()); err != nil {
				t.Fatal(err)
			}
		})
	}
}
