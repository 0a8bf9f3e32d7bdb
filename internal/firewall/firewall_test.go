package firewall

import (
	"testing"
	"time"

	"vignat/internal/flow"
	"vignat/internal/libvig"
	"vignat/internal/netstack"
	"vignat/internal/nf"
	"vignat/internal/nf/nfkit/nfkittest"
)

func fwFrame(t *testing.T, id flow.ID) []byte {
	t.Helper()
	spec := &netstack.FrameSpec{ID: id, PayloadLen: 8}
	buf := make([]byte, netstack.FrameLen(spec))
	return netstack.Craft(buf, spec)
}

func outKey(i int) flow.ID {
	return flow.ID{
		SrcIP:   flow.MakeAddr(10, 0, 0, byte(1+i)),
		SrcPort: uint16(50000 + i),
		DstIP:   flow.MakeAddr(1, 1, 1, 1),
		DstPort: 443,
		Proto:   flow.TCP,
	}
}

func TestFirewallOutboundAlwaysForwards(t *testing.T) {
	clock := libvig.NewVirtualClock(0)
	fw, err := New(16, time.Second, clock)
	if err != nil {
		t.Fatal(err)
	}
	a := AsNF(fw)
	f := fwFrame(t, outKey(0))
	orig := append([]byte(nil), f...)
	if v := nfkittest.Send(a, f, true); v != nf.Forward {
		t.Fatalf("outbound %v", v)
	}
	for i := range f {
		if f[i] != orig[i] {
			t.Fatal("firewall modified the packet")
		}
	}
	if fw.Table().Size() != 1 {
		t.Fatalf("sessions %d", fw.Table().Size())
	}
}

func TestFirewallReplyAllowedUnsolicitedDropped(t *testing.T) {
	clock := libvig.NewVirtualClock(0)
	fw, _ := New(16, time.Second, clock)
	a := AsNF(fw)
	nfkittest.Send(a, fwFrame(t, outKey(0)), true)
	// Reply to the established session.
	if v := nfkittest.Send(a, fwFrame(t, outKey(0).Reverse()), false); v != nf.Forward {
		t.Fatalf("reply %v", v)
	}
	// Unsolicited inbound.
	if v := nfkittest.Send(a, fwFrame(t, outKey(5).Reverse()), false); v != nf.Drop {
		t.Fatalf("unsolicited %v", v)
	}
	if fw.Table().Size() != 1 {
		t.Fatal("external packet created state")
	}
}

func TestFirewallExpiry(t *testing.T) {
	clock := libvig.NewVirtualClock(0)
	fw, _ := New(16, time.Second, clock)
	a := AsNF(fw)
	nfkittest.Send(a, fwFrame(t, outKey(0)), true)
	clock.Advance(2 * time.Second.Nanoseconds())
	if v := nfkittest.Send(a, fwFrame(t, outKey(0).Reverse()), false); v != nf.Drop {
		t.Fatalf("reply after expiry %v", v)
	}
	if fw.Table().Size() != 0 {
		t.Fatal("session survived expiry")
	}
	// Rejuvenation path: keep alive with traffic under the timeout.
	nfkittest.Send(a, fwFrame(t, outKey(1)), true)
	for i := 0; i < 5; i++ {
		clock.Advance(600 * time.Millisecond.Nanoseconds())
		if v := nfkittest.Send(a, fwFrame(t, outKey(1)), true); v != nf.Forward {
			t.Fatalf("keepalive %d: %v", i, v)
		}
	}
	if fw.Table().Size() != 1 {
		t.Fatal("keepalive session lost")
	}
}

func TestFirewallTableFullConservative(t *testing.T) {
	clock := libvig.NewVirtualClock(0)
	fw, _ := New(2, time.Hour, clock)
	a := AsNF(fw)
	nfkittest.Send(a, fwFrame(t, outKey(0)), true)
	nfkittest.Send(a, fwFrame(t, outKey(1)), true)
	if v := nfkittest.Send(a, fwFrame(t, outKey(2)), true); v != nf.Drop {
		t.Fatalf("over-capacity outbound %v (conservative policy requires drop)", v)
	}
	// Existing sessions still pass.
	if v := nfkittest.Send(a, fwFrame(t, outKey(0)), true); v != nf.Forward {
		t.Fatalf("existing at capacity %v", v)
	}
}

func TestFirewallNonNATableDropped(t *testing.T) {
	clock := libvig.NewVirtualClock(0)
	fw, _ := New(16, time.Second, clock)
	a := AsNF(fw)
	id := outKey(0)
	id.Proto = flow.ICMP
	if v := nfkittest.Send(a, fwFrame(t, id), true); v != nf.Drop {
		t.Fatalf("icmp %v", v)
	}
	if v := nfkittest.Send(a, nil, true); v != nf.Drop {
		t.Fatalf("empty frame %v", v)
	}
}

func TestFirewallProcessNoAllocs(t *testing.T) {
	clock := libvig.NewVirtualClock(0)
	fw, _ := New(1024, time.Second, clock)
	a := AsNF(fw)
	fresh := fwFrame(t, outKey(0))
	work := make([]byte, len(fresh))
	pkts, verdicts := []nf.Pkt{{Frame: work, FromInternal: true}}, make([]nf.Verdict, 1)
	copy(work, fresh)
	a.ProcessBatch(pkts, verdicts)
	allocs := testing.AllocsPerRun(200, func() {
		copy(work, fresh)
		clock.Advance(10)
		a.ProcessBatch(pkts, verdicts)
	})
	if allocs != 0 {
		t.Fatalf("fast path allocates %.1f times per packet", allocs)
	}
}

// TestFirewallVerified runs the full pipeline on the firewall's
// stateless logic: the §7 amortization claim made concrete — a second
// NF proven with the same engine, solver, and discipline checks.
func TestFirewallVerified(t *testing.T) {
	rep, err := Verify()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("proof failed: %s\n%v", rep.Summary(), rep.Failures())
	}
	if rep.Paths != 11 {
		t.Fatalf("paths %d, want 11 (same decision structure as the NAT)", rep.Paths)
	}
	t.Log(rep.Summary())
}

// TestFirewallReasonsConsistent cross-checks the declared reason
// taxonomy against the same path enumeration: every declared reason
// reachable, every drop path tagged drop-class.
func TestFirewallReasonsConsistent(t *testing.T) {
	rep, err := Kit(16, time.Second, libvig.NewVirtualClock(0)).VerifyReasons()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("taxonomy drifted: %s\n%v", rep.Summary(), rep.Failures)
	}
	t.Log(rep.Summary())
}

// TestFirewallBuggyVariantCaught: omitting the inbound-session check
// (forward everything inbound) must fail the semantic property.
func TestFirewallBuggyVariantCaught(t *testing.T) {
	buggy := func(env Env) {
		env.ExpireSessions()
		if !env.FrameIntact() || !env.EtherIsIPv4() || !env.IPv4HeaderValid() ||
			!env.NotFragment() || !env.L4Supported() || !env.L4HeaderIntact() {
			env.Drop()
			return
		}
		if env.PacketFromInternal() {
			h, ok := env.LookupOutbound()
			if ok {
				env.Rejuvenate(h)
			} else {
				h, ok = env.CreateSession()
			}
			if ok {
				env.ForwardOut()
			} else {
				env.Drop()
			}
			return
		}
		env.ForwardIn() // BUG: no session check — an open firewall
	}
	rep, err := verifyLogic(buggy)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("open-firewall bug not caught")
	}
	if len(rep.P1Failures) == 0 {
		t.Fatalf("expected P1 failures, got %s", rep.Summary())
	}
}

// TestFirewallDerivedKeyNearMiss: a session stores its outbound tuple
// alone and derives the reply direction by reversing it, so only the
// exact reverse tuple is let in. Each one-field change of it — remote
// IP, remote port, protocol, a destination other than the internal
// host — is drop_unsolicited, creates nothing and allocates nothing.
func TestFirewallDerivedKeyNearMiss(t *testing.T) {
	fw, err := New(16, time.Second, libvig.NewVirtualClock(0))
	if err != nil {
		t.Fatal(err)
	}
	a := Kit(16, time.Second, fw.clock).Adapt(fw)
	nfkittest.Send(a, fwFrame(t, outKey(1)), true)
	if v := nfkittest.Send(a, fwFrame(t, outKey(0)), true); v != nf.Forward {
		t.Fatalf("outbound verdict %v", v)
	}
	reply := outKey(0).Reverse()
	pkts, verdicts := []nf.Pkt{{}}, make([]nf.Verdict, 1)
	for _, tc := range []struct {
		name   string
		change func(*flow.ID)
	}{
		{"exact", func(*flow.ID) {}},
		{"remote IP", func(k *flow.ID) { k.SrcIP++ }},
		{"remote port", func(k *flow.ID) { k.SrcPort++ }},
		{"protocol", func(k *flow.ID) { k.Proto = flow.UDP }},
		{"destination", func(k *flow.ID) { k.DstIP++ }},
	} {
		k := reply
		tc.change(&k)
		pkts[0] = nf.Pkt{Frame: fwFrame(t, k)}
		allocs := testing.AllocsPerRun(20, func() { a.ProcessBatch(pkts, verdicts) })
		want, reason := nf.Drop, ReasonDropUnsolicited
		if k == reply {
			want, reason = nf.Forward, ReasonFwdIn
		}
		if verdicts[0] != want || a.LastReasonName() != Reasons.Name(reason) {
			t.Fatalf("%s (%v): verdict %v reason %s, want %v reason %s", tc.name, k, verdicts[0], a.LastReasonName(), want, Reasons.Name(reason))
		}
		if allocs != 0 {
			t.Fatalf("%s: %.1f allocations a packet", tc.name, allocs)
		}
		if fw.Table().Size() != 2 {
			t.Fatalf("%s: table holds %d sessions", tc.name, fw.Table().Size())
		}
	}
}
