package nat

import (
	"testing"
	"time"

	"vignat/internal/flow"
	"vignat/internal/libvig"
	"vignat/internal/netstack"
	"vignat/internal/nf"
	"vignat/internal/nf/nfkit/nfkittest"
)

func testNAT(t *testing.T, cap int, timeout time.Duration, clock libvig.Clock) *NAT {
	t.Helper()
	n, err := New(Config{
		Capacity:     cap,
		Timeout:      timeout,
		ExternalIP:   tExtIP,
		PortBase:     1,
		InternalPort: 0,
		ExternalPort: 1,
	}, clock)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func frameFor(t *testing.T, id flow.ID) []byte {
	t.Helper()
	spec := &netstack.FrameSpec{ID: id, PayloadLen: 4}
	buf := make([]byte, netstack.FrameLen(spec))
	return netstack.Craft(buf, spec)
}

func parseTuple(t *testing.T, frame []byte) flow.ID {
	t.Helper()
	var p netstack.Packet
	if err := p.Parse(frame); err != nil {
		t.Fatal(err)
	}
	return p.FlowID()
}

// TestNATDefaultConfigEndToEnd: a NAT configured by its external address
// alone — Validate's defaults, the paper's experimental setup — translates
// an outbound UDP session.
func TestNATDefaultConfigEndToEnd(t *testing.T) {
	n, err := New(Config{ExternalIP: tExtIP, ExternalPort: 1}, libvig.NewVirtualClock(0))
	if err != nil {
		t.Fatal(err)
	}
	id := flow.ID{
		SrcIP: flow.MakeAddr(10, 0, 0, 1), SrcPort: 1234,
		DstIP: flow.MakeAddr(8, 8, 8, 8), DstPort: 53, Proto: flow.UDP,
	}
	f := frameFor(t, id)
	if v := nfkittest.Send(AsNF(n), f, true); v != nf.Forward {
		t.Fatalf("verdict %v", v)
	}
	if got := parseTuple(t, f); got.SrcIP != tExtIP || got.SrcPort < DefaultPortBase {
		t.Fatalf("source not rewritten into EXT_IP's default range: %v", got)
	}
}

func TestNATOutboundCreatesAndRewrites(t *testing.T) {
	clock := libvig.NewVirtualClock(0)
	n := testNAT(t, 16, time.Second, clock)
	a := AsNF(n)
	id := intKey(0)
	f := frameFor(t, id)
	v := nfkittest.Send(a, f, true)
	if v != nf.Forward {
		t.Fatalf("verdict %v", v)
	}
	got := parseTuple(t, f)
	if got.SrcIP != tExtIP {
		t.Fatalf("src not rewritten to EXT_IP: %v", got)
	}
	if got.DstIP != id.DstIP || got.DstPort != id.DstPort || got.Proto != id.Proto {
		t.Fatalf("destination altered: %v", got)
	}
	s := n.Stats()
	if s.FlowsCreated != 1 || s.ForwardedOut != 1 {
		t.Fatalf("stats %+v", s)
	}
	// Checksums must be valid after rewriting.
	var p netstack.Packet
	_ = p.Parse(f)
	if !p.VerifyIPChecksum() || !p.VerifyL4Checksum() {
		t.Fatal("NAT rewrite broke checksums")
	}
}

func TestNATHairpinRoundTrip(t *testing.T) {
	clock := libvig.NewVirtualClock(0)
	n := testNAT(t, 16, time.Second, clock)
	a := AsNF(n)
	id := intKey(3)
	out := frameFor(t, id)
	nfkittest.Send(a, out, true)
	ext := parseTuple(t, out)

	// Build the reply: remote peer answers the translated tuple.
	reply := frameFor(t, ext.Reverse())
	v := nfkittest.Send(a, reply, false)
	if v != nf.Forward {
		t.Fatalf("reply verdict %v", v)
	}
	back := parseTuple(t, reply)
	if back.DstIP != id.SrcIP || back.DstPort != id.SrcPort {
		t.Fatalf("reply not de-NATed to internal host: %v", back)
	}
	if back.SrcIP != id.DstIP || back.SrcPort != id.DstPort {
		t.Fatalf("reply source altered: %v", back)
	}
}

func TestNATUnsolicitedExternalDropped(t *testing.T) {
	clock := libvig.NewVirtualClock(0)
	n := testNAT(t, 16, time.Second, clock)
	a := AsNF(n)
	stranger := flow.ID{SrcIP: flow.MakeAddr(9, 9, 9, 9), SrcPort: 9999, DstIP: tExtIP, DstPort: 100, Proto: flow.TCP}
	f := frameFor(t, stranger)
	if v := nfkittest.Send(a, f, false); v != nf.Drop {
		t.Fatalf("unsolicited external packet: %v", v)
	}
}

func TestNATExternalNeverCreatesState(t *testing.T) {
	clock := libvig.NewVirtualClock(0)
	n := testNAT(t, 16, time.Second, clock)
	a := AsNF(n)
	stranger := flow.ID{SrcIP: flow.MakeAddr(9, 9, 9, 9), SrcPort: 9999, DstIP: tExtIP, DstPort: 100, Proto: flow.TCP}
	for i := 0; i < 10; i++ {
		clock.Advance(1000)
		f := frameFor(t, stranger)
		nfkittest.Send(a, f, false)
	}
	if n.Table().Size() != 0 {
		t.Fatal("external packets created flow state")
	}
}

func TestNATExpiryEndsSession(t *testing.T) {
	clock := libvig.NewVirtualClock(0)
	n := testNAT(t, 16, time.Second, clock)
	a := AsNF(n)
	id := intKey(1)
	out := frameFor(t, id)
	nfkittest.Send(a, out, true)
	ext := parseTuple(t, out)

	clock.Advance(2 * time.Second.Nanoseconds())
	reply := frameFor(t, ext.Reverse())
	if v := nfkittest.Send(a, reply, false); v != nf.Drop {
		t.Fatalf("reply on expired session: %v", v)
	}
	if n.Stats().FlowsExpired != 1 {
		t.Fatalf("expired %d", n.Stats().FlowsExpired)
	}
}

func TestNATRejuvenationKeepsSessionAlive(t *testing.T) {
	clock := libvig.NewVirtualClock(0)
	n := testNAT(t, 16, time.Second, clock)
	a := AsNF(n)
	id := intKey(1)
	var ext flow.ID
	// Send a packet every 0.6s for 5s: each refreshes the flow, so it
	// must survive though its total age far exceeds 1s.
	for i := 0; i < 9; i++ {
		out := frameFor(t, id)
		if v := nfkittest.Send(a, out, true); v != nf.Forward {
			t.Fatalf("packet %d: %v", i, v)
		}
		ext = parseTuple(t, out)
		clock.Advance(600 * time.Millisecond.Nanoseconds())
	}
	if n.Stats().FlowsCreated != 1 {
		t.Fatalf("flow recreated: %d creations", n.Stats().FlowsCreated)
	}
	// Reply path also rejuvenates (Fig. 6 updates timestamps for any
	// matching packet).
	reply := frameFor(t, ext.Reverse())
	if v := nfkittest.Send(a, reply, false); v != nf.Forward {
		t.Fatalf("reply: %v", v)
	}
}

func TestNATTableFullDropsNewFlows(t *testing.T) {
	clock := libvig.NewVirtualClock(0)
	n := testNAT(t, 4, time.Hour, clock)
	a := AsNF(n)
	for i := 0; i < 4; i++ {
		f := frameFor(t, intKey(i))
		if v := nfkittest.Send(a, f, true); v != nf.Forward {
			t.Fatalf("flow %d: %v", i, v)
		}
	}
	f := frameFor(t, intKey(99))
	if v := nfkittest.Send(a, f, true); v != nf.Drop {
		t.Fatalf("over-capacity flow: %v", v)
	}
	// Existing flows keep working at capacity.
	f = frameFor(t, intKey(2))
	if v := nfkittest.Send(a, f, true); v != nf.Forward {
		t.Fatalf("existing flow at capacity: %v", v)
	}
}

func TestNATStablePortPerSession(t *testing.T) {
	clock := libvig.NewVirtualClock(0)
	n := testNAT(t, 16, time.Hour, clock)
	a := AsNF(n)
	id := intKey(5)
	out1 := frameFor(t, id)
	nfkittest.Send(a, out1, true)
	p1 := parseTuple(t, out1).SrcPort
	out2 := frameFor(t, id)
	nfkittest.Send(a, out2, true)
	p2 := parseTuple(t, out2).SrcPort
	if p1 != p2 {
		t.Fatalf("session port changed: %d then %d", p1, p2)
	}
}

func TestNATDistinctFlowsDistinctPorts(t *testing.T) {
	clock := libvig.NewVirtualClock(0)
	n := testNAT(t, 64, time.Hour, clock)
	a := AsNF(n)
	seen := map[uint16]bool{}
	for i := 0; i < 64; i++ {
		f := frameFor(t, intKey(i))
		nfkittest.Send(a, f, true)
		p := parseTuple(t, f).SrcPort
		if seen[p] {
			t.Fatalf("port %d reused across live flows", p)
		}
		seen[p] = true
	}
}

func TestNATNonNATableDropped(t *testing.T) {
	clock := libvig.NewVirtualClock(0)
	n := testNAT(t, 16, time.Second, clock)
	a := AsNF(n)
	cases := map[string][]byte{
		"empty":     {},
		"runt":      make([]byte, 10),
		"arp":       func() []byte { f := frameFor(t, intKey(0)); f[12], f[13] = 0x08, 0x06; return f }(),
		"icmp":      func() []byte { id := intKey(0); id.Proto = flow.ICMP; return frameFor(t, id) }(),
		"fragment":  fragmentFrame(t),
		"truncated": frameFor(t, intKey(0))[:netstack.EthHeaderLen+8],
	}
	for name, f := range cases {
		if v := nfkittest.Send(a, f, true); v != nf.Drop {
			t.Errorf("%s: verdict %v, want drop", name, v)
		}
	}
	if n.Table().Size() != 0 {
		t.Fatal("non-NATable packet created state")
	}
}

func fragmentFrame(t *testing.T) []byte {
	f := frameFor(t, intKey(0))
	ip := f[netstack.EthHeaderLen:]
	ip[6], ip[7] = 0x20, 0x00 // MF
	ip[10], ip[11] = 0, 0
	c := netstack.Checksum(ip[:netstack.IPv4MinLen], 0)
	ip[10], ip[11] = byte(c>>8), byte(c)
	return f
}

// TestNATProcessNoAllocs pins the preallocation claim: a one-packet
// burst through the adapter performs zero heap allocations, like the C
// original.
func TestNATProcessNoAllocs(t *testing.T) {
	clock := libvig.NewVirtualClock(0)
	n := testNAT(t, 1024, time.Second, clock)
	a := AsNF(n)
	id := intKey(1)
	f := frameFor(t, id)
	nfkittest.Send(a, f, true) // establish

	fresh := frameFor(t, id)
	work := make([]byte, len(fresh))
	pkts, verdicts := []nf.Pkt{{Frame: work, FromInternal: true}}, make([]nf.Verdict, 1)
	allocs := testing.AllocsPerRun(200, func() {
		copy(work, fresh)
		clock.Advance(10)
		a.ProcessBatch(pkts, verdicts)
	})
	if allocs != 0 {
		t.Fatalf("fast path allocates %.1f times per packet", allocs)
	}
}

// TestNATProbePathNoAllocs pins the harder case: the probe-flow worst
// case (expire own flow + miss + allocate + rewrite) is allocation-free
// too.
func TestNATProbePathNoAllocs(t *testing.T) {
	clock := libvig.NewVirtualClock(0)
	n := testNAT(t, 1024, time.Millisecond, clock)
	a := AsNF(n)
	id := intKey(1)
	fresh := frameFor(t, id)
	work := make([]byte, len(fresh))
	pkts, verdicts := []nf.Pkt{{Frame: work, FromInternal: true}}, make([]nf.Verdict, 1)
	allocs := testing.AllocsPerRun(200, func() {
		copy(work, fresh)
		clock.Advance(2 * time.Millisecond.Nanoseconds())
		if a.ProcessBatch(pkts, verdicts); verdicts[0] != nf.Forward {
			t.Fatalf("probe path verdict %v", verdicts[0])
		}
	})
	if allocs != 0 {
		t.Fatalf("probe worst case allocates %.1f times per packet", allocs)
	}
}

// TestNATPrefetchedBurstNoAllocs: a burst through the derived adapter —
// its parse and hash of all 32 packets, the Prefetch hook's table loads,
// then the per-packet loop keyed by those parses — is allocation-free
// in the flow-creation worst case: every burst expires the previous
// burst's 32 flows and creates 32 more. No packet may keep a pointer
// into the adapter's parses once the burst is done.
func TestNATPrefetchedBurstNoAllocs(t *testing.T) {
	clock := libvig.NewVirtualClock(0)
	n := testNAT(t, 1024, time.Millisecond, clock)
	adapter := AsNF(n)
	const burst = 32
	fresh := make([][]byte, burst)
	pkts := make([]nf.Pkt, burst)
	for i := range pkts {
		fresh[i] = frameFor(t, intKey(i))
		pkts[i] = nf.Pkt{Frame: make([]byte, len(fresh[i])), FromInternal: true}
	}
	verdicts := make([]nf.Verdict, burst)
	allocs := testing.AllocsPerRun(200, func() {
		for i := range pkts {
			copy(pkts[i].Frame, fresh[i])
		}
		clock.Advance(2 * time.Millisecond.Nanoseconds())
		adapter.ProcessBatch(pkts, verdicts)
		for i, v := range verdicts {
			if v != nf.Forward {
				t.Fatalf("packet %d: %v", i, v)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("a prefetched burst allocates %.1f times", allocs)
	}
	if st := n.Stats(); st.FlowsCreated != st.Processed || st.FlowsExpired != st.Processed-burst {
		t.Fatalf("not the flow-creation regime: %+v", st)
	}
	for i := range pkts {
		if pkts[i].Parsed != nil {
			t.Fatalf("packet %d: the adapter's parse outlived its burst", i)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	clock := libvig.NewVirtualClock(0)
	if _, err := New(Config{ExternalIP: 0}, clock); err == nil {
		t.Fatal("missing external IP accepted")
	}
	if _, err := New(Config{ExternalIP: tExtIP, Capacity: -1}, clock); err == nil {
		t.Fatal("negative capacity accepted")
	}
	if _, err := New(Config{ExternalIP: tExtIP, Timeout: -time.Second}, clock); err == nil {
		t.Fatal("negative timeout accepted")
	}
	if _, err := New(Config{ExternalIP: tExtIP, Capacity: 70000, PortBase: 1000}, clock); err == nil {
		t.Fatal("port-range overflow accepted")
	}
	if _, err := New(Config{ExternalIP: tExtIP, InternalPort: 2, ExternalPort: 2}, clock); err == nil {
		t.Fatal("same internal/external port accepted")
	}
	// Defaults fill in.
	cfg := Config{ExternalIP: tExtIP, ExternalPort: 1}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.Capacity != DefaultCapacity || cfg.Timeout != DefaultTimeout || cfg.PortBase != DefaultPortBase {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
}

// TestNATDerivedKeyNearMiss: a flow's external key is derived from its
// index and the configuration, never stored, so only the exact reply
// tuple — the remote endpoint and protocol the record holds, EXT_IP,
// and the port the index owns — finds the flow. Each one-field change
// of it is drop_unsolicited, leaves the table as it was and allocates
// nothing. This kills an inbound compare of the port alone and a port
// derived one past the index's (portBase+index+1).
func TestNATDerivedKeyNearMiss(t *testing.T) {
	n := testNAT(t, 16, time.Second, libvig.NewVirtualClock(0))
	a := Kit(n.cfg, n.clock).Adapt(n)
	nfkittest.Send(a, frameFor(t, intKey(9)), true) // a neighbour at index 0
	id := intKey(3)
	out := frameFor(t, id)
	if v := nfkittest.Send(a, out, true); v != nf.Forward {
		t.Fatalf("outbound verdict %v", v)
	}
	reply := parseTuple(t, out).Reverse()
	if reply.DstPort != n.Config().PortBase+1 {
		t.Fatalf("second flow translated to port %d, want %d", reply.DstPort, n.Config().PortBase+1)
	}
	pkts, verdicts := []nf.Pkt{{}}, make([]nf.Verdict, 1)
	for _, tc := range []struct {
		name   string
		change func(*flow.ID)
	}{
		{"exact", func(*flow.ID) {}},
		{"remote IP", func(k *flow.ID) { k.SrcIP++ }},
		{"remote port", func(k *flow.ID) { k.SrcPort++ }},
		{"protocol", func(k *flow.ID) { k.Proto = flow.TCP }},
		{"destination", func(k *flow.ID) { k.DstIP++ }},
	} {
		k := reply
		tc.change(&k)
		fresh := frameFor(t, k)
		pkts[0] = nf.Pkt{Frame: make([]byte, len(fresh))}
		allocs := testing.AllocsPerRun(20, func() {
			copy(pkts[0].Frame, fresh)
			a.ProcessBatch(pkts, verdicts)
		})
		want, reason := nf.Drop, ReasonDropUnsolicited
		if k == reply {
			want, reason = nf.Forward, ReasonFwdIn
		}
		if verdicts[0] != want || a.LastReasonName() != Reasons.Name(reason) {
			t.Fatalf("%s (%v): verdict %v reason %s, want %v reason %s", tc.name, k, verdicts[0], a.LastReasonName(), want, Reasons.Name(reason))
		}
		if back := parseTuple(t, pkts[0].Frame); k == reply && (back.DstIP != id.SrcIP || back.DstPort != id.SrcPort) {
			t.Fatalf("exact reply de-NATed to %v", back)
		}
		if allocs != 0 {
			t.Fatalf("%s: %.1f allocations a packet", tc.name, allocs)
		}
		if n.Table().Size() != 2 {
			t.Fatalf("%s: table holds %d flows", tc.name, n.Table().Size())
		}
	}
}
