package nfkit_test

import (
	"testing"
	"time"

	"vignat/internal/flow"
	"vignat/internal/lb"
	"vignat/internal/libvig"
	"vignat/internal/nat"
	"vignat/internal/nf"
	"vignat/internal/nf/nfkit"
)

func burstOf(n int) []nf.Pkt {
	pkts := make([]nf.Pkt, n)
	for i := range pkts {
		pkts[i] = nf.Pkt{FromInternal: true, Frame: craft(flow.ID{
			SrcIP: flow.MakeAddr(10, 0, byte(i>>8), byte(i)), SrcPort: uint16(1000 + i),
			DstIP: flow.MakeAddr(93, 184, 216, 34), DstPort: 80, Proto: flow.UDP,
		})}
	}
	return pkts
}

// TestBurstHandsEachParseToItsOwnFrame: the scratch gives a packet its
// entry only when asked for the frames in the order they were parsed,
// and an entry is what parsing the frame afresh would have produced —
// also when the packet carried a parse that an NF before this one
// rewrote the frame through (a chain's), which the scratch hands out
// instead of parsing again, its tuple and hash re-derived.
func TestBurstHandsEachParseToItsOwnFrame(t *testing.T) {
	var b nfkit.Burst
	pkts := burstOf(8)
	if got := b.Fill(pkts); len(got) != len(pkts) {
		t.Fatalf("filled %d of %d", len(got), len(pkts))
	}
	var own nf.Parsed
	fromScratch := func(pkt nf.Pkt) bool { return b.Take(&pkt, &own) != &own }
	for i := range pkts {
		p := b.Take(&pkts[i], &own)
		if p == &own {
			t.Fatalf("packet %d: no entry", i)
		}
		var want nf.Parsed
		want.Parse(pkts[i].Frame)
		if p.ID != want.ID || p.Hash != want.Hash || p.Hash != p.ID.Hash() || !p.Pkt.NATable() {
			t.Fatalf("packet %d: entry %+v, fresh parse %+v", i, p, want)
		}
	}
	if fromScratch(pkts[0]) {
		t.Fatal("a drained scratch handed out an entry")
	}
	if own.ID != b.Fill(pkts)[0].ID {
		t.Fatal("the fallback did not parse the frame")
	}

	// Out of order: the scratch disarms rather than guess.
	b.Fill(pkts)
	if fromScratch(pkts[1]) {
		t.Fatal("packet 1 was handed packet 0's entry")
	}
	if fromScratch(pkts[0]) {
		t.Fatal("a disarmed scratch handed out an entry")
	}

	// A same-length copy of the right frame is still not the frame.
	b.Fill(pkts)
	if fromScratch(nf.Pkt{Frame: append([]byte(nil), pkts[0].Frame...), FromInternal: true}) {
		t.Fatal("an entry went to a frame it was not parsed from")
	}

	// A burst longer than the scratch: the tail parses for itself.
	long := burstOf(100)
	kept := len(b.Fill(long))
	if kept == 0 || kept >= len(long) {
		t.Fatalf("kept %d entries of a %d-packet burst", kept, len(long))
	}
	for i := range long {
		if got := fromScratch(long[i]); got != (i < kept) {
			t.Fatalf("packet %d of a long burst: entry=%v", i, got)
		}
	}

	// Shared parses that the element before rewrote the frames through:
	// the NAT's outbound source rewrite, the balancer's VIP rewrite.
	clock := libvig.NewVirtualClock(0)
	natNF := nat.AsNF(mustNAT(t, clock))
	balancer, err := lb.New(lb.Config{VIP: confVIP, VIPPort: 443, Capacity: 64, Timeout: time.Minute, MaxBackends: 1}, clock)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := balancer.AddBackend(flow.MakeAddr(10, 1, 0, 10), 0); err != nil {
		t.Fatal(err)
	}
	toVIP := make([]nf.Pkt, 8)
	for i := range toVIP {
		toVIP[i] = nf.Pkt{Frame: craft(flow.ID{
			SrcIP: flow.MakeAddr(203, 0, 0, byte(1+i)), SrcPort: uint16(20000 + i),
			DstIP: confVIP, DstPort: 443, Proto: flow.UDP,
		})}
	}
	for _, c := range []struct {
		name string
		nf   nf.NF
		pkts []nf.Pkt
	}{{"nat", natNF, burstOf(8)}, {"lb", lb.AsNF(balancer), toVIP}} {
		shared := make([]nf.Parsed, len(c.pkts))
		before := make([]flow.ID, len(c.pkts))
		for i := range c.pkts {
			shared[i].Parse(c.pkts[i].Frame)
			c.pkts[i].Parsed, before[i] = &shared[i], shared[i].ID
		}
		verdicts := make([]nf.Verdict, len(c.pkts))
		c.nf.ProcessBatch(c.pkts, verdicts)
		ents := b.Fill(c.pkts)
		for i, p := range ents {
			var want nf.Parsed
			want.Parse(c.pkts[i].Frame)
			switch {
			case verdicts[i] != nf.Forward:
				t.Fatalf("%s packet %d: %v", c.name, i, verdicts[i])
			case p != &shared[i]:
				t.Fatalf("%s packet %d: the scratch parsed a frame that carried its parse", c.name, i)
			case want.ID == before[i]:
				t.Fatalf("%s packet %d: not rewritten", c.name, i)
			case p.ID != want.ID || p.Hash != want.Hash || p.Pkt.SrcIP != want.Pkt.SrcIP || p.Pkt.DstIP != want.Pkt.DstIP:
				t.Fatalf("%s packet %d: refreshed %v/%x, fresh parse %v/%x", c.name, i, p.ID, p.Hash, want.ID, want.Hash)
			}
			if b.Take(&c.pkts[i], &own) != p {
				t.Fatalf("%s packet %d: the armed scratch did not hand out the shared parse", c.name, i)
			}
		}
	}
}

// mustNAT is a 64-flow NAT for the tests here.
func mustNAT(t *testing.T, clock libvig.Clock) *nat.NAT {
	t.Helper()
	n, err := nat.New(nat.Config{
		Capacity: 64, Timeout: time.Minute, ExternalIP: flow.MakeAddr(198, 18, 1, 1),
		PortBase: 1000, InternalPort: 0, ExternalPort: 1,
	}, clock)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestAdapterRunsPrefetchOncePerBurst: the derived batch path calls the
// hook once, before the first packet, with the whole burst and its
// timestamp — and not at all for a lone packet, which has nothing to
// overlap with.
func TestAdapterRunsPrefetchOncePerBurst(t *testing.T) {
	type core struct{ log []int }
	d := nfkit.Decl[*core]{
		Name: "probe",
		Prefetch: func(c *core, pkts []nf.Pkt, now libvig.Time) {
			c.log = append(c.log, -len(pkts), int(now))
		},
		Process: func(c *core, _ *nf.Pkt, _ libvig.Time) nf.Verdict {
			c.log = append(c.log, 1)
			return nf.Forward
		},
		Stats: func([]uint64) nf.Stats { return nf.Stats{} },
	}
	c := &core{}
	a := d.Adapt(c)
	verdicts := make([]nf.Verdict, 3)
	a.ProcessBatchAt(burstOf(3), verdicts, 42)
	a.ProcessBatchAt(burstOf(1), verdicts, 43)
	want := []int{-3, 42, 1, 1, 1, 1}
	if len(c.log) != len(want) {
		t.Fatalf("call log %v, want %v", c.log, want)
	}
	for i := range want {
		if c.log[i] != want[i] {
			t.Fatalf("call log %v, want %v", c.log, want)
		}
	}
}
