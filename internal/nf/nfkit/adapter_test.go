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

// probe is a core that records what its declaration's hooks are handed.
type probe struct {
	log     []int        // -len(burst), now per Prefetch; 1 per Process
	fetched []*nf.Parsed // the parses Prefetch saw, in burst order
	seen    []*nf.Parsed // the parse each Process saw
}

// probeDecl declares probe, one shard or, with steer, several.
func probeDecl(steer func(frame []byte, fromInternal bool, shards int) int) nfkit.Decl[*probe] {
	return nfkit.Decl[*probe]{
		Name: "probe",
		New:  func(_, _, _ int) (*probe, error) { return &probe{}, nil },
		Prefetch: func(c *probe, pkts []nf.Pkt, now libvig.Time) {
			c.log = append(c.log, -len(pkts), int(now))
			for i := range pkts {
				c.fetched = append(c.fetched, pkts[i].Parsed)
			}
		},
		Process: func(c *probe, pkt *nf.Pkt, _ libvig.Time) nf.Verdict {
			c.log = append(c.log, 1)
			c.seen = append(c.seen, pkt.Parsed)
			return nf.Forward
		},
		Stats:   func([]uint64) nf.Stats { return nf.Stats{} },
		ShardOf: steer,
	}
}

func sameLog(t *testing.T, got, want []int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("call log %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("call log %v, want %v", got, want)
		}
	}
}

// TestAdapterRunsPrefetchOncePerBurst: the derived batch path calls the
// hook once, before the first packet, with the whole burst and its
// timestamp — and not at all for a lone packet, which has nothing to
// overlap with.
func TestAdapterRunsPrefetchOncePerBurst(t *testing.T) {
	c := &probe{}
	a := probeDecl(nil).Adapt(c)
	verdicts := make([]nf.Verdict, 3)
	a.ProcessBatchAt(burstOf(3), verdicts, 42)
	a.ProcessBatchAt(burstOf(1), verdicts, 43)
	sameLog(t, c.log, []int{-3, 42, 1, 1, 1, 1})
}

// TestShardedBatchRunsPrefetch: a sharded composition runs its bursts
// through the shards' adapters, so the declared Prefetch sees every
// run of consecutive packets one shard owns — the whole burst on one
// shard — and Process every packet after it, at one clock read.
func TestShardedBatchRunsPrefetch(t *testing.T) {
	s, err := nfkit.NewSharded(probeDecl(nil), 1)
	if err != nil {
		t.Fatal(err)
	}
	verdicts := make([]nf.Verdict, 4)
	s.ProcessBatch(burstOf(4), verdicts)
	s.ProcessBatch(burstOf(1), verdicts)
	sameLog(t, s.Core(0).log, []int{-4, 0, 1, 1, 1, 1, 1})

	// Two shards, steered by the frame's last byte: runs of 2, 1 and 3
	// packets.
	steer := func(frame []byte, _ bool, shards int) int { return int(frame[len(frame)-1]) % shards }
	s, err = nfkit.NewSharded(probeDecl(steer), 2)
	if err != nil {
		t.Fatal(err)
	}
	pkts := burstOf(6)
	for i, owner := range []byte{0, 0, 1, 0, 0, 0} {
		pkts[i].Frame[len(pkts[i].Frame)-1] = owner
	}
	s.ProcessBatch(pkts, make([]nf.Verdict, len(pkts)))
	sameLog(t, s.Core(0).log, []int{-2, 0, 1, 1, -3, 0, 1, 1, 1})
	sameLog(t, s.Core(1).log, []int{1})
}

// TestAdapterGivesEachPacketOneParse: the adapter hands Prefetch and
// Process the same parse of each packet, and that parse is what parsing
// the packet's own frame afresh produces — for bursts of any length,
// and also when the packet carried a parse that an NF before this one
// rewrote the frame through (a chain's: the NAT's outbound source
// rewrite, the balancer's VIP rewrite), which the adapter hands down,
// its tuple and hash re-derived, instead of parsing again. No pointer
// into the adapter's own parses stays in the caller's packets.
func TestAdapterGivesEachPacketOneParse(t *testing.T) {
	c := &probe{}
	a := probeDecl(nil).Adapt(c)
	check := func(what string, pkts []nf.Pkt, carried []nf.Parsed) {
		t.Helper()
		if len(c.fetched) != len(pkts) || len(c.seen) != len(pkts) {
			t.Fatalf("%s: Prefetch saw %d parses and Process %d of %d packets", what, len(c.fetched), len(c.seen), len(pkts))
		}
		for i, p := range c.seen {
			var want nf.Parsed
			want.Parse(pkts[i].Frame)
			switch {
			case p == nil || p != c.fetched[i]:
				t.Fatalf("%s packet %d: Process saw %p, Prefetch %p", what, i, p, c.fetched[i])
			case carried != nil && p != &carried[i]:
				t.Fatalf("%s packet %d: the adapter parsed a frame that carried its parse", what, i)
			case carried == nil && pkts[i].Parsed != nil:
				t.Fatalf("%s packet %d: the adapter's parse outlived its burst", what, i)
			case p.ID != want.ID || p.Hash != want.Hash || p.Hash != p.ID.Hash() || !p.Pkt.NATable() ||
				p.Pkt.SrcIP != want.Pkt.SrcIP || p.Pkt.DstIP != want.Pkt.DstIP:
				t.Fatalf("%s packet %d: handed %v/%x, fresh parse %v/%x", what, i, p.ID, p.Hash, want.ID, want.Hash)
			}
		}
		c.fetched, c.seen = c.fetched[:0], c.seen[:0]
	}
	for _, n := range []int{2, 8, 100} {
		pkts := burstOf(n)
		a.ProcessBatch(pkts, make([]nf.Verdict, n))
		check("own", pkts, nil)
	}

	// Shared parses that the element before rewrote the frames through.
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
	for _, tc := range []struct {
		name string
		nf   nf.NF
		pkts []nf.Pkt
	}{{"nat", natNF, burstOf(8)}, {"lb", lb.AsNF(balancer), toVIP}} {
		shared := make([]nf.Parsed, len(tc.pkts))
		before := make([]flow.ID, len(tc.pkts))
		for i := range tc.pkts {
			shared[i].Parse(tc.pkts[i].Frame)
			tc.pkts[i].Parsed, before[i] = &shared[i], shared[i].ID
		}
		verdicts := make([]nf.Verdict, len(tc.pkts))
		tc.nf.ProcessBatch(tc.pkts, verdicts)
		for i := range tc.pkts {
			var fresh nf.Parsed
			fresh.Parse(tc.pkts[i].Frame)
			if verdicts[i] != nf.Forward || fresh.ID == before[i] {
				t.Fatalf("%s packet %d: %v, tuple %v not rewritten", tc.name, i, verdicts[i], fresh.ID)
			}
		}
		a.ProcessBatch(tc.pkts, verdicts)
		check(tc.name, tc.pkts, shared)
	}

	// A lone packet takes the same path, with no Prefetch.
	pkts := burstOf(1)
	a.ProcessBatch(pkts, make([]nf.Verdict, 1))
	if len(c.seen) != 1 || len(c.fetched) != 0 {
		t.Fatalf("a lone packet: Process saw %d parses, Prefetch %d", len(c.seen), len(c.fetched))
	}
	c.fetched = append(c.fetched, c.seen[0])
	check("lone", pkts, nil)
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
