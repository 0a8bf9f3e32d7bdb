package unverified

import (
	"testing"
	"time"

	"vignat/internal/flow"
	"vignat/internal/libvig"
	"vignat/internal/netstack"
	"vignat/internal/nf"
	"vignat/internal/nf/nfkit/nfkittest"
)

var extIP = flow.MakeAddr(198, 18, 1, 1)

func key(i int) flow.ID {
	return flow.ID{
		SrcIP:   flow.MakeAddr(10, 0, 1, byte(i)),
		SrcPort: uint16(30000 + i),
		DstIP:   flow.MakeAddr(1, 1, 1, 1),
		DstPort: 443,
		Proto:   flow.TCP,
	}
}

func TestChainTableAddLookup(t *testing.T) {
	ct, err := NewChainTable(8, extIP, 1000)
	if err != nil {
		t.Fatal(err)
	}
	s := ct.Add(key(1), 100)
	if s == nil {
		t.Fatal("add failed")
	}
	if ct.LookupInt(key(1)) != s {
		t.Fatal("LookupInt failed")
	}
	if ct.LookupExt(s.f.ExtKey) != s {
		t.Fatal("LookupExt failed")
	}
	if !s.f.Consistent(extIP) {
		t.Fatalf("inconsistent session flow %v", &s.f)
	}
	if ct.LookupInt(key(2)) != nil {
		t.Fatal("phantom lookup hit")
	}
}

func TestChainTableCapacityAndPortScheme(t *testing.T) {
	ct, _ := NewChainTable(4, extIP, 2000)
	ports := map[uint16]bool{}
	for i := 0; i < 4; i++ {
		s := ct.Add(key(i), 1)
		if s == nil {
			t.Fatalf("add %d failed", i)
		}
		p := s.f.ExtPort()
		if p < 2000 || p >= 2004 || ports[p] {
			t.Fatalf("bad port %d", p)
		}
		ports[p] = true
	}
	if ct.Add(key(9), 1) != nil {
		t.Fatal("added past capacity")
	}
}

func TestChainTableExpiry(t *testing.T) {
	ct, _ := NewChainTable(8, extIP, 1000)
	a := ct.Add(key(0), 10)
	b := ct.Add(key(1), 20)
	ct.Rejuvenate(a, 30)
	if n := ct.ExpireBefore(25); n != 1 {
		t.Fatalf("expired %d want 1", n)
	}
	if ct.LookupInt(key(1)) != nil {
		t.Fatal("stale session survived")
	}
	if ct.LookupInt(key(0)) != a {
		t.Fatal("rejuvenated session expired")
	}
	_ = b
}

func TestChainTableRemoveRecycles(t *testing.T) {
	ct, _ := NewChainTable(2, extIP, 1000)
	a := ct.Add(key(0), 1)
	ct.Remove(a)
	if ct.Size() != 0 {
		t.Fatal("remove failed")
	}
	ct.Remove(a) // double remove must be a no-op
	if ct.Add(key(1), 2) == nil || ct.Add(key(2), 2) == nil {
		t.Fatal("slab not recycled")
	}
}

func TestChainTableForEach(t *testing.T) {
	ct, _ := NewChainTable(8, extIP, 1000)
	for i := 0; i < 5; i++ {
		ct.Add(key(i), libvig.Time(i))
	}
	n := 0
	ct.ForEach(func(f *flow.Flow, last libvig.Time) bool {
		n++
		return true
	})
	if n != 5 {
		t.Fatalf("ForEach visited %d", n)
	}
}

func TestUnverifiedNATBasics(t *testing.T) {
	clock := libvig.NewVirtualClock(0)
	n, err := New(64, extIP, 1000, time.Second, clock)
	if err != nil {
		t.Fatal(err)
	}
	spec := &netstack.FrameSpec{ID: key(1), PayloadLen: 8}
	buf := make([]byte, netstack.FrameLen(spec))
	f := netstack.Craft(buf, spec)
	if v := nfkittest.Send(n, f, true); v != nf.Forward {
		t.Fatalf("outbound %v", v)
	}
	var p netstack.Packet
	_ = p.Parse(f)
	if p.SrcIP != extIP {
		t.Fatal("not masqueraded")
	}
	if !p.VerifyIPChecksum() || !p.VerifyL4Checksum() {
		t.Fatal("rewrite broke checksums")
	}
	// Reply path.
	reply := netstack.Craft(buf, &netstack.FrameSpec{ID: p.FlowID().Reverse()})
	if v := nfkittest.Send(n, reply, false); v != nf.Forward {
		t.Fatalf("reply %v", v)
	}
	if _ = p.Parse(reply); p.DstIP != key(1).SrcIP || p.DstPort != key(1).SrcPort {
		t.Fatal("reply not de-NATed")
	}
	if s := n.NFStats(); s.Processed != 2 || s.Forwarded != 2 || s.Dropped != 0 {
		t.Fatalf("counters %+v", s)
	}
}

// TestUnverifiedNATNoAllocs: the baseline is also allocation-free, so
// the Fig. 12/14 comparison measures data structures, not allocators.
func TestUnverifiedNATNoAllocs(t *testing.T) {
	clock := libvig.NewVirtualClock(0)
	n, _ := New(1024, extIP, 1000, time.Second, clock)
	spec := &netstack.FrameSpec{ID: key(1), PayloadLen: 8}
	buf := make([]byte, netstack.FrameLen(spec))
	fresh := netstack.Craft(buf, spec)
	work := make([]byte, len(fresh))
	pkts, verdicts := []nf.Pkt{{Frame: work, FromInternal: true}}, make([]nf.Verdict, 1)
	copy(work, fresh)
	n.ProcessBatch(pkts, verdicts)
	allocs := testing.AllocsPerRun(200, func() {
		copy(work, fresh)
		clock.Advance(10)
		n.ProcessBatch(pkts, verdicts)
	})
	if allocs != 0 {
		t.Fatalf("fast path allocates %.1f times per packet", allocs)
	}
}
