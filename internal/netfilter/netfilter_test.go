package netfilter

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
		SrcIP:   flow.MakeAddr(192, 168, 1, byte(i)),
		SrcPort: uint16(40000 + i),
		DstIP:   flow.MakeAddr(1, 0, 0, 1),
		DstPort: 80,
		Proto:   flow.UDP,
	}
}

func frame(t *testing.T, id flow.ID) []byte {
	t.Helper()
	spec := &netstack.FrameSpec{ID: id, PayloadLen: 8}
	buf := make([]byte, netstack.FrameLen(spec))
	return netstack.Craft(buf, spec)
}

func TestConntrackCreateLookupBothDirections(t *testing.T) {
	ct, err := NewConntrack(16, extIP, 1000, 16)
	if err != nil {
		t.Fatal(err)
	}
	cn := ct.create(key(1), 100)
	if cn == nil {
		t.Fatal("create failed")
	}
	if n := ct.lookup(key(1)); n == nil || n.conn != cn || n.dir != dirOriginal {
		t.Fatal("original-direction lookup failed")
	}
	reply := flow.ID{
		SrcIP: key(1).DstIP, SrcPort: key(1).DstPort,
		DstIP: extIP, DstPort: cn.natPort, Proto: key(1).Proto,
	}
	if n := ct.lookup(reply); n == nil || n.conn != cn || n.dir != dirReply {
		t.Fatal("reply-direction lookup failed")
	}
	if ct.Size() != 1 {
		t.Fatalf("size %d", ct.Size())
	}
}

// TestMasqueradePreservesSourcePort: kernel behaviour — keep the
// original source port when it is free in the NAT range.
func TestMasqueradePreservesSourcePort(t *testing.T) {
	ct, _ := NewConntrack(16, extIP, 40000, 100)
	id := key(1) // src port 40001, inside [40000,40100)
	cn := ct.create(id, 1)
	if cn.natPort != id.SrcPort {
		t.Fatalf("port not preserved: got %d want %d", cn.natPort, id.SrcPort)
	}
	// Second connection with the same source port must get another.
	id2 := id
	id2.SrcIP++
	cn2 := ct.create(id2, 1)
	if cn2.natPort == cn.natPort {
		t.Fatal("port collision")
	}
}

func TestConntrackExpiry(t *testing.T) {
	ct, _ := NewConntrack(16, extIP, 1000, 16)
	ct.create(key(1), 10)
	ct.create(key(2), 20)
	if n := ct.expireBefore(15); n != 1 {
		t.Fatalf("expired %d", n)
	}
	if ct.lookup(key(1)) != nil {
		t.Fatal("stale conn survived")
	}
	if ct.lookup(key(2)) == nil {
		t.Fatal("fresh conn expired")
	}
}

func TestNATProcessEndToEnd(t *testing.T) {
	clock := libvig.NewVirtualClock(0)
	n, err := New(32, extIP, 1000, time.Second, clock)
	if err != nil {
		t.Fatal(err)
	}
	out := frame(t, key(3))
	if v := nfkittest.Send(n, out, true); v != nf.Forward {
		t.Fatalf("outbound %v", v)
	}
	var p netstack.Packet
	_ = p.Parse(out)
	if p.SrcIP != extIP {
		t.Fatal("not masqueraded")
	}
	reply := frame(t, p.FlowID().Reverse())
	if v := nfkittest.Send(n, reply, false); v != nf.Forward {
		t.Fatalf("reply %v", v)
	}
	var q netstack.Packet
	_ = q.Parse(reply)
	if q.DstIP != key(3).SrcIP || q.DstPort != key(3).SrcPort {
		t.Fatal("reply not de-NATed")
	}
}

func TestNATUnsolicitedDropped(t *testing.T) {
	clock := libvig.NewVirtualClock(0)
	n, _ := New(32, extIP, 1000, time.Second, clock)
	stranger := flow.ID{SrcIP: flow.MakeAddr(9, 9, 9, 9), SrcPort: 1, DstIP: extIP, DstPort: 1000, Proto: flow.UDP}
	if v := nfkittest.Send(n, frame(t, stranger), false); v != nf.Drop {
		t.Fatalf("unsolicited %v", v)
	}
	if n.Conntrack().Size() != 0 {
		t.Fatal("unsolicited packet created state")
	}
}

func TestNATTableFull(t *testing.T) {
	clock := libvig.NewVirtualClock(0)
	n, _ := New(2, extIP, 1000, time.Hour, clock)
	for i := 0; i < 2; i++ {
		if v := nfkittest.Send(n, frame(t, key(i)), true); v != nf.Forward {
			t.Fatalf("conn %d: %v", i, v)
		}
	}
	if v := nfkittest.Send(n, frame(t, key(9)), true); v != nf.Drop {
		t.Fatalf("over capacity: %v", v)
	}
}

func TestConntrackPortExhaustion(t *testing.T) {
	// 4 connections but only 2 NAT ports.
	ct, _ := NewConntrack(4, extIP, 50000, 2)
	if ct.create(key(1), 1) == nil || ct.create(key(2), 1) == nil {
		t.Fatal("setup failed")
	}
	if ct.create(key(3), 1) != nil {
		t.Fatal("created connection without a free port")
	}
}
