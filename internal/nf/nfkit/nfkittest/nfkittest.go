// Package nfkittest holds the test driver every NF package runs its
// generated instance under: the same randomized trace through the
// instance (the declaration's Process) and through the hand-written,
// verified interface function, over two cores built alike.
package nfkittest

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"vignat/internal/flow"
	"vignat/internal/libvig"
	"vignat/internal/netstack"
	"vignat/internal/nf"
	"vignat/internal/nf/nfkit"
	"vignat/internal/nf/telemetry"
)

// Send hands frame to n as a one-packet burst and returns its verdict.
func Send(n nf.NF, frame []byte, fromInternal bool) nf.Verdict {
	v := make([]nf.Verdict, 1)
	n.ProcessBatch([]nf.Pkt{{Frame: frame, FromInternal: fromInternal}}, v)
	return v[0]
}

// Trace describes the traffic one NF is driven with.
type Trace struct {
	// Clients are tuples as the client side sends them; the trace varies
	// their source ports so that flows both repeat and start.
	Clients []flow.ID
	// ClientsInternal is the side client packets arrive on. Replies to
	// forwarded packets arrive on the other.
	ClientsInternal bool
	// Texp is the NF's inactivity timeout: the trace advances the clock
	// in steps well below it, and now and then by twice it.
	Texp time.Duration
	// Packets is the trace length.
	Packets int
}

// Differential builds two cores of d, applies setup to each, and runs
// one randomized trace through both: core a through d.Process, which
// runs the NF's generated instance, core b through iface, which runs
// the interface function the proof covers over the same production Env.
// After every packet the verdicts, the frame bytes and the counter
// arrays must agree, and every few hundred packets and at the end so
// must d.Snapshot; by the end the trace must have reached every reason
// d declares.
func Differential[C any](t *testing.T, d nfkit.Decl[C], setup func(C), iface func(C, *nf.Pkt, libvig.Time) nf.Verdict, tr Trace) {
	t.Helper()
	cores := make([]C, 2)
	for i := range cores {
		c, err := d.New(0, 1, d.Capacity)
		if err != nil {
			t.Fatal(err)
		}
		if setup != nil {
			setup(c)
		}
		cores[i] = c
	}
	a, b := cores[0], cores[1]
	rng := rand.New(rand.NewSource(1))
	var now libvig.Time
	var replies []flow.ID // reverses of forwarded client packets
	for i := 0; i < tr.Packets; i++ {
		if rng.Intn(300) == 0 {
			now += libvig.Time(2 * tr.Texp)
		} else {
			now += libvig.Time(rng.Int63n(int64(tr.Texp / 16)))
		}
		id, fromInternal := tr.next(rng, replies)
		frame := craft(rng, id)
		pa := nf.Pkt{Frame: frame, FromInternal: fromInternal}
		pb := nf.Pkt{Frame: slices.Clone(frame), FromInternal: fromInternal}
		va, vb := d.Process(a, &pa, now), iface(b, &pb, now)
		if va != vb || !slices.Equal(pa.Frame, pb.Frame) {
			t.Fatalf("packet %d (%v, internal=%v): instance %v % x, interface %v % x", i, id, fromInternal, va, pa.Frame, vb, pb.Frame)
		}
		if ca, cb := d.Counters(a), d.Counters(b); !slices.Equal(ca, cb) {
			t.Fatalf("packet %d: counters diverged: instance %v, interface %v", i, ca, cb)
		}
		if i%256 == 255 || i == tr.Packets-1 {
			if sa, sb := d.Snapshot(a), d.Snapshot(b); !reflect.DeepEqual(sa, sb) {
				t.Fatalf("packet %d: state diverged:\ninstance  %v\ninterface %v", i, sa, sb)
			}
		}
		if va == nf.Forward && fromInternal == tr.ClientsInternal && len(frame) > netstack.EthHeaderLen {
			var p netstack.Packet
			if p.Parse(pa.Frame) == nil && p.NATable() {
				replies = append(replies, p.FlowID().Reverse())
				if len(replies) > 64 {
					replies = replies[1:]
				}
			}
		}
	}
	for r, n := range d.Counters(a)[:d.Reasons.Len()] {
		if n == 0 {
			t.Errorf("the trace never reached %s", d.Reasons.Name(telemetry.ReasonID(r)))
		}
	}
}

// next draws one packet: a client's, a reply to one the NF forwarded,
// unsolicited traffic on either side, or a tuple no NF can translate.
func (tr *Trace) next(rng *rand.Rand, replies []flow.ID) (flow.ID, bool) {
	switch r := rng.Intn(10); {
	case r < 4 || r < 7 && len(replies) == 0:
		id := tr.Clients[rng.Intn(len(tr.Clients))]
		id.SrcPort += uint16(rng.Intn(8))
		return id, tr.ClientsInternal
	case r < 7:
		return replies[rng.Intn(len(replies))], !tr.ClientsInternal
	case r < 9:
		id := flow.ID{
			SrcIP: flow.Addr(rng.Uint32()), DstIP: flow.Addr(rng.Uint32()),
			SrcPort: uint16(rng.Intn(1 << 16)), DstPort: uint16(rng.Intn(1 << 16)), Proto: flow.UDP,
		}
		if rng.Intn(2) == 0 {
			// Aimed at the NF: a client's destination, a reply's source.
			c := tr.Clients[rng.Intn(len(tr.Clients))]
			id.DstIP, id.DstPort = c.DstIP, c.DstPort
		}
		return id, rng.Intn(2) == 0
	default:
		id := tr.Clients[rng.Intn(len(tr.Clients))]
		id.Proto = flow.ICMP
		return id, tr.ClientsInternal
	}
}

// craft builds id's frame with a random payload length; one frame in
// thirty is cut short of its headers.
func craft(rng *rand.Rand, id flow.ID) []byte {
	s := &netstack.FrameSpec{ID: id, PayloadLen: rng.Intn(1400)}
	f := netstack.Craft(make([]byte, netstack.FrameLen(s)), s)
	if rng.Intn(30) == 0 {
		f = f[:rng.Intn(netstack.EthHeaderLen+netstack.IPv4MinLen)]
	}
	return f
}
