// Package nfkittest holds what NFs are driven with in tests and
// experiments: Trace, the one description of a randomized packet trace;
// Differential, the driver every NF package runs its generated instance
// under (a trace through the instance and through the hand-written,
// verified interface function, over two cores built alike); and Rig, an
// NF on the engine behind in-memory or kernel-socket wires.
package nfkittest

import (
	"math/rand"
	"reflect"
	"slices"
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

// Trace describes the traffic an NF is driven with: a seeded walk over
// a pool of client flows, replies to what the NF forwarded, traffic
// nobody asked for, and a clock that steps well below the NF's timeout
// and now and then past it.
type Trace struct {
	Seed int64
	// Steps is the trace length in bursts. A burst holds up to Burst
	// packets (none now and then), or exactly one with Burst 0 or 1.
	Steps, Burst int
	// Clients are tuples as the client side sends them. Vary > 0 adds
	// less than Vary to a client's source port, so that flows both
	// repeat and start.
	Clients []flow.ID
	Vary    int
	// ClientsInternal is the side client packets arrive on. Replies to
	// forwarded packets arrive on the other.
	ClientsInternal bool
	// Texp is the NF's inactivity timeout: before each burst the clock
	// advances by less than Texp/Tick (Tick 0: 16), and 1 time in Jump
	// (0: never) by twice Texp instead.
	Texp       time.Duration
	Tick, Jump int
	// Mix weighs the kinds of packet a burst draws (zero: defaultMix).
	Mix Mix
	// Payload > 0 draws payloads below Payload bytes; else 4.
	Payload int
}

// Mix weighs the kinds of packet a trace draws. Client is a client's
// packet; Train two to five of them back to back. Reply is the reverse
// of what the NF forwarded of one, on the other side; Stray such a reply
// from a source nobody talked to, half of them to a neighbouring port.
// Junk is a random UDP tuple on either side, half of them aimed at a
// client's destination. ICMP is a client's tuple no NF translates, Runt
// a client's frame cut short of its headers.
type Mix struct{ Client, Train, Reply, Stray, Junk, ICMP, Runt int }

// defaultMix draws four clients' packets, three replies, two junk and
// one ICMP packet in ten, and a runt in thirty-one.
var defaultMix = Mix{Client: 12, Reply: 9, Junk: 6, ICMP: 3, Runt: 1}

// Packet is one packet of a trace: the tuple it was crafted from, the
// side it arrives on, and its Frame, tagged Seq.
type Packet struct {
	ID       flow.ID
	Internal bool
	Frame    []byte
	Seq      uint32
}

// Walk is a Trace being walked.
type Walk struct {
	tr      Trace
	rng     *rand.Rand
	replies []flow.ID // reverses of forwarded client packets, the last 64
	seq     uint32
}

// Walk starts walking tr.
func (tr Trace) Walk() *Walk {
	if tr.Mix == (Mix{}) {
		tr.Mix = defaultMix
	}
	if tr.Tick == 0 {
		tr.Tick = 16
	}
	return &Walk{tr: tr, rng: rand.New(rand.NewSource(tr.Seed))}
}

// Tick returns how far the clock moves before the next burst.
func (w *Walk) Tick() libvig.Time {
	if w.tr.Jump > 0 && w.rng.Intn(w.tr.Jump) == 0 {
		return libvig.Time(2 * w.tr.Texp)
	}
	return libvig.Time(w.rng.Int63n(int64(w.tr.Texp) / int64(w.tr.Tick)))
}

// Burst draws the next burst.
func (w *Walk) Burst() []Packet {
	n := 1
	if w.tr.Burst > 1 {
		n = w.rng.Intn(w.tr.Burst + 1)
	}
	var ps []Packet
	for len(ps) < n {
		ps = w.next(ps)
	}
	return ps
}

// Forwarded tells the walk that p left the NF as out: the reverse of a
// client-side packet that crossed becomes a reply to draw.
func (w *Walk) Forwarded(p Packet, out Out) {
	var q netstack.Packet
	if p.Internal == w.tr.ClientsInternal && out.Internal != p.Internal &&
		q.Parse([]byte(out.Frame)) == nil && q.NATable() {
		w.replies = append(w.replies, q.FlowID().Reverse())
		if len(w.replies) > 64 {
			w.replies = w.replies[1:]
		}
	}
}

// next appends one draw to ps: one packet, or a train of them.
func (w *Walk) next(ps []Packet) []Packet {
	m, rng := w.tr.Mix, w.rng
	c := w.tr.Clients[rng.Intn(len(w.tr.Clients))]
	if w.tr.Vary > 0 {
		c.SrcPort += uint16(rng.Intn(w.tr.Vary))
	}
	id, internal, copies, runt := c, w.tr.ClientsInternal, 1, false
	r := rng.Intn(m.Client + m.Train + m.Reply + m.Stray + m.Junk + m.ICMP + m.Runt)
	switch {
	case r < m.Client:
	case r < m.Client+m.Train:
		copies = 2 + rng.Intn(4)
	case r < m.Client+m.Train+m.Reply+m.Stray:
		if len(w.replies) == 0 {
			break // nothing forwarded yet: a client's packet
		}
		id, internal = w.replies[rng.Intn(len(w.replies))], !internal
		if r >= m.Client+m.Train+m.Reply {
			id.SrcIP, id.SrcPort = flow.Addr(rng.Uint32()), uint16(rng.Intn(1<<16))
			if rng.Intn(2) == 0 {
				id.DstPort += uint16(rng.Intn(21) - 5)
			}
		}
	case r < m.Client+m.Train+m.Reply+m.Stray+m.Junk:
		id = flow.ID{
			SrcIP: flow.Addr(rng.Uint32()), DstIP: flow.Addr(rng.Uint32()),
			SrcPort: uint16(rng.Intn(1 << 16)), DstPort: uint16(rng.Intn(1 << 16)), Proto: flow.UDP,
		}
		if rng.Intn(2) == 0 {
			id.DstIP, id.DstPort = c.DstIP, c.DstPort
		}
		internal = rng.Intn(2) == 0
	case r < m.Client+m.Train+m.Reply+m.Stray+m.Junk+m.ICMP:
		id.Proto = flow.ICMP
	default:
		runt = true
	}
	for range copies {
		payload := 4
		if w.tr.Payload > 0 {
			payload = rng.Intn(w.tr.Payload)
		}
		w.seq++
		f := Frame(id, payload, w.seq)
		if runt {
			f = f[:rng.Intn(netstack.EthHeaderLen+netstack.IPv4MinLen)]
		}
		ps = append(ps, Packet{ID: id, Internal: internal, Frame: f, Seq: w.seq})
	}
	return ps
}

// TB is the part of testing.TB that Differential reports through.
type TB interface {
	Helper()
	Fatalf(format string, args ...any)
}

// Differential builds two cores of d and runs one randomized trace
// through both, applying at (if set) to each before every step: core a
// through d.Process, which runs the NF's generated instance, core b
// through iface, which runs the interface function the proof covers
// over the same production Env, each handed the packet with its parse
// attached, as the adapter hands it.
// After every packet the verdicts and reasons, the frame bytes and the
// counter arrays must agree, and every few hundred packets and at the
// end so must d.Snapshot; by the end the trace must have reached every
// reason d declares.
func Differential[C any](t TB, d nfkit.Decl[C], at func(core C, step int), iface func(C, *nf.Pkt, libvig.Time) (nf.Verdict, telemetry.ReasonID), tr Trace) {
	t.Helper()
	cores := make([]C, 2)
	for i := range cores {
		c, err := d.New(0, 1, d.Capacity)
		if err != nil {
			t.Fatalf("%v", err)
		}
		cores[i] = c
	}
	a, b := cores[0], cores[1]
	reached := make([]bool, d.Reasons.Len())
	w := tr.Walk()
	var now libvig.Time
	for i := 0; i < tr.Steps; i++ {
		for _, c := range cores {
			if at != nil {
				at(c, i)
			}
		}
		now += w.Tick()
		for _, p := range w.Burst() {
			// Each side gets the parse its adapter would attach.
			var qa, qb nf.Parsed
			pa := nf.Pkt{Frame: p.Frame, FromInternal: p.Internal, Parsed: &qa}
			pb := nf.Pkt{Frame: slices.Clone(p.Frame), FromInternal: p.Internal, Parsed: &qb}
			qa.Parse(pa.Frame)
			qb.Parse(pb.Frame)
			va, ra := d.Process(a, &pa, now)
			vb, rb := iface(b, &pb, now)
			if va != vb || ra != rb || !slices.Equal(pa.Frame, pb.Frame) {
				t.Fatalf("packet %d (%v, internal=%v): instance %v/%s % x, interface %v/%s % x", i, p.ID, p.Internal,
					va, d.Reasons.Name(ra), pa.Frame, vb, d.Reasons.Name(rb), pb.Frame)
			}
			reached[ra] = true
			if ca, cb := d.Counters(a), d.Counters(b); !slices.Equal(ca, cb) {
				t.Fatalf("packet %d: counters diverged: instance %v, interface %v", i, ca, cb)
			}
			if va == nf.Forward {
				w.Forwarded(p, Out{Internal: !p.Internal, Frame: string(pa.Frame)})
			}
		}
		if i%256 == 255 || i == tr.Steps-1 {
			if sa, sb := d.Snapshot(a), d.Snapshot(b); !reflect.DeepEqual(sa, sb) {
				t.Fatalf("packet %d: state diverged:\ninstance  %v\ninterface %v", i, sa, sb)
			}
		}
	}
	var missed []string
	for r, ok := range reached {
		if !ok {
			missed = append(missed, d.Reasons.Name(telemetry.ReasonID(r)))
		}
	}
	if len(missed) > 0 {
		t.Fatalf("the trace never reached %v", missed)
	}
}
