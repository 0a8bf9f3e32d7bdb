package nfkit

import (
	"vignat/internal/flow"
	"vignat/internal/netstack"
	"vignat/internal/nf"
)

// burstPrefetchMax bounds the packets of one burst a Burst keeps; the
// rest of a longer burst is parsed by the per-packet path as before.
const burstPrefetchMax = 64

// Burst is the per-burst scratch a core's Prefetch hook fills and its
// Process drains, so that a packet is parsed and hashed once: the hook
// parses the whole burst up front (to know which table lines to start
// loading), and Process takes each packet's entry instead of parsing
// again. Entries are taken strictly in burst order and only by the very
// frame they were parsed from; anything else disarms the scratch and
// every later packet is parsed afresh. This rests on what holds of
// any burst of mbufs: its frames are distinct buffers, and between the
// hook and packet i's Process only the Process of packets before i
// runs, which writes no frame but its own.
//
// A packet that carries its parse (nf.Pkt.Parsed, a chain's) is never
// parsed here: its entry is that parse, refreshed, so that an element
// after one that rewrote the frame keys its state by the rewritten
// tuple.
type Burst struct {
	n, next int
	ents    [burstPrefetchMax]*nf.Parsed
	parses  [burstPrefetchMax]nf.Parsed // the entries parsed here
}

// Fill arms the scratch with the parses of the burst's leading packets
// and returns them, index-aligned with pkts.
func (b *Burst) Fill(pkts []nf.Pkt) []*nf.Parsed {
	b.n, b.next = min(len(pkts), len(b.ents)), 0
	for i := range b.ents[:b.n] {
		b.ents[i] = parseOf(&pkts[i], &b.parses[i])
	}
	return b.ents[:b.n]
}

// Take returns pkt's parse: the scratch's entry when pkt's frame is the
// next one due, and otherwise parseOf's.
func (b *Burst) Take(pkt *nf.Pkt, own *nf.Parsed) *nf.Parsed {
	if b.next < b.n {
		p := b.ents[b.next]
		if d := p.Pkt.Data; len(d) == len(pkt.Frame) && len(d) > 0 && &d[0] == &pkt.Frame[0] {
			b.next++
			return p
		}
		b.n = 0
	}
	return parseOf(pkt, own)
}

// parseOf is the parse pkt carries, refreshed, or else own, parsed here.
func parseOf(pkt *nf.Pkt, own *nf.Parsed) *nf.Parsed {
	if p := pkt.Parsed; p != nil {
		p.Refresh()
		return p
	}
	own.Parse(pkt.Frame)
	return own
}

// PktGuards is the embeddable production binding of the guards every
// NF's Env opens with — the parse chain and the arrival side, answered
// from the packet in hand (SymGuards is the symbolic binding of the
// same methods). A per-NF prodEnv embeds it, calls Take per packet, and
// keys its state operations by P.
type PktGuards struct {
	// P is the packet in hand: the parse it carried, the burst scratch's
	// entry when the Prefetch hook parsed this frame, own otherwise.
	P            *nf.Parsed
	own          nf.Parsed
	FromInternal bool
}

// Take makes pkt the packet in hand (see Burst.Take).
func (g *PktGuards) Take(b *Burst, pkt *nf.Pkt) {
	g.P = b.Take(pkt, &g.own)
	g.FromInternal = pkt.FromInternal
}

// TakeHeaders is Take for an NF that keys nothing by the 5-tuple and so
// keeps no burst scratch (the policer): P is the parse pkt carries, or
// else own with the headers parsed and ID and Hash left underived —
// such an NF must not read them.
func (g *PktGuards) TakeHeaders(pkt *nf.Pkt) {
	if g.P = pkt.Parsed; g.P == nil {
		_ = g.own.Pkt.Parse(pkt.Frame) // the validity flags carry the outcome
		g.P = &g.own
	}
	g.FromInternal = pkt.FromInternal
}

func (g *PktGuards) FrameIntact() bool     { return len(g.P.Pkt.Data) >= netstack.EthHeaderLen }
func (g *PktGuards) EtherIsIPv4() bool     { return g.P.Pkt.EtherType == netstack.EtherTypeIPv4 }
func (g *PktGuards) IPv4HeaderValid() bool { return g.P.Pkt.L3Valid }
func (g *PktGuards) NotFragment() bool     { return !g.P.Pkt.Fragment }
func (g *PktGuards) L4Supported() bool {
	return g.P.Pkt.Proto == flow.TCP || g.P.Pkt.Proto == flow.UDP
}
func (g *PktGuards) L4HeaderIntact() bool     { return g.P.Pkt.L4Valid }
func (g *PktGuards) PacketFromInternal() bool { return g.FromInternal }
