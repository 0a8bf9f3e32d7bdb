package nfkit

import (
	"vignat/internal/flow"
	"vignat/internal/netstack"
	"vignat/internal/nf"
)

// Parsed is what a flow-table NF needs of a frame before it touches its
// state: the header parse, the 5-tuple and the 5-tuple's hash — the key
// and the hash of every lookup and insert the packet will make.
type Parsed struct {
	Pkt  netstack.Packet
	ID   flow.ID // Pkt.FlowID()
	Hash uint64  // ID.Hash()
}

// Parse fills p from frame.
func (p *Parsed) Parse(frame []byte) {
	_ = p.Pkt.Parse(frame) // the validity flags carry the outcome
	p.ID = p.Pkt.FlowID()
	p.Hash = p.ID.Hash()
}

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
type Burst struct {
	n, next int
	ents    [burstPrefetchMax]Parsed
}

// Fill parses the burst's leading packets into the scratch, arms it, and
// returns the entries, index-aligned with pkts.
func (b *Burst) Fill(pkts []nf.Pkt) []Parsed {
	b.n, b.next = min(len(pkts), len(b.ents)), 0
	for i := range b.ents[:b.n] {
		b.ents[i].Parse(pkts[i].Frame)
	}
	return b.ents[:b.n]
}

// Take returns frame's parse: the scratch's entry when frame is the next
// one due, and otherwise own, parsed here.
func (b *Burst) Take(frame []byte, own *Parsed) *Parsed {
	if b.next < b.n {
		p := &b.ents[b.next]
		if d := p.Pkt.Data; len(d) == len(frame) && len(d) > 0 && &d[0] == &frame[0] {
			b.next++
			return p
		}
		b.n = 0
	}
	own.Parse(frame)
	return own
}

// PktGuards is the embeddable production binding of the guards every
// flow-table NF's Env opens with — the six-predicate parse chain and
// the arrival side, answered from the packet in hand (SymGuards is the
// symbolic binding of the same methods). A per-NF prodEnv embeds it,
// calls Take per packet, and keys its state operations by P.
type PktGuards struct {
	// P is the packet in hand: the burst scratch's entry when the
	// Prefetch hook parsed this frame, own otherwise.
	P            *Parsed
	own          Parsed
	FromInternal bool
}

// Take makes frame the packet in hand (see Burst.Take).
func (g *PktGuards) Take(b *Burst, frame []byte, fromInternal bool) {
	g.P = b.Take(frame, &g.own)
	g.FromInternal = fromInternal
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
