package nfkit

import (
	"vignat/internal/flow"
	"vignat/internal/netstack"
	"vignat/internal/nf"
)

// PktGuards is the embeddable production binding of the guards every
// NF's Env opens with — the parse chain and the arrival side, answered
// from the packet in hand (SymGuards is the symbolic binding of the
// same methods). A per-NF prodEnv embeds it, calls Take per packet, and
// keys its state operations by P.
type PktGuards struct {
	// P is the packet in hand's parse: the adapter's or a chain's.
	P            *nf.Parsed
	FromInternal bool
}

// Take makes pkt the packet in hand. Every packet reaches a core
// through its adapter (Decl.Process), which attaches a parse, so Take
// parses nothing.
func (g *PktGuards) Take(pkt *nf.Pkt) {
	g.P, g.FromInternal = pkt.Parsed, pkt.FromInternal
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
