package unverified

import (
	"time"

	"vignat/internal/flow"
	"vignat/internal/libvig"
	"vignat/internal/netstack"
	"vignat/internal/nf"
)

// NAT is the unverified baseline NAT. Its observable behaviour matches
// RFC 3022 like VigNAT's (same Fig. 6 semantics, same capacity), but it
// is written as one straight-line imperative function — no stateless/Env
// split, no contracts, no ownership discipline — the way a performance-
// focused developer writes a DPDK NF. It is an nf.NF, entered a burst at
// a time like the verified NAT's adapter, so the figures and the
// spec-conformance tests treat all NATs uniformly.
type NAT struct {
	table   *ChainTable
	clock   libvig.Clock
	timeout libvig.Time
	pkt     netstack.Packet

	processed uint64
	dropped   uint64
}

// New builds an unverified NAT with capacity flows behind extIP.
func New(capacity int, extIP flow.Addr, portBase uint16, timeout time.Duration, clock libvig.Clock) (*NAT, error) {
	t, err := NewChainTable(capacity, extIP, portBase)
	if err != nil {
		return nil, err
	}
	return &NAT{table: t, clock: clock, timeout: timeout.Nanoseconds()}, nil
}

var _ nf.NF = (*NAT)(nil)

// Table exposes the flow table for tests.
func (n *NAT) Table() *ChainTable { return n.table }

// Name identifies the NF.
func (n *NAT) Name() string { return "unverified" }

// ProcessBatch runs each packet through process, in order.
func (n *NAT) ProcessBatch(pkts []nf.Pkt, verdicts []nf.Verdict) {
	for i := range pkts {
		verdicts[i] = n.process(pkts[i].Frame, pkts[i].FromInternal)
	}
}

// Expire frees every session idle since before now−Texp: expire when
// last+Texp <= now (Fig. 6), i.e. last < now-Texp+1.
func (n *NAT) Expire(now libvig.Time) int { return n.table.ExpireBefore(now - n.timeout + 1) }

// NFStats reports the packets processed and dropped.
func (n *NAT) NFStats() nf.Stats {
	return nf.Stats{Processed: n.processed, Forwarded: n.processed - n.dropped, Dropped: n.dropped}
}

// process runs one frame through the NAT, rewriting it in place when
// forwarding. It implements the same externally visible semantics as
// VigNAT's verified pipeline.
func (n *NAT) process(frame []byte, fromInternal bool) nf.Verdict {
	n.processed++
	now := n.clock.Now()
	n.Expire(now)

	p := &n.pkt
	if err := p.Parse(frame); err != nil || !p.NATable() {
		n.dropped++
		return nf.Drop
	}
	id := p.FlowID()
	if fromInternal {
		s := n.table.LookupInt(id)
		if s == nil {
			s = n.table.Add(id, now)
			if s == nil {
				n.dropped++
				return nf.Drop
			}
		} else {
			n.table.Rejuvenate(s, now)
		}
		p.SetSrcIP(s.f.ExtKey.DstIP)
		p.SetSrcPort(s.f.ExtPort())
		return nf.Forward
	}
	s := n.table.LookupExt(id)
	if s == nil {
		n.dropped++
		return nf.Drop
	}
	n.table.Rejuvenate(s, now)
	p.SetDstIP(s.f.IntIP())
	p.SetDstPort(s.f.IntPort())
	return nf.Forward
}
