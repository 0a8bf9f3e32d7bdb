package nf

import (
	"errors"
	"strings"

	"vignat/internal/libvig"
)

// Chain composes NFs into a service chain on the internal→external
// axis: elems[0] sits closest to the internal network, elems[len-1]
// closest to the external one. A frame from the internal side traverses
// the chain left to right; a frame from the external side traverses it
// right to left — the standard middlebox ordering, and the one that
// makes a firewall→NAT home gateway work (outbound packets are
// firewalled pre-translation, inbound replies are translated back
// before the firewall matches them against the session table).
//
// The first element to drop wins; later elements never see the packet.
type Chain struct {
	name  string
	elems []NF

	// Batch scratch (grown on demand, stable afterwards): ProcessBatch
	// runs each element once over the whole surviving burst, so the
	// element's code and state stay hot in cache for the burst instead
	// of being evicted per packet — the i-cache batching DPDK service
	// chains rely on. parses[i] is packet i's one parse, which every
	// element is handed instead of parsing and hashing the frame again.
	batchPkts []Pkt
	batchVerd []Verdict
	batchIdx  []int
	parses    []Parsed

	// lastDrop is the index (internal→external order) of the element
	// that dropped the most recently dropped packet, -1 before the
	// first drop — the trace ring's "which chain element" label. One
	// plain store per dropped packet, owner goroutine only.
	lastDrop int

	stats Stats

	// block is the chain's forwarded and dropped counts as of its last
	// Publish: all a scrape reads of the chain's own counters.
	block *Block
}

var (
	_ NF        = (*Chain)(nil)
	_ Publisher = (*Chain)(nil)
	_ Scraper   = (*Chain)(nil)
)

// NewChain builds a chain from elems, ordered internal→external.
func NewChain(name string, elems ...NF) (*Chain, error) {
	if len(elems) == 0 {
		return nil, errors.New("nf: empty chain")
	}
	for _, e := range elems {
		if e == nil {
			return nil, errors.New("nf: nil chain element")
		}
	}
	return &Chain{name: name, elems: elems, lastDrop: -1, block: NewBlock(2)}, nil
}

// LastDropElem returns the internal→external index of the element that
// dropped the most recently dropped packet (-1 before any drop).
// Owner goroutine only, like every other hot-path counter.
func (c *Chain) LastDropElem() int { return c.lastDrop }

// LastReasonName returns the declared reason label of the element that
// dropped the most recently dropped packet, when that element exposes
// one — the chain itself declares no taxonomy, its elements do.
func (c *Chain) LastReasonName() string {
	if c.lastDrop < 0 || c.lastDrop >= len(c.elems) {
		return ""
	}
	if e, ok := c.elems[c.lastDrop].(interface{ LastReasonName() string }); ok {
		return e.LastReasonName()
	}
	return ""
}

// Name returns the chain's name plus its element names.
func (c *Chain) Name() string {
	names := make([]string, len(c.elems))
	for i, e := range c.elems {
		names[i] = e.Name()
	}
	return c.name + "[" + strings.Join(names, "→") + "]"
}

// Elems returns the chain's elements, ordered internal→external.
func (c *Chain) Elems() []NF { return c.elems }

// ProcessBatch runs the burst through the chain one *element pass* at
// a time: every element processes the whole surviving sub-burst before
// the next element runs, instead of each packet traversing the full
// chain alone. Packets that share a direction keep their relative
// order, and — matching the engine's RX order — the internal-side
// group is processed before the external-side group. Per-packet
// observable behavior (verdicts, rewrites, stats) is identical to the
// packets sent one by one as one-packet bursts.
//
// Each packet is parsed once, here, unless it arrives with a parse, and
// every element is handed that parse in its Pkt: an element's rewrite
// goes through the parse's setters, so the next element finds it
// current and re-derives only the tuple and hash (Parsed.Refresh).
func (c *Chain) ProcessBatch(pkts []Pkt, verdicts []Verdict) {
	c.stats.Processed += uint64(len(pkts))
	if cap(c.batchPkts) < len(pkts) {
		c.batchPkts = make([]Pkt, 0, len(pkts))
		c.batchVerd = make([]Verdict, len(pkts))
		c.batchIdx = make([]int, 0, len(pkts))
		c.parses = make([]Parsed, len(pkts))
	}
	for i := range pkts {
		verdicts[i] = Forward // provisional; direction passes mark drops
		if pkts[i].Parsed == nil {
			c.parses[i].Parse(pkts[i].Frame)
		}
	}
	c.directionPass(pkts, verdicts, true)
	c.directionPass(pkts, verdicts, false)
	for i := range pkts {
		if verdicts[i] == Forward {
			c.stats.Forwarded++
		} else {
			c.stats.Dropped++
		}
	}
}

// directionPass runs the sub-burst travelling in one direction through
// the chain in that direction's element order, compacting the survivor
// set into the scratch burst after each element so dropped packets never
// reach later elements.
func (c *Chain) directionPass(pkts []Pkt, verdicts []Verdict, fromInternal bool) {
	live := c.batchIdx[:0]
	for i := range pkts {
		if pkts[i].FromInternal == fromInternal {
			live = append(live, i)
		}
	}
	for step := 0; step < len(c.elems) && len(live) > 0; step++ {
		ei := step
		if !fromInternal {
			ei = len(c.elems) - 1 - step
		}
		// Field by field: a Pkt built whole on the stack and copied in
		// stalls on store forwarding.
		sub := c.batchPkts[:len(live)]
		for j, i := range live {
			s := &sub[j]
			s.Frame, s.FromInternal, s.Parsed = pkts[i].Frame, fromInternal, pkts[i].Parsed
			if s.Parsed == nil {
				s.Parsed = &c.parses[i]
			}
		}
		c.elems[ei].ProcessBatch(sub, c.batchVerd)
		kept := live[:0]
		for j, i := range live {
			if c.batchVerd[j] == Forward {
				kept = append(kept, i)
			} else {
				verdicts[i] = Drop
				c.lastDrop = ei
			}
		}
		live = kept
	}
}

// Expire advances expiry on every element.
func (c *Chain) Expire(now libvig.Time) int {
	n := 0
	for _, e := range c.elems {
		n += e.Expire(now)
	}
	return n
}

// NFStats returns the chain's own counters; Expired is aggregated from
// the elements (a chain holds no state of its own).
func (c *Chain) NFStats() Stats {
	s := c.stats
	for _, e := range c.elems {
		s.Expired += e.NFStats().Expired
	}
	return s
}

// Publish copies the chain's forwarded and dropped counts into its
// Block: the worker that drives the chain calls it once per burst
// (nf.Publisher).
func (c *Chain) Publish(fc FlowCache) {
	cells := [2]uint64{c.stats.Forwarded, c.stats.Dropped}
	c.block.Publish(cells[:], fc)
}

// Scrape reads the chain's Block and the Expired of every element that
// is a Scraper, so it is safe concurrently with traffic; an element
// that is not one cannot be read then, and counts only in NFStats.
// Processed is forwarded plus dropped, so one scrape agrees with itself.
func (c *Chain) Scrape() Scrape {
	cells, fc := c.block.Snapshot()
	s := Stats{Processed: cells[0] + cells[1], Forwarded: cells[0], Dropped: cells[1]}
	for _, e := range c.elems {
		if sc, ok := e.(Scraper); ok {
			s.Expired += sc.Scrape().Stats.Expired
		}
	}
	return Scrape{Stats: s.With(fc)}
}
