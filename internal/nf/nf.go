// Package nf is the unified network-function layer: one interface every
// NF in the repository implements (NAT, firewall, discard, and their
// compositions), entered a burst at a time, and one Pipeline engine
// binding any of them to the dpdk substrate with flow-hash sharding.
//
// Before this package each NF carried its own copy of the poll-loop
// harness (rx_burst → process → tx_burst, mbuf ownership bookkeeping,
// drop accounting). The paper's artifact is one NAT pinned to one core;
// the Vigor-style generalization the roadmap targets needs the opposite
// factoring: NFs supply only packet semantics, and a shared
// run-to-completion engine supplies I/O, batching, and scaling — the
// same split ndn-dpdk's forwarder makes between its per-NF logic and
// its input/fwd threads.
package nf

import (
	"vignat/internal/flow"
	"vignat/internal/libvig"
	"vignat/internal/netstack"
)

// Verdict is the pipeline-level outcome for one packet. NFs in this
// repository are two-interface middleboxes, so "forward" always means
// "out the opposite interface"; NF-specific verdicts (the NAT's
// directional ones, say) collapse onto this pair at the engine boundary.
type Verdict uint8

// Verdicts.
const (
	// Drop discards the packet; the engine frees its mbuf.
	Drop Verdict = iota
	// Forward emits the (possibly rewritten) packet out the interface
	// opposite the one it arrived on.
	Forward
)

// String returns the verdict mnemonic.
func (v Verdict) String() string {
	switch v {
	case Drop:
		return "drop"
	case Forward:
		return "forward"
	default:
		return "verdict(?)"
	}
}

// Pkt is one unit of pipeline work: a frame and the side it arrived on.
// Frame aliases the owning mbuf's data room, so NFs that rewrite do so
// in place, exactly like the C NFs over rte_mbuf.
type Pkt struct {
	Frame        []byte
	FromInternal bool
	// Parsed, when set, is Frame's parse: a Chain's, made once for all
	// its elements, or, for the length of one call, the nfkit adapter's
	// own. An NF handed one rewrites the frame only through its
	// setters, which keep it the frame's parse for the element after;
	// whoever takes it at entry (the adapter) calls Refresh before ID
	// and Hash are trusted.
	Parsed *Parsed
}

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
	p.derive()
}

// Refresh brings ID and Hash up to date after an NF rewrote the frame
// through Pkt's setters, which write addresses and ports only: the
// tuple is re-read and hashed again only when one of those changed.
func (p *Parsed) Refresh() {
	k := &p.Pkt
	if k.NATable() && (k.SrcIP != p.ID.SrcIP || k.DstIP != p.ID.DstIP || k.SrcPort != p.ID.SrcPort || k.DstPort != p.ID.DstPort) {
		p.derive()
	}
}

// derive sets ID to Pkt.FlowID() and Hash to its hash. It spells the
// tuple out instead of calling FlowID, and Refresh compares it field by
// field, because a flow.ID (five fields, so kept in memory) that is
// stored in pieces and reloaded whole stalls store forwarding, on every
// packet.
func (p *Parsed) derive() {
	var id flow.ID
	if k := &p.Pkt; k.NATable() {
		id = flow.ID{SrcIP: k.SrcIP, DstIP: k.DstIP, SrcPort: k.SrcPort, DstPort: k.DstPort, Proto: k.Proto}
	}
	p.Hash = id.Hash()
	p.ID = id
}

// Stats are the engine-visible counters every NF exposes. NFs keep
// richer internal statistics (the NAT splits forwards by direction, for
// instance); these are the common denominators the pipeline aggregates.
// The FastPath counters are written by the engine, not the NF: they
// split Processed by how the verdict was reached (pre-classification
// cache hit vs the full slow path) and count cache displacements; they
// stay zero for NFs the engine runs without a flow cache.
type Stats struct {
	Processed uint64
	Forwarded uint64
	Dropped   uint64
	Expired   uint64

	FastPathHits      uint64
	FastPathMisses    uint64
	FastPathEvictions uint64
	// FastPathBypassed counts packets the engine deliberately sent
	// around the cache while a shard was in cold mode (churn-heavy
	// traffic where probing would cost more than it saves).
	FastPathBypassed uint64
}

// Add accumulates other into s (shard and chain aggregation).
func (s *Stats) Add(other Stats) {
	s.Processed += other.Processed
	s.Forwarded += other.Forwarded
	s.Dropped += other.Dropped
	s.Expired += other.Expired
	s.FastPathHits += other.FastPathHits
	s.FastPathMisses += other.FastPathMisses
	s.FastPathEvictions += other.FastPathEvictions
	s.FastPathBypassed += other.FastPathBypassed
}

// NF is a network function the pipeline can drive. Implementations live
// with their packet logic (internal/nat, internal/firewall,
// internal/discard); the engine knows nothing about what a verdict
// means beyond drop-or-forward.
//
// Implementations are single-threaded per instance: the pipeline
// guarantees that at most one goroutine is inside a given NF value at a
// time (sharded NFs get that guarantee per shard).
type NF interface {
	// Name identifies the NF in stats and logs.
	Name() string

	// ProcessBatch, the one way into an NF as into a DPDK one,
	// processes pkts[i] into verdicts[i] for every i, rewriting frames
	// in place when the NF translates. It must be allocation-free on
	// the steady state and must behave per-packet like the same
	// packets sent in order as one-packet bursts, with two sanctioned
	// deviations: implementations may read their clock once for the
	// whole burst (the amortization DPDK NFs get from reading TSC once
	// per burst), and compositions may regroup the burst by direction
	// — internal-side packets before external-side ones, relative
	// order preserved within each group, matching the engine's RX
	// order. len(verdicts) must be at least len(pkts).
	ProcessBatch(pkts []Pkt, verdicts []Verdict)

	// Expire advances the NF's state expiry to now without processing a
	// packet, returning the number of entries freed. NFs expire on their
	// own at the top of every packet (Fig. 6); the pipeline calls Expire
	// in exactly two places: on idle polls, so state drains even when no
	// traffic arrives, and once per shard burst before its first
	// flow-cache hit, replaying the sweep that packet's slow path would
	// have run. A second call at an unchanged now must free nothing and
	// change nothing — the once-per-burst replay rests on it. Where the
	// NF's counters are read through a Block (Publisher), the burst's one
	// Publish carries what the replay freed, and an idle sweep is
	// published only when it freed something.
	Expire(now libvig.Time) int

	// NFStats snapshots the engine-visible counters.
	NFStats() Stats
}

// Sharder is implemented by NFs whose state is partitioned into
// independent shards (RSS-style). The pipeline steers each frame to the
// shard that owns its flow and may run shards on distinct workers; a
// flow must always map to the same shard in both directions, which is
// what makes the shards lock-free.
type Sharder interface {
	NF

	// Shards returns the number of state partitions.
	Shards() int

	// ShardOf returns the shard owning the frame's flow. It must be
	// consistent: every packet of a session (both directions) yields
	// the same shard. Unparseable frames may map anywhere (they will be
	// dropped regardless of owner). It must be allocation-free and safe
	// for concurrent use: the wire side calls it as the RSS function
	// while every run-to-completion worker re-steers its own bursts.
	ShardOf(frame []byte, fromInternal bool) int

	// Shard returns shard i as a standalone NF. Distinct shards share
	// no mutable state, so the pipeline may process them concurrently.
	Shard(i int) NF
}
