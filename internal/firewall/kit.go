package firewall

import (
	"time"

	"vignat/internal/fastpath"
	"vignat/internal/libvig"
	"vignat/internal/netstack"
	"vignat/internal/nf"
	"vignat/internal/nf/nfkit"
	"vignat/internal/nf/telemetry"
)

// This file is the firewall's one nfkit declaration. Beyond replacing
// the bespoke AsNF adapter, the declaration gives the firewall a
// capability it never had: a sharded composition. The session table is
// keyed by the outbound tuple and answered in reverse by the inbound
// one, so steering by the *normalized* tuple — the packet's own tuple
// from the internal side, its reverse from the external side — lands
// both directions of a session on the same shard with no port-range
// trick and no locks. One declaration line, and the firewall drops
// onto the multi-queue RSS pipeline like every other NF.

// Kit returns the firewall's capability declaration: capacity sessions
// split evenly across shards, Texp inactivity expiry.
func Kit(capacity int, timeout time.Duration, clock libvig.Clock) nfkit.Decl[*Firewall] {
	return nfkit.Decl[*Firewall]{
		Name:     "firewall",
		Clock:    clock,
		Capacity: capacity,
		New: func(_, _, perShard int) (*Firewall, error) {
			return New(perShard, timeout, clock)
		},
		Process: (*Firewall).process,
		// The burst's first expiry sweep and every packet's lookup start
		// their table loads here, together.
		Prefetch: func(fw *Firewall, pkts []nf.Pkt, now libvig.Time) {
			fw.table.Prefetch(pkts, now-fw.texp+1)
		},
		Expire:   (*Firewall).ExpireAt,
		Counters: func(fw *Firewall) []uint64 { return fw.counters[:] },
		// The fast path caches live sessions: the table's Offer is the
		// membership lookup (the established branch's only state read —
		// the firewall rewrites nothing, so the cached template is an
		// identity), its Hit that branch's rejuvenation.
		FastPath: &nfkit.FastPathHooks[*Firewall]{
			Offer: func(fw *Firewall, key fastpath.Key) (uint64, fastpath.Guard, bool) { return fw.table.Offer(key) },
			Hit: func(fw *Firewall, aux uint64, _ int, now libvig.Time) (nf.Verdict, telemetry.ReasonID) {
				if fw.table.Hit(aux, now) == nfkit.AuxFst {
					return nf.Forward, ReasonFwdOut
				}
				return nf.Forward, ReasonFwdIn
			},
		},
		ShardOf: func(frame []byte, fromInternal bool, shards int) int {
			var scratch netstack.Packet
			if err := scratch.Parse(frame); err != nil || !scratch.NATable() {
				return 0
			}
			id := scratch.FlowID()
			if !fromInternal {
				// The session lives under its outbound tuple; a reply
				// names it in reverse.
				id = id.Reverse()
			}
			return int(id.Hash() % uint64(shards))
		},
		Reasons: Reasons,
		// Both directions of a session steer by the outbound tuple's
		// hash, so a session's home under any shard count is arithmetic
		// on its own key.
		Families: []nfkit.Family[*Firewall]{
			nfkit.FlowRecords("sessions", (*Firewall).Table, func(s *session, shards int) int {
				return int(s.Out.Hash() % uint64(shards))
			}),
		},
		Sym: symSpecFor(ProcessPacket),
	}
}

// AsNF exposes an existing firewall as a pipeline network function.
func AsNF(fw *Firewall) nf.NF {
	return Kit(fw.table.Capacity(), time.Duration(fw.texp), fw.clock).Adapt(fw)
}

// Sharded is the firewall's derived sharded composition.
type Sharded struct {
	*nfkit.Sharded[*Firewall]
}

// NewSharded builds a firewall of nShards shards tracking up to
// capacity sessions in total (split evenly, rounded down per shard).
func NewSharded(capacity int, timeout time.Duration, clock libvig.Clock, nShards int) (*Sharded, error) {
	ks, err := nfkit.NewSharded(Kit(capacity, timeout, clock), nShards)
	if err != nil {
		return nil, err
	}
	return &Sharded{Sharded: ks}, nil
}

// ShardFirewall returns shard i's underlying firewall (tests, stats
// drill-down).
func (s *Sharded) ShardFirewall(i int) *Firewall { return s.Core(i) }
