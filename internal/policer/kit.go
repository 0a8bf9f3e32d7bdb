package policer

import (
	"vignat/internal/fastpath"
	"vignat/internal/libvig"
	"vignat/internal/netstack"
	"vignat/internal/nf"
	"vignat/internal/nf/nfkit"
	"vignat/internal/nf/telemetry"
)

// This file is the policer's one nfkit declaration. Sharding a policer
// is the trivial case of the repository's RSS recipe: the only state
// key is the client IP, policing is ingress-only (egress traffic is
// stateless passthrough on any shard), and a client's budget lives
// wherever its IP hashes — so steering by client IP alone gives
// lock-free shards with no port-range trick (the NAT) and no tuple
// reconstruction (the balancer). Ingress steers by destination IP and
// egress by source IP, so both directions of a subscriber's traffic
// land on the same shard anyway.

// Kit returns the policer's capability declaration for cfg: capacity
// subscribers split evenly across shards; rate and burst are
// per-subscriber, so every shard polices with the full configured
// budget.
func Kit(cfg Config, clock libvig.Clock) nfkit.Decl[*Policer] {
	return nfkit.Decl[*Policer]{
		Name:     "vigpol",
		Clock:    clock,
		Capacity: cfg.Capacity,
		New: func(_, _, perShard int) (*Policer, error) {
			shardCfg := cfg
			shardCfg.Capacity = perShard
			return New(shardCfg, clock)
		},
		Process:  (*Policer).process,
		Expire:   (*Policer).ExpireAt,
		Counters: func(p *Policer) []uint64 { return p.counters[:] },
		// The fast path never bypasses rate limiting: a meter hit
		// carries only the bucket index, and Hit re-runs the real
		// charge, so an over-budget packet drops exactly as on the slow
		// path. Egress passthrough is stateless (guard-free); only
		// TCP/UDP non-fragment frames are cacheable at all (the engine's
		// pre-classifier rejects the rest), so the policer's broader
		// any-IPv4 metering is unaffected for non-cacheable traffic.
		FastPath: &nfkit.FastPathHooks[*Policer]{
			Offer: func(p *Policer, key fastpath.Key) (uint64, fastpath.Guard, bool) {
				if key.FromInternal {
					return 1, fastpath.Guard{}, true // egress: unmetered passthrough
				}
				idx, ok := p.subs.Get(key.ID.DstIP)
				if !ok {
					return 0, fastpath.Guard{}, false
				}
				return uint64(idx) << 1, p.fpGens.Guard(idx), true
			},
			Hit: func(p *Policer, aux uint64, pktLen int, now libvig.Time) (nf.Verdict, telemetry.ReasonID) {
				if aux&1 != 0 {
					return nf.Forward, ReasonPassthrough
				}
				idx := int(aux >> 1)
				_ = p.chain.Rejuvenate(idx, now)
				if !p.buckets.Charge(idx, pktLen, now) {
					return nf.Drop, ReasonDropOverRate
				}
				return nf.Forward, ReasonConform
			},
		},
		ShardOf: func(frame []byte, fromInternal bool, shards int) int {
			var scratch netstack.Packet
			if err := scratch.Parse(frame); err != nil || !scratch.L3Valid {
				return 0
			}
			addr := scratch.DstIP
			if fromInternal {
				addr = scratch.SrcIP
			}
			return int(addr.Hash() % uint64(shards))
		},
		Reasons:  Reasons,
		Families: families(),
		Sym:      symSpecFor(ProcessPacket),
	}
}

// AsNF exposes an existing policer as a pipeline network function.
func AsNF(p *Policer) nf.NF { return Kit(p.cfg, p.clock).Adapt(p) }

// Sharded is the policer's derived sharded composition.
type Sharded struct {
	*nfkit.Sharded[*Policer]
}

// NewSharded builds a policer of nShards shards from cfg, splitting the
// subscriber capacity evenly (rounded down per shard). With nShards ==
// 1 this is exactly one Policer behind the nf.NF interface.
func NewSharded(cfg Config, clock libvig.Clock, nShards int) (*Sharded, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ks, err := nfkit.NewSharded(Kit(cfg, clock), nShards)
	if err != nil {
		return nil, err
	}
	return &Sharded{Sharded: ks}, nil
}

// ShardPolicer returns shard i's underlying Policer (tests, stats
// drill-down).
func (s *Sharded) ShardPolicer(i int) *Policer { return s.Core(i) }

// Subscribers returns the number of tracked subscribers across shards.
func (s *Sharded) Subscribers() int {
	live, _ := s.Occupancy(subscribersFamily)
	return live
}

// Stats is the policer-level view of the shards' published counters,
// safe to call under traffic.
func (s *Sharded) Stats() Stats { return statsOf(s.Counters()) }
