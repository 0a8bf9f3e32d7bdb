package lb

import (
	"fmt"

	"vignat/internal/fastpath"
	"vignat/internal/flow"
	"vignat/internal/libvig"
	"vignat/internal/netstack"
	"vignat/internal/nf"
	"vignat/internal/nf/nfkit"
	"vignat/internal/nf/telemetry"
)

// Fast-path aux kinds beside the sticky table's own two (a sticky found
// by its client tuple, nfkit.AuxFst, or by its reply tuple, AuxSnd):
// the passthrough entries, which carry no index — the classification is
// pure configuration.
const (
	fpPassthrough   = nfkit.AuxStateless     // client-side non-VIP traffic
	fpPassNoSession = nfkit.AuxStateless + 1 // backend-side traffic with no live sticky entry
)

// This file is the balancer's one nfkit declaration. Unlike the NAT —
// which needed a partitioned port range so that inbound packets name
// their shard — the balancer's two directions already hash
// identically: a backend reply carries the client's address and port
// and the VIP port, so the client tuple (and hence the flow hash the
// steering uses) reconstructs exactly from either direction. Every
// session therefore lives on exactly one shard, and the balancer drops
// onto the multi-queue RSS pipeline unchanged.
//
// The CHT is replicated per shard: population is deterministic in the
// backend set and seeds, so every shard's table is bucket-for-bucket
// identical, and replication is what keeps the packet path free of
// shared cache lines. Control-plane operations (AddBackend,
// RemoveBackend) broadcast to all shards and must not run
// concurrently with packet processing — the same discipline as every
// other control-path mutation in the repository.

// verdictOf collapses the balancer's verdict onto the pipeline pair:
// every forwarding verdict means "out the opposite interface" — a
// client packet entering on the client side leaves on the backend side
// and vice versa, and passthrough traffic simply crosses the box.
func verdictOf(v Verdict) nf.Verdict {
	if v == VerdictDrop {
		return nf.Drop
	}
	return nf.Forward
}

// Kit returns the balancer's capability declaration for cfg: sticky
// capacity split evenly across shards, the CHT replicated.
func Kit(cfg Config, clock libvig.Clock) nfkit.Decl[*Balancer] {
	// One taxonomy per declaration: Stats runs on every scrape and must
	// not build it again.
	reasons := ReasonsFor(cfg.Passthrough)
	return nfkit.Decl[*Balancer]{
		Name:     "viglb",
		Clock:    clock,
		Capacity: cfg.Capacity,
		New: func(_, _, perShard int) (*Balancer, error) {
			shardCfg := cfg
			shardCfg.Capacity = perShard
			return New(shardCfg, clock)
		},
		Process: func(b *Balancer, pkt *nf.Pkt, now libvig.Time) nf.Verdict {
			return verdictOf(b.process(pkt, now))
		},
		// The burst's first sticky-expiry sweep and every packet's
		// lookup start their table loads here, together.
		Prefetch: func(b *Balancer, pkts []nf.Pkt, now libvig.Time) {
			b.flows.Prefetch(pkts, now-b.texp+1)
		},
		Expire: (*Balancer).ExpireAt,
		Stats: func(c []uint64) nf.Stats {
			return nfkit.StatsOf(reasons, c, c[ctrFlowsExpired])
		},
		Counters: func(b *Balancer) []uint64 { return b.counters[:] },
		// The fast path caches VIP flows by their sticky entry,
		// client-side non-VIP passthrough by configuration alone, and
		// backend-side no-session passthrough under the table's miss
		// guard: a sticky entry created later could turn the very same
		// tuple into a rewrite, so any sticky creation retires it.
		FastPath: &nfkit.FastPathHooks[*Balancer]{
			Offer: func(b *Balancer, key fastpath.Key) (uint64, fastpath.Guard, bool) {
				fromClient := key.FromInternal == cfg.ClientsInternal
				if fromClient && (key.ID.DstIP != cfg.VIP || (cfg.VIPPort != 0 && key.ID.DstPort != cfg.VIPPort)) {
					return fpPassthrough, fastpath.Guard{}, true
				}
				aux, guard, ok := b.flows.Offer(key)
				if !ok && !fromClient && cfg.Passthrough {
					return fpPassNoSession, b.flows.MissGuard(), true
				}
				return aux, guard, ok
			},
			Hit: func(b *Balancer, aux uint64, _ int, now libvig.Time) nf.Verdict {
				var r telemetry.ReasonID
				switch b.flows.Hit(aux, now) {
				case nfkit.AuxFst:
					r = ReasonFwdBackend
				case nfkit.AuxSnd:
					r = ReasonFwdClient
				case fpPassNoSession:
					r = ReasonPassNoSession
				default:
					r = ReasonPassNonVIP
				}
				b.counters[r]++
				b.lastReason = r
				return nf.Forward
			},
		},
		ShardOf: func(frame []byte, fromInternal bool, shards int) int {
			var scratch netstack.Packet
			if err := scratch.Parse(frame); err != nil || !scratch.NATable() {
				return 0
			}
			id := scratch.FlowID()
			if fromInternal != cfg.ClientsInternal {
				// Backend side: reconstruct the client tuple the reply
				// answers.
				id = clientKeyOfReply(id, cfg.VIP)
			}
			return int(id.Hash() % uint64(shards))
		},
		// The taxonomy and the symbolic spec share cfg.Passthrough, so
		// the cross-check proves the deployed orientation, not a fixed
		// one.
		Reasons:    reasons,
		LastReason: func(b *Balancer) telemetry.ReasonID { return b.lastReason },
		Families:   families(),
		Sym:        symSpecFor(ProcessPacket, cfg.Passthrough),
	}
}

// AsNF exposes an existing balancer as a pipeline network function.
func AsNF(b *Balancer) nf.NF { return Kit(b.cfg, b.clock).Adapt(b) }

// Sharded is the balancer's derived sharded composition plus its
// broadcast control plane.
type Sharded struct {
	*nfkit.Sharded[*Balancer]
}

// NewSharded builds a balancer of nShards shards from cfg, splitting
// the sticky capacity evenly (rounded down per shard). With nShards ==
// 1 this is exactly one Balancer behind the nf.NF interface.
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

// ShardBalancer returns shard i's underlying Balancer (tests, stats
// drill-down).
func (s *Sharded) ShardBalancer(i int) *Balancer { return s.Core(i) }

// Flows returns the number of live sticky entries across shards.
func (s *Sharded) Flows() int {
	live, _ := s.Occupancy(stickiesFamily)
	return live
}

// LiveBackends returns the number of live backends (identical on every
// shard).
func (s *Sharded) LiveBackends() int { return s.Core(0).LiveBackends() }

// Backend returns backend i's address, if live.
func (s *Sharded) Backend(i int) (flow.Addr, bool) { return s.Core(0).Backend(i) }

// AddBackend registers a backend on every shard, returning its slot
// index. The per-shard DChain allocations are deterministic in the
// operation sequence, so every shard assigns the same index (checked).
func (s *Sharded) AddBackend(ip flow.Addr, now libvig.Time) (int, error) {
	idx := -1
	err := s.Broadcast(func(si int, b *Balancer) error {
		i, err := b.AddBackend(ip, now)
		if err != nil {
			return err
		}
		if idx == -1 {
			idx = i
		} else if i != idx {
			return fmt.Errorf("lb: shard %d allocated backend slot %d, shard 0 slot %d", si, i, idx)
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	return idx, nil
}

// RemoveBackend drains backend i on every shard.
func (s *Sharded) RemoveBackend(i int) error {
	return s.Broadcast(func(_ int, b *Balancer) error { return b.RemoveBackend(i) })
}

// Stats is the balancer-level view of the shards' published counters,
// safe to call under traffic.
func (s *Sharded) Stats() Stats { return statsOf(s.Core(0).reasons, s.Counters()) }
