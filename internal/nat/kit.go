package nat

import (
	"fmt"

	"vignat/internal/fastpath"
	"vignat/internal/flow"
	"vignat/internal/libvig"
	"vignat/internal/nat/stateless"
	"vignat/internal/netstack"
	"vignat/internal/nf"
	"vignat/internal/nf/nfkit"
	"vignat/internal/nf/telemetry"
)

// This file is the NAT's one nfkit declaration: everything the engine,
// the sharded composition, the daemon and the proof (symspec.go)
// need, in one place.

// Kit returns the NAT's capability declaration for cfg. Shard i of n
// owns capacity/n flows and the external port range
// [PortBase+i·(capacity/n), PortBase+(i+1)·(capacity/n)): partitioned
// ports are what make RSS-style steering consistent without locks —
// outbound packets steer by flow hash, the owning shard's flow at index
// j holds the j-th port of its own range, and an inbound reply's
// destination port alone names the shard and the index.
func Kit(cfg Config, clock libvig.Clock) nfkit.Decl[*NAT] {
	return kit(cfg, clock, nil)
}

// kit is Kit plus the sharded composition's steering override: steer,
// when non-nil, pins migrated flows' outbound steering to their
// port-range home after a live reshard (see steer.go). The standalone
// Kit has no reshard verb and needs no override.
func kit(cfg Config, clock libvig.Clock, steer *steering) nfkit.Decl[*NAT] {
	return nfkit.Decl[*NAT]{
		Name:     "vignat",
		Clock:    clock,
		Capacity: cfg.Capacity,
		New: func(shard, _, perShard int) (*NAT, error) {
			shardCfg := cfg
			shardCfg.Capacity = perShard
			shardCfg.PortBase = cfg.PortBase + uint16(shard*perShard)
			return New(shardCfg, clock)
		},
		Process: (*NAT).process,
		// The burst's first Fig. 6 sweep and every packet's lookup start
		// their table loads here, together.
		Prefetch: func(n *NAT, pkts []nf.Pkt, now libvig.Time) {
			n.table.Prefetch(pkts, now-n.cfg.TimeoutNanos()+1)
		},
		Expire:   (*NAT).ExpireAt,
		Counters: func(n *NAT) []uint64 { return n.counters[:] },
		// The fast path caches established flows: the table's Offer is
		// Fig. 6's get_dmap (the only state read of the established
		// branch), its Hit that branch's rejuvenation and reason; the
		// rewrite is the engine's template's.
		FastPath: &nfkit.FastPathHooks[*NAT]{
			Offer: func(n *NAT, key fastpath.Key) (uint64, fastpath.Guard, bool) { return n.table.Offer(key) },
			Hit: func(n *NAT, aux uint64, _ int, now libvig.Time) (nf.Verdict, telemetry.ReasonID) {
				if n.table.Hit(aux, now) == nfkit.AuxFst {
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
			if fromInternal {
				id := scratch.FlowID()
				if steer != nil {
					if s, ok := steer.lookup(id); ok && s < shards {
						return s
					}
				}
				return int(id.Hash() % uint64(shards))
			}
			// Only the inbound port-range branch pays the split math. A
			// port no shard owns matches no flow anywhere.
			if s := cfg.portShard(scratch.DstPort, shards); s >= 0 && s < shards {
				return s
			}
			return 0
		},
		Reasons: Reasons,
		// Flows migrate to the shard whose external-port range holds
		// their port, to the index the port names there: the only
		// placement that keeps an inbound reply's port-arithmetic steering
		// and lookup correct without renumbering a port a peer already
		// targets. Outbound packets follow via the override (steer.go).
		// A flow migrates as its flow.Flow view, both keys: the record
		// derives its external key from an index that is only this
		// shard's.
		Families: []nfkit.Family[*NAT]{nfkit.Records[*NAT, flow.Flow]{
			Name: flowsFamily,
			Each: func(n *NAT, emit func(flow.Flow, libvig.Time)) {
				n.table.ForEach(func(i int, _ *flow.ID, last libvig.Time) bool {
					f, _ := n.table.Flow(i)
					emit(f, last)
					return true
				})
			},
			Restore:   func(n *NAT, f flow.Flow, stamp libvig.Time) error { return n.table.Restore(f, stamp) },
			ShardOf:   func(f *flow.Flow, shards int) int { return cfg.portShard(f.ExtPort(), shards) },
			Occupancy: func(n *NAT) (int, int) { return n.table.Size(), n.table.Capacity() },
			HighWater: func(n *NAT) (int, int) { return n.table.HighWater(), n.table.Capacity() },
		}},
		CheckReshard: func(shards int) error {
			if cfg.Capacity%shards != 0 {
				return fmt.Errorf("nat: capacity %d does not divide into %d shards (external port ranges would misalign)",
					cfg.Capacity, shards)
			}
			return nil
		},
		Sym: symSpecFor(cfg, stateless.ProcessPacket),
	}
}

// flowsFamily names the NAT's one record family.
const flowsFamily = "flows"

// portShard returns the shard, of shards, whose external-port range
// holds port: negative or ≥ shards for a port outside
// [PortBase, PortBase+Capacity), which no shard owns.
func (c *Config) portShard(port uint16, shards int) int {
	off := int(port) - int(c.PortBase)
	if off < 0 {
		return -1
	}
	return off / (c.Capacity / shards)
}

// AsNF exposes an existing NAT as a pipeline network function.
func AsNF(n *NAT) nf.NF { return Kit(n.cfg, n.clock).Adapt(n) }

// Sharded is the NAT's derived sharded composition plus the NAT-level
// accessors (port-range bookkeeping, flow drill-down) callers use.
type Sharded struct {
	*nfkit.Sharded[*NAT]
	steer *steering
}

// NewSharded builds a NAT of nShards shards from cfg, splitting
// capacity and port range evenly. cfg.Capacity that does not divide
// evenly is rounded down per shard (the paper's 65535-flow table over 4
// shards yields 4×16383 flows). With nShards == 1 this is exactly one
// NAT behind the nf.NF interface.
func NewSharded(cfg Config, clock libvig.Clock, nShards int) (*Sharded, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	steer := &steering{}
	ks, err := nfkit.NewSharded(kit(cfg, clock, steer), nShards)
	if err != nil {
		return nil, err
	}
	return &Sharded{Sharded: ks, steer: steer}, nil
}

// Reshard migrates the NAT to n shards through the declared families,
// then re-derives what no family can see globally: the outbound
// steering override for flows whose new hash shard is not their
// port-range home.
func (s *Sharded) Reshard(n int) error {
	if err := s.Sharded.Reshard(n); err != nil {
		return err
	}
	over := make(map[flow.ID]int)
	for shard, core := range s.Cores() {
		core.Table().ForEach(func(_ int, id *flow.ID, _ libvig.Time) bool {
			if int(id.Hash()%uint64(n)) != shard {
				over[*id] = shard
			}
			return true
		})
	}
	s.steer.publish(over)
	return nil
}

// ShardNAT returns shard i's underlying NAT (tests, stats drill-down).
func (s *Sharded) ShardNAT(i int) *NAT { return s.Core(i) }

// Capacity returns the total flow capacity across shards.
func (s *Sharded) Capacity() int {
	_, capacity := s.Occupancy(flowsFamily)
	return capacity
}

// Flows returns the number of live flows across shards.
func (s *Sharded) Flows() int {
	live, _ := s.Occupancy(flowsFamily)
	return live
}

// Stats is the NAT-level view of the shards' published counters, safe
// to call under traffic.
func (s *Sharded) Stats() Stats { return statsOf(s.Counters()) }
