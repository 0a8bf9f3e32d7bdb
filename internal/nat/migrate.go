package nat

import (
	"fmt"

	"vignat/internal/flow"
	"vignat/internal/libvig"
	"vignat/internal/nf/nfkit"
)

// This file is the NAT's shard codec: the snapshot/restore walk over
// the flow table that makes NAT shards movable units (counters move
// through Decl.Counters, generically). Flows migrate to the shard
// whose external-port range holds their port, to the index the port
// names there — the only placement that keeps an inbound reply's
// port-arithmetic steering and lookup correct without renumbering the
// port an external peer already targets. Outbound consistency for
// flows whose hash shard moved away is restored by the steering
// override (steer.go), which the Sharded wrapper rebuilds after every
// reshard.

// flowRec migrates one flow: its internal-side identity and the
// external port it holds. The external IP is configuration; the DChain
// stamp rides the StateRecord envelope.
type flowRec struct {
	intKey  flow.ID
	extPort uint16
}

// snapshotRecords serializes every live flow.
func (n *NAT) snapshotRecords() []nfkit.StateRecord {
	recs := make([]nfkit.StateRecord, 0, n.table.Size())
	n.table.ForEach(func(_ int, f *flow.Flow, last libvig.Time) bool {
		recs = append(recs, nfkit.StateRecord{
			Stamp: last,
			Data:  flowRec{intKey: f.IntKey, extPort: f.ExtPort()},
		})
		return true
	})
	return recs
}

// restoreRecord replays one flow into the core, fully or not at all
// (FlowTable.Restore refuses a port that is not this shard's or not
// free before it touches anything). FlowsCreated does not move.
func (n *NAT) restoreRecord(rec nfkit.StateRecord) error {
	d, ok := rec.Data.(flowRec)
	if !ok {
		return fmt.Errorf("nat: unknown state record %T", rec.Data)
	}
	return n.table.Restore(d.intKey, d.extPort, rec.Stamp)
}

// shardCodec is the NAT's migration declaration for cfg.
func shardCodec(cfg Config) *nfkit.ShardCodec[*NAT] {
	return &nfkit.ShardCodec[*NAT]{
		Check: func(shards int) error {
			if cfg.Capacity%shards != 0 {
				return fmt.Errorf("nat: capacity %d does not divide into %d shards (external port ranges would misalign)",
					cfg.Capacity, shards)
			}
			return nil
		},
		Snapshot: (*NAT).snapshotRecords,
		Restore:  (*NAT).restoreRecord,
		Shard: func(rec nfkit.StateRecord, shards int) int {
			d, ok := rec.Data.(flowRec)
			if !ok {
				return 0
			}
			per := cfg.Capacity / shards
			off := int(d.extPort) - int(cfg.PortBase)
			if off < 0 || off >= per*shards {
				return 0
			}
			return off / per
		},
	}
}
