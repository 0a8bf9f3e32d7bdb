package firewall

import (
	"fmt"

	"vignat/internal/flow"
	"vignat/internal/nf/nfkit"
)

// This file is the firewall's shard codec: session snapshot/restore
// (counters move through Decl.Counters, generically). Both directions of a session steer by the
// normalized (outbound) tuple's hash, so a session's home under any
// shard count is pure arithmetic on its own key — no steering
// override, no partition constraint.

// sessionRec migrates one session: the outbound tuple (the reverse is
// derived, exactly as CreateSession derives it). The DChain stamp
// rides the StateRecord envelope.
type sessionRec struct {
	out flow.ID
}

// snapshotRecords serializes every live session.
func (fw *Firewall) snapshotRecords() []nfkit.StateRecord {
	recs := make([]nfkit.StateRecord, 0, fw.dmap.Size())
	fw.dmap.ForEach(func(i int, s *session) bool {
		stamp, _ := fw.chain.Timestamp(i)
		recs = append(recs, nfkit.StateRecord{
			Stamp: stamp,
			Data:  sessionRec{out: s.Out},
		})
		return true
	})
	return recs
}

// restoreRecord replays one session into the core, fully or not at
// all. No creation counter exists to bump, and a restore is no
// packet: no reason cell moves.
func (fw *Firewall) restoreRecord(rec nfkit.StateRecord) error {
	d, ok := rec.Data.(sessionRec)
	if !ok {
		return fmt.Errorf("firewall: unknown state record %T", rec.Data)
	}
	idx, err := fw.chain.Allocate(rec.Stamp)
	if err != nil {
		return err
	}
	if err := fw.dmap.Put(idx, session{Out: d.out, In: d.out.Reverse()}); err != nil {
		_ = fw.chain.Free(idx)
		return err
	}
	return nil
}

// shardCodec is the firewall's migration declaration.
func shardCodec() *nfkit.ShardCodec[*Firewall] {
	return &nfkit.ShardCodec[*Firewall]{
		Snapshot: (*Firewall).snapshotRecords,
		Restore:  (*Firewall).restoreRecord,
		Shard: func(rec nfkit.StateRecord, shards int) int {
			d, ok := rec.Data.(sessionRec)
			if !ok {
				return 0
			}
			return int(d.out.Hash() % uint64(shards))
		},
	}
}
