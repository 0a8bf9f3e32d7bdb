package lb

import (
	"fmt"

	"vignat/internal/flow"
	"vignat/internal/libvig"
	"vignat/internal/nf/nfkit"
)

// This file is the balancer's shard codec. Two record families with a
// structural dependency: backends restore first (Pass 0, broadcast —
// every shard replicates the pool, and slot indices must survive the
// move because sticky records and the CHT's permutations both name
// backends by index), then sticky flows (Pass 1, hash-sharded by the
// client tuple, exactly the declared steering).

// record ordering classes.
const (
	passBackend = iota
	passSticky
)

// backendRec migrates one backend slot: its index (preserved via
// DChain.AllocateIndex so CHT buckets and sticky references stay
// valid) and its address. The liveness stamp rides the envelope.
type backendRec struct {
	idx int32
	ip  flow.Addr
}

// stickyRec migrates one sticky flow: the client tuple and the backend
// slot it is pinned to (the reply tuple re-derives from the backend's
// address, exactly as CreateSticky derives it).
type stickyRec struct {
	client  flow.ID
	backend int32
}

// RestoreBackend re-creates a backend in its original slot with its
// original liveness stamp — the restore half of shard migration, and
// the reason DChain.AllocateIndex exists. CHT population is
// deterministic in (slot, address), so every shard rebuilds
// bucket-identical tables.
func (b *Balancer) RestoreBackend(i int, ip flow.Addr, stamp libvig.Time) error {
	if b.backendChain.IsAllocated(i) {
		// Backends broadcast: with several source shards each replicated
		// pool entry arrives once per source, and every copy after the
		// first finds the slot already rebuilt. Same address → no-op;
		// a different one means the snapshot was incoherent.
		if be, err := b.backends.Get(i); err == nil && be.IP == ip {
			return nil
		}
		return fmt.Errorf("lb: backend slot %d already holds a different address", i)
	}
	if err := b.backendChain.AllocateIndex(i, stamp); err != nil {
		return err
	}
	if err := b.backends.Set(i, backend{IP: ip}); err != nil {
		_ = b.backendChain.Free(i)
		return err
	}
	if err := b.cht.AddBackend(i, uint64(ip)); err != nil {
		_ = b.backendChain.Free(i)
		return err
	}
	return nil
}

// restoreSticky replays one sticky flow, fully or not at all. No
// FlowsCreated bump: the flow was created once, on the shard it came
// from.
func (b *Balancer) restoreSticky(client flow.ID, bh int32, stamp libvig.Time) error {
	if !b.backendChain.IsAllocated(int(bh)) {
		return fmt.Errorf("lb: sticky flow names dead backend slot %d", bh)
	}
	be, err := b.backends.Get(int(bh))
	if err != nil {
		return err
	}
	idx, err := b.flowChain.Allocate(stamp)
	if err != nil {
		return err
	}
	s := sticky{Client: client, Reply: replyKey(client, be.IP), Backend: bh}
	if err := b.flows.Put(idx, s); err != nil {
		_ = b.flowChain.Free(idx)
		return err
	}
	// A restored sticky is a fresh rewrite outcome for its reply tuple;
	// retire any cached backend-side passthrough, like CreateSticky.
	b.fpGens.Bump(b.flowChain.Capacity())
	return nil
}

// snapshotRecords serializes the backend pool, then every sticky flow.
func (b *Balancer) snapshotRecords() []nfkit.StateRecord {
	idxs := b.backendChain.AllocatedAsc(nil)
	recs := make([]nfkit.StateRecord, 0, len(idxs)+b.flows.Size())
	for _, i := range idxs {
		be, err := b.backends.Get(i)
		if err != nil {
			continue
		}
		ts, _ := b.backendChain.Timestamp(i)
		recs = append(recs, nfkit.StateRecord{
			Pass:  passBackend,
			Stamp: ts,
			Data:  backendRec{idx: int32(i), ip: be.IP},
		})
	}
	b.flows.ForEach(func(i int, s *sticky) bool {
		ts, _ := b.flowChain.Timestamp(i)
		recs = append(recs, nfkit.StateRecord{
			Pass:  passSticky,
			Stamp: ts,
			Data:  stickyRec{client: s.Client, backend: s.Backend},
		})
		return true
	})
	return recs
}

// restoreRecord replays one record into the core.
func (b *Balancer) restoreRecord(rec nfkit.StateRecord) error {
	switch d := rec.Data.(type) {
	case backendRec:
		return b.RestoreBackend(int(d.idx), d.ip, rec.Stamp)
	case stickyRec:
		return b.restoreSticky(d.client, d.backend, rec.Stamp)
	default:
		return fmt.Errorf("lb: unknown state record %T", rec.Data)
	}
}

// shardCodec is the balancer's migration declaration.
func shardCodec() *nfkit.ShardCodec[*Balancer] {
	return &nfkit.ShardCodec[*Balancer]{
		Snapshot: (*Balancer).snapshotRecords,
		Restore:  (*Balancer).restoreRecord,
		Shard: func(rec nfkit.StateRecord, shards int) int {
			d, ok := rec.Data.(stickyRec)
			if !ok {
				return -1 // backends broadcast to every shard
			}
			return int(d.client.Hash() % uint64(shards))
		},
	}
}
