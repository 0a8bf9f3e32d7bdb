package lb

import (
	"fmt"

	"vignat/internal/flow"
	"vignat/internal/libvig"
	"vignat/internal/nf/nfkit"
)

// This file declares the balancer's migratable state. Two record
// families with a structural dependency: backends restore first,
// replicated — every shard keeps the whole pool, and slot indices must
// survive the move because sticky records and the CHT's permutations
// both name backends by index — then the sticky table's records,
// hash-sharded by the client tuple exactly as the declared steering.

// stickiesFamily names the sticky table's record family.
const stickiesFamily = "stickies"

// backendRec migrates one backend slot: its index and its address. The
// liveness stamp rides beside it.
type backendRec struct {
	idx int32
	ip  flow.Addr
}

func families() []nfkit.Family[*Balancer] {
	stickies := nfkit.FlowRecords(stickiesFamily, (*Balancer).Table, func(s *sticky, shards int) int {
		return int(s.Client.Hash() % uint64(shards))
	})
	stickies.Validate = (*Balancer).pinsLiveBackend
	return []nfkit.Family[*Balancer]{
		nfkit.Records[*Balancer, backendRec]{
			Name: "backends",
			Each: func(b *Balancer, emit func(backendRec, libvig.Time)) {
				for i, ts, ok := b.backendChain.Oldest(); ok; i, ts, ok = b.backendChain.After(i) {
					if be, err := b.backends.Get(i); err == nil {
						emit(backendRec{idx: int32(i), ip: be.IP}, ts)
					}
				}
			},
			Restore:   (*Balancer).restoreBackend,
			Occupancy: func(b *Balancer) (int, int) { return b.LiveBackends(), b.cfg.MaxBackends },
		},
		stickies,
	}
}

// restoreBackend re-creates a backend in its original slot with its
// original liveness stamp (the reason DChain.AllocateIndex exists). CHT
// population is deterministic in (slot, address), so every shard
// rebuilds bucket-identical tables.
func (b *Balancer) restoreBackend(r backendRec, stamp libvig.Time) error {
	i := int(r.idx)
	if b.backendChain.IsAllocated(i) {
		// With several source shards each replicated pool entry arrives
		// once per source, and every copy after the first finds the slot
		// already rebuilt. Same address → no-op; a different one means
		// the snapshot was incoherent.
		if be, err := b.backends.Get(i); err == nil && be.IP == r.ip {
			return nil
		}
		return fmt.Errorf("lb: backend slot %d already holds a different address", i)
	}
	if err := b.backendChain.AllocateIndex(i, stamp); err != nil {
		return err
	}
	return b.seatBackend(i, r.ip)
}

// pinsLiveBackend is the sticky family's validate hook: a sticky may
// only land on a shard whose pool has its backend, at the address its
// reply tuple is derived from.
func (b *Balancer) pinsLiveBackend(s *sticky) error {
	be, err := b.backends.Get(int(s.Backend))
	if err != nil || !b.backendChain.IsAllocated(int(s.Backend)) || be.IP != s.IP {
		return fmt.Errorf("lb: sticky flow names dead backend slot %d", s.Backend)
	}
	return nil
}
