package policer

import (
	"fmt"

	"vignat/internal/flow"
	"vignat/internal/libvig"
	"vignat/internal/nf/nfkit"
)

// This file is the policer's control-plane surface: the live rate
// resize and the shard codec's core half (snapshot, restore; counters
// move through Decl.Counters, generically). The codec closures in
// kit.go delegate here so the state walk stays next to the state it
// serializes.

// Resize changes the shared (rate, burst) configuration live. Every
// bucket is settled at the old rate before the new terms apply and
// levels are clamped to the new depth — TokenBucket.Resize's clamp law
// — so a mid-refill resize can neither mint nor re-price tokens.
func (p *Policer) Resize(rate, burst int64, now libvig.Time) error {
	next := p.cfg
	next.Rate, next.Burst = rate, burst
	if err := next.Validate(); err != nil {
		return err
	}
	if err := p.buckets.Resize(rate, burst, now); err != nil {
		return err
	}
	p.cfg = next
	return nil
}

// cfgRecord migrates the live (rate, burst) pair: the policer's shard
// constructor rebuilds cores from the construction-time config, so a
// resize applied through the control plane must ride the reshard or it
// would silently revert. Broadcast to every shard, restored before any
// subscriber (Pass 0) so bucket levels clamp against the right depth.
type cfgRecord struct {
	rate  int64
	burst int64
}

// subRecord migrates one subscriber: identity, budget, and the bucket
// clock the budget was settled at. The DChain stamp rides the
// StateRecord envelope.
type subRecord struct {
	addr       flow.Addr
	levelUnits int64
	lastRefill libvig.Time
}

// record ordering classes.
const (
	passConfig = iota
	passSubscriber
)

// snapshotRecords serializes the core's migratable state: the live
// config, then every subscriber with its DChain stamp.
func (p *Policer) snapshotRecords() []nfkit.StateRecord {
	idxs := p.chain.AllocatedAsc(nil)
	recs := make([]nfkit.StateRecord, 0, len(idxs)+1)
	recs = append(recs, nfkit.StateRecord{
		Pass: passConfig,
		Data: cfgRecord{rate: p.cfg.Rate, burst: p.cfg.Burst},
	})
	for _, i := range idxs {
		addr, err := p.addrs.Get(i)
		if err != nil {
			continue
		}
		stamp, _ := p.chain.Timestamp(i)
		level, _ := p.buckets.LevelUnits(i)
		last, _ := p.buckets.LastRefill(i)
		recs = append(recs, nfkit.StateRecord{
			Pass:  passSubscriber,
			Stamp: stamp,
			Data:  subRecord{addr: addr, levelUnits: level, lastRefill: last},
		})
	}
	return recs
}

// restoreRecord replays one record into the core, fully or not at all.
// Subscriber restores do NOT bump BucketsCreated: the subscriber was
// admitted once, on the shard it migrated from.
func (p *Policer) restoreRecord(rec nfkit.StateRecord) error {
	switch d := rec.Data.(type) {
	case cfgRecord:
		// Buckets are empty at Pass 0, so now=0 settles nothing.
		return p.Resize(d.rate, d.burst, 0)
	case subRecord:
		idx, err := p.chain.Allocate(rec.Stamp)
		if err != nil {
			return err
		}
		if err := p.subs.Put(d.addr, idx); err != nil {
			_ = p.chain.Free(idx)
			return err
		}
		if err := p.addrs.Set(idx, d.addr); err != nil {
			_ = p.subs.Erase(d.addr)
			_ = p.chain.Free(idx)
			return err
		}
		if err := p.buckets.Restore(idx, d.levelUnits, d.lastRefill); err != nil {
			_ = p.subs.Erase(d.addr)
			_ = p.chain.Free(idx)
			return err
		}
		return nil
	default:
		return fmt.Errorf("policer: unknown state record %T", rec.Data)
	}
}

// shardOfRecord maps a record to its owner under the new partitioning,
// consistently with the declared ShardOf steering (both directions hash
// the subscriber address).
func shardOfRecord(rec nfkit.StateRecord, shards int) int {
	d, ok := rec.Data.(subRecord)
	if !ok {
		return -1 // config broadcasts
	}
	return int(d.addr.Hash() % uint64(shards))
}

// shardCodec is the policer's migration declaration.
func shardCodec() *nfkit.ShardCodec[*Policer] {
	return &nfkit.ShardCodec[*Policer]{
		Snapshot: (*Policer).snapshotRecords,
		Restore:  (*Policer).restoreRecord,
		Shard:    shardOfRecord,
	}
}

// Resize applies a live (rate, burst) change to every shard — each
// shard's buckets meter per subscriber, so the new budget applies
// identically regardless of which shard a subscriber lives on. Run it
// under the pipeline's Apply when traffic is flowing.
func (s *Sharded) Resize(rate, burst int64, now libvig.Time) error {
	return s.Broadcast(func(_ int, p *Policer) error {
		return p.Resize(rate, burst, now)
	})
}
