package policer

import (
	"vignat/internal/flow"
	"vignat/internal/libvig"
	"vignat/internal/nf/nfkit"
)

// This file is the policer's control-plane surface: the live rate
// resize and the declaration of its migratable state (counters move
// through Decl.Counters, generically).

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
// would silently revert. Replicated to every shard, and the first
// family, so bucket levels clamp against the right depth.
type cfgRecord struct {
	rate  int64
	burst int64
}

// subRecord migrates one subscriber: identity, budget, and the bucket
// clock the budget was settled at. The DChain stamp rides beside it.
type subRecord struct {
	addr       flow.Addr
	levelUnits int64
	lastRefill libvig.Time
}

// subscribersFamily names the subscriber table's record family.
const subscribersFamily = "subscribers"

// families declares the policer's migratable state.
func families() []nfkit.Family[*Policer] {
	return []nfkit.Family[*Policer]{
		nfkit.Records[*Policer, cfgRecord]{
			Name: "config",
			Each: func(p *Policer, emit func(cfgRecord, libvig.Time)) {
				emit(cfgRecord{rate: p.cfg.Rate, burst: p.cfg.Burst}, 0)
			},
			// Buckets are empty when the config lands, so now=0 settles
			// nothing.
			Restore: func(p *Policer, c cfgRecord, _ libvig.Time) error { return p.Resize(c.rate, c.burst, 0) },
		},
		nfkit.Records[*Policer, subRecord]{
			Name: subscribersFamily,
			Each: func(p *Policer, emit func(subRecord, libvig.Time)) {
				for i, stamp, ok := p.chain.Oldest(); ok; i, stamp, ok = p.chain.After(i) {
					addr, err := p.addrs.Get(i)
					if err != nil {
						continue
					}
					level, _ := p.buckets.LevelUnits(i)
					last, _ := p.buckets.LastRefill(i)
					emit(subRecord{addr: addr, levelUnits: level, lastRefill: last}, stamp)
				}
			},
			// BucketsCreated does not move: the subscriber was admitted
			// once, on the shard it migrated from.
			Restore: func(p *Policer, s subRecord, stamp libvig.Time) error {
				idx, err := p.admit(s.addr, stamp)
				if err != nil {
					return err
				}
				if err := p.buckets.Restore(idx, s.levelUnits, s.lastRefill); err != nil {
					_ = p.subs.Erase(s.addr)
					_ = p.chain.Free(idx)
					return err
				}
				return nil
			},
			// Both directions of the declared steering hash the
			// subscriber address.
			ShardOf:   func(s *subRecord, shards int) int { return int(s.addr.Hash() % uint64(shards)) },
			Occupancy: func(p *Policer) (int, int) { return p.Subscribers(), p.cfg.Capacity },
		},
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
