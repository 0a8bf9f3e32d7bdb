package nf

import (
	"errors"
	"sync/atomic"

	"vignat/internal/fastpath"
	"vignat/internal/libvig"
	"vignat/internal/nf/telemetry"
)

// ShardStats is the cheap per-shard stats surface sharded NFs expose
// (ROADMAP "per-shard stats aggregation"): one cache-line-padded
// counter cell per shard, written with atomic adds by the shard's
// owning worker and read with atomic loads by anyone. Before this
// existed, Sharded.NFStats walked every shard's private counters on
// each call — an O(shards) sweep over cache lines the workers own,
// racy to call with traffic in flight. A snapshot now costs a handful
// of uncontended atomic loads and may run concurrently with the packet
// path (the metrics-endpoint scrape pattern), while the padding keeps
// two shards' counters from ever sharing a cache line.
type ShardStats struct {
	cells []statCell
	// reasons holds the per-shard reason counters when the wrapped NF
	// declares a telemetry taxonomy; nil otherwise.
	reasons *ReasonStats
}

// statCell is one shard's engine-visible counters, padded so adjacent
// shards (owned by different workers) never false-share. The fastpath
// counters live in the same cell: they are written by the shard's
// owning worker too (the engine flushes them after each burst), so the
// single-writer-per-cell discipline is unchanged.
type statCell struct {
	processed   atomic.Uint64
	forwarded   atomic.Uint64
	dropped     atomic.Uint64
	expired     atomic.Uint64
	fpHits      atomic.Uint64
	fpMisses    atomic.Uint64
	fpEvictions atomic.Uint64
	fpBypassed  atomic.Uint64 // eighth counter fills the 64-byte cell exactly
}

// NewShardStats returns a stats block with one padded cell per shard.
func NewShardStats(shards int) (*ShardStats, error) {
	if shards < 1 {
		return nil, errors.New("nf: shard stats need at least one shard")
	}
	return &ShardStats{cells: make([]statCell, shards)}, nil
}

// Shards returns the number of cells.
func (s *ShardStats) Shards() int { return len(s.cells) }

// add folds a delta into shard i's cell. Zero deltas skip the atomic
// entirely — on the steady state most batches touch one or two
// counters.
func (s *ShardStats) add(i int, d Stats) {
	c := &s.cells[i]
	if d.Processed != 0 {
		c.processed.Add(d.Processed)
	}
	if d.Forwarded != 0 {
		c.forwarded.Add(d.Forwarded)
	}
	if d.Dropped != 0 {
		c.dropped.Add(d.Dropped)
	}
	if d.Expired != 0 {
		c.expired.Add(d.Expired)
	}
	if d.FastPathHits != 0 {
		c.fpHits.Add(d.FastPathHits)
	}
	if d.FastPathMisses != 0 {
		c.fpMisses.Add(d.FastPathMisses)
	}
	if d.FastPathEvictions != 0 {
		c.fpEvictions.Add(d.FastPathEvictions)
	}
	if d.FastPathBypassed != 0 {
		c.fpBypassed.Add(d.FastPathBypassed)
	}
}

// AddFastPath folds the engine's flow-cache counters for one burst
// into shard i's cell — the engine owns these (the NF never sees its
// cache hits), so they arrive through their own entry point rather
// than the CountedNF delta discipline. Bypassed rides along so the
// cold-mode bypass rate is scrapeable race-free like hits and misses.
func (s *ShardStats) AddFastPath(i int, hits, misses, evictions, bypassed uint64) {
	s.add(i, Stats{
		FastPathHits: hits, FastPathMisses: misses,
		FastPathEvictions: evictions, FastPathBypassed: bypassed,
	})
}

// ShardSnapshot returns shard i's counters. Safe to call from any
// goroutine at any time.
func (s *ShardStats) ShardSnapshot(i int) Stats {
	c := &s.cells[i]
	return Stats{
		Processed:         c.processed.Load(),
		Forwarded:         c.forwarded.Load(),
		Dropped:           c.dropped.Load(),
		Expired:           c.expired.Load(),
		FastPathHits:      c.fpHits.Load(),
		FastPathMisses:    c.fpMisses.Load(),
		FastPathEvictions: c.fpEvictions.Load(),
		FastPathBypassed:  c.fpBypassed.Load(),
	}
}

// Snapshot returns the counters aggregated across shards. Safe to call
// from any goroutine at any time; each cell is read atomically, so the
// aggregate reflects every batch a shard has completed (a batch still
// in flight on another worker lands in the next snapshot).
func (s *ShardStats) Snapshot() Stats {
	var agg Stats
	for i := range s.cells {
		agg.Add(s.ShardSnapshot(i))
	}
	return agg
}

// ReasonStats is the per-shard reason-counter block: one flat array of
// atomic words, shard i owning the stride-aligned slice
// [i*stride, i*stride+len(set)). The stride rounds the declared reason
// count up to a whole number of 64-byte lines so two shards' reasons
// never false-share, the same padding discipline as statCell.
type ReasonStats struct {
	set    *telemetry.ReasonSet
	stride int
	cells  []atomic.Uint64
}

// newReasonStats builds the block for shards shards of set's taxonomy.
func newReasonStats(set *telemetry.ReasonSet, shards int) *ReasonStats {
	const line = 8 // uint64 words per 64-byte cache line
	stride := (set.Len() + line - 1) / line * line
	return &ReasonStats{set: set, stride: stride, cells: make([]atomic.Uint64, stride*shards)}
}

// Set returns the taxonomy the block counts.
func (r *ReasonStats) Set() *telemetry.ReasonSet { return r.set }

// add folds n occurrences of reason id into shard i's counters.
func (r *ReasonStats) add(i int, id telemetry.ReasonID, n uint64) {
	r.cells[i*r.stride+int(id)].Add(n)
}

// ShardSnapshot returns shard i's per-reason totals, indexed by
// ReasonID. Safe from any goroutine.
func (r *ReasonStats) ShardSnapshot(i int) []uint64 {
	out := make([]uint64, r.set.Len())
	base := i * r.stride
	for j := range out {
		out[j] = r.cells[base+j].Load()
	}
	return out
}

// Snapshot returns the per-reason totals aggregated across shards.
func (r *ReasonStats) Snapshot() []uint64 {
	out := make([]uint64, r.set.Len())
	for i := 0; i < len(r.cells)/r.stride; i++ {
		base := i * r.stride
		for j := range out {
			out[j] += r.cells[base+j].Load()
		}
	}
	return out
}

// CountedNF wraps one shard of a sharded NF so that its activity is
// mirrored into a ShardStats cell: after every batch (or single call)
// the wrapper diffs the inner NF's own counters against the last
// published value and folds the delta into the cell with atomic adds.
// The inner NF keeps its plain single-writer counters on the hot path
// — per-packet accounting stays free — and pays a few atomics per
// burst for a stats surface that is safe to scrape concurrently.
//
// The delta discipline also makes the cell robust to processing that
// bypasses the wrapper (a harness calling the inner NF directly): the
// next wrapped call, or an explicit Sync, catches the cell up.
type CountedNF struct {
	inner       NF
	fp          FastPather    // inner as a FastPather, nil when it is not one
	rs          ReasonStatser // inner as a ReasonStatser, nil when it is not one
	block       *ShardStats
	shard       int
	last        Stats    // last published totals; owner-goroutine only
	lastReasons []uint64 // last published per-reason totals; owner-goroutine only
}

var (
	_ NF         = (*CountedNF)(nil)
	_ FastPather = (*CountedNF)(nil)
)

// Counted wraps inner so its counters mirror into block's cell for
// shard. Like the NF itself, the wrapper is single-threaded per
// instance: only the owning worker calls its methods (snapshots go
// through the block).
func Counted(inner NF, block *ShardStats, shard int) *CountedNF {
	c := &CountedNF{inner: inner, block: block, shard: shard}
	c.fp, _ = inner.(FastPather)
	if rs, ok := inner.(ReasonStatser); ok && block.reasons != nil {
		c.rs = rs
		c.lastReasons = make([]uint64, block.reasons.set.Len())
	}
	return c
}

// Name identifies the wrapped NF.
func (c *CountedNF) Name() string { return c.inner.Name() }

// Sync publishes any inner-counter movement since the last publication
// into the shard's cell.
func (c *CountedNF) Sync() {
	cur := c.inner.NFStats()
	c.block.add(c.shard, Stats{
		Processed: cur.Processed - c.last.Processed,
		Forwarded: cur.Forwarded - c.last.Forwarded,
		Dropped:   cur.Dropped - c.last.Dropped,
		Expired:   cur.Expired - c.last.Expired,
	})
	c.last = cur
	if c.rs != nil {
		counts := c.rs.ReasonCounts()
		for id, v := range counts {
			if id >= len(c.lastReasons) {
				break
			}
			if d := v - c.lastReasons[id]; d != 0 {
				c.block.reasons.add(c.shard, telemetry.ReasonID(id), d)
				c.lastReasons[id] = v
			}
		}
	}
}

// ExpireQuiet advances the inner NF's expiry without publishing a
// stats delta. The engine's fast path calls this at most once per
// shard burst (repeat sweeps at one timestamp are no-ops) and follows
// the burst with a single Sync, so per-hit expiry costs no atomics.
func (c *CountedNF) ExpireQuiet(now libvig.Time) { c.inner.Expire(now) }

// Process runs one frame through the inner NF and publishes the delta.
func (c *CountedNF) Process(frame []byte, fromInternal bool) Verdict {
	v := c.inner.Process(frame, fromInternal)
	c.Sync()
	return v
}

// ProcessBatch runs the burst through the inner NF and publishes the
// delta once for the whole burst.
func (c *CountedNF) ProcessBatch(pkts []Pkt, verdicts []Verdict) {
	c.inner.ProcessBatch(pkts, verdicts)
	c.Sync()
}

// ProcessBatchQuiet runs the burst through the inner NF without
// publishing a stats delta, at the engine's burst timestamp when the
// inner NF accepts one (nfkit adapters do). The engine's fast path
// fragments a mixed burst into one slow run per cache hit and calls
// this per fragment, paying the publication atomics and the clock
// read once per burst instead of per fragment.
func (c *CountedNF) ProcessBatchQuiet(pkts []Pkt, verdicts []Verdict, now libvig.Time) {
	if ba, ok := c.inner.(BatchAtter); ok {
		ba.ProcessBatchAt(pkts, verdicts, now)
		return
	}
	c.inner.ProcessBatch(pkts, verdicts)
}

// Expire advances the inner NF's expiry and publishes the delta.
func (c *CountedNF) Expire(now libvig.Time) int {
	n := c.inner.Expire(now)
	c.Sync()
	return n
}

// NFStats returns the shard's published counters (atomic loads).
func (c *CountedNF) NFStats() Stats { return c.block.ShardSnapshot(c.shard) }

// LastReasonName returns the declared label of the most recently
// processed packet's reason, or "" when the inner NF declares no
// taxonomy — the trace ring's best-effort label. Owner goroutine only.
func (c *CountedNF) LastReasonName() string {
	if c.rs == nil {
		return ""
	}
	return c.rs.ReasonSet().Name(c.rs.LastReason())
}

// FastPathEnabled reports whether the inner NF participates in the
// engine's flow cache.
func (c *CountedNF) FastPathEnabled() bool { return c.fp != nil && c.fp.FastPathEnabled() }

// FastOffer forwards a cache-install offer to the inner NF (a
// read-only lookup; no counters move).
func (c *CountedNF) FastOffer(key fastpath.Key) (uint64, fastpath.Guard, bool) {
	if c.fp == nil {
		return 0, fastpath.Guard{}, false
	}
	return c.fp.FastOffer(key)
}

// FastHit forwards a cache hit to the inner NF. Hits mutate the
// core's own counters exactly like the slow path would; the engine
// calls Sync once per shard burst to publish them (the same
// once-per-batch cadence ProcessBatch uses), so the hit path itself
// pays no atomics.
func (c *CountedNF) FastHit(aux uint64, pktLen int, now libvig.Time) Verdict {
	return c.fp.FastHit(aux, pktLen, now)
}

// FastHitFunc hands out the innermost pre-bound hit handler — the
// wrapper adds nothing per hit (its counter mirroring runs at burst
// end via Sync), so the engine may bypass it entirely.
func (c *CountedNF) FastHitFunc() FastHitFunc {
	if f, ok := c.inner.(FastHitFuncer); ok {
		return f.FastHitFunc()
	}
	if c.fp != nil {
		return c.fp.FastHit
	}
	return nil
}

// CountedShards is the shared plumbing every sharded NF needs around
// its per-shard counted wrappers: construction, the Shard accessor the
// Sharder interface requires, whole-NF expiry, and the cheap snapshot
// surface. Sharded NFs (nat.Sharded, lb.Sharded) embed it and supply
// only what actually differs — steering and the per-packet paths.
type CountedShards struct {
	counted []*CountedNF
	stats   *ShardStats
}

// NewCountedShards wraps each shard NF in a CountedNF sharing one
// padded stats block.
func NewCountedShards(shards []NF) (*CountedShards, error) {
	block, err := NewShardStats(len(shards))
	if err != nil {
		return nil, err
	}
	// A taxonomy is a property of the NF type, so shard 0 speaks for
	// all: when it declares reasons, the block grows padded per-shard
	// reason cells and every counted wrapper mirrors into them.
	if len(shards) > 0 {
		if rs, ok := shards[0].(ReasonStatser); ok && rs.ReasonSet() != nil {
			block.reasons = newReasonStats(rs.ReasonSet(), len(shards))
		}
	}
	c := &CountedShards{
		counted: make([]*CountedNF, len(shards)),
		stats:   block,
	}
	for i, s := range shards {
		c.counted[i] = Counted(s, block, i)
	}
	return c, nil
}

// Shards returns the shard count.
func (c *CountedShards) Shards() int { return len(c.counted) }

// Shard returns shard i as a standalone NF. The returned NF mirrors
// its counters into the sharded stats block, so anything it processes
// is visible to StatsSnapshot.
func (c *CountedShards) Shard(i int) NF { return c.counted[i] }

// CountedShard returns shard i's counted wrapper (per-packet paths
// that bypass the wrapper call its Sync).
func (c *CountedShards) CountedShard(i int) *CountedNF { return c.counted[i] }

// SyncAll publishes every shard's pending counter deltas — the hook
// for batch paths that drive the inner NFs directly.
func (c *CountedShards) SyncAll() {
	for i := range c.counted {
		c.counted[i].Sync()
	}
}

// Expire advances expiry on every shard.
func (c *CountedShards) Expire(now libvig.Time) int {
	total := 0
	for _, shard := range c.counted {
		total += shard.Expire(now)
	}
	return total
}

// NFStats returns StatsSnapshot: the aggregate of the per-shard padded
// counter cells, read atomically — no walk over shard-owned state.
func (c *CountedShards) NFStats() Stats { return c.StatsSnapshot() }

// StatsSnapshot returns the engine-visible counters aggregated across
// shards, from the per-shard padded cells (a few atomic loads per
// shard). It is safe to call concurrently with workers processing
// traffic — the metrics-scrape path — and reflects every batch the
// shards have completed.
func (c *CountedShards) StatsSnapshot() Stats { return c.stats.Snapshot() }

// ShardStatsSnapshot returns shard i's engine-visible counters, with
// the same concurrency guarantee as StatsSnapshot.
func (c *CountedShards) ShardStatsSnapshot(i int) Stats { return c.stats.ShardSnapshot(i) }

// AddFastPath folds the engine's flow-cache counters for one burst
// into shard i's padded cell (the FastPathCounter hook the pipeline
// uses; race-safe like every other cell write).
func (c *CountedShards) AddFastPath(i int, hits, misses, evictions, bypassed uint64) {
	c.stats.AddFastPath(i, hits, misses, evictions, bypassed)
}

// ReasonSet returns the wrapped NF's declared taxonomy, or nil when it
// declares none.
func (c *CountedShards) ReasonSet() *telemetry.ReasonSet {
	if c.stats.reasons == nil {
		return nil
	}
	return c.stats.reasons.Set()
}

// ReasonSnapshot returns the per-reason totals aggregated across
// shards (indexed by ReasonID), or nil when no taxonomy is declared.
// Safe to call concurrently with workers processing traffic.
func (c *CountedShards) ReasonSnapshot() []uint64 {
	if c.stats.reasons == nil {
		return nil
	}
	return c.stats.reasons.Snapshot()
}

// ShardReasonSnapshot returns shard i's per-reason totals, or nil when
// no taxonomy is declared.
func (c *CountedShards) ShardReasonSnapshot(i int) []uint64 {
	if c.stats.reasons == nil {
		return nil
	}
	return c.stats.reasons.ShardSnapshot(i)
}
