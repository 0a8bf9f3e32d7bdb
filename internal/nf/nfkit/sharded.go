package nfkit

import (
	"fmt"
	"sync/atomic"

	"vignat/internal/libvig"
	"vignat/internal/nf"
)

// Sharded is the derived RSS-style sharded composition: nShards
// independent cores, each built by the declaration's shard
// constructor, steered by the declared ShardOf, each publishing its
// counter array into its own nf.Block. It replaces the three
// near-identical per-NF Sharded implementations (NAT, balancer,
// policer) with one.
//
// Every packet touches exactly one shard, shards share no mutable
// state, and the pipeline may run them on distinct workers with no
// synchronization on the fast path — the per-core partitioning a
// multi-queue DPDK NF gets from NIC RSS, exactly as before the kit;
// what changed is that the composition is now written once.
//
// The composition's shards (cores and their blocks) sit behind one
// atomic pointer so that Reshard — the live worker-change verb — can
// swap the whole partitioning in a single store: packet-path readers
// are quiesced by the pipeline around the swap, and the always-on
// readers that are not (metrics scrapes reading the blocks) see either
// the old generation or the new one, never a torn mix.
//
// Nothing a reader is handed comes from a core: NFStats, Scrape,
// Counters and the per-NF Stats views on top of it are all functions
// of one read of the blocks, so all of them may run concurrently with
// packet processing.
type Sharded[C any] struct {
	decl  Decl[C]
	state atomic.Pointer[shardedState[C]]

	// migrated counts state records carried across Reshard calls;
	// migrationDropped counts records a reshard could not place (the
	// destination shard refused the restore — e.g. a hash-skewed
	// repartition overflowing one shard's slice of the capacity). The
	// conservation law across a composition's lifetime is
	// created − expired − unpinned − migrationDropped == live.
	// Both are control-path state: written under the pipeline's
	// control mutex, read by the control plane.
	migrated         uint64
	migrationDropped uint64
}

// shardedState is one immutable generation of the composition: the
// cores and their blocks always swap together.
type shardedState[C any] struct {
	shards []*shard[C]
}

// cores lists the generation's cores in shard order.
func (st *shardedState[C]) cores() []C {
	cores := make([]C, len(st.shards))
	for i, sh := range st.shards {
		cores[i] = sh.core
	}
	return cores
}

// shard is what the engine is handed for one partition: the core's
// adapter plus the block its counters are published in. Everything the
// engine calls per packet or per fragment is the adapter's own method,
// promoted; the shard adds only the publication (nf.Publisher), which
// whoever drives it calls once its burst is done.
type shard[C any] struct {
	*Adapter[C]
	block *nf.Block
}

// Publish copies the core's counter array into the shard's block and
// adds the burst's flow-cache counters.
func (sh *shard[C]) Publish(fc nf.FlowCache) { sh.block.Publish(sh.counters(), fc) }

// published reads every shard's block once and sums them cell by cell.
func (st *shardedState[C]) published() ([]uint64, nf.FlowCache) {
	sum, fc := st.shards[0].block.Snapshot()
	for _, sh := range st.shards[1:] {
		c, f := sh.block.Snapshot()
		for i, v := range c {
			sum[i] += v
		}
		fc.Add(f)
	}
	return sum, fc
}

var (
	_ nf.NF          = (*Sharded[int])(nil)
	_ nf.Sharder     = (*Sharded[int])(nil)
	_ nf.Scraper     = (*Sharded[int])(nil)
	_ nf.TableFiller = (*Sharded[int])(nil)
	_ nf.Publisher   = (*shard[int])(nil)
)

// buildState constructs nShards fresh cores, each with its block.
func buildState[C any](d *Decl[C], nShards int) (*shardedState[C], error) {
	perShard := 0
	if d.Capacity > 0 {
		perShard = d.Capacity / nShards
	}
	st := &shardedState[C]{shards: make([]*shard[C], nShards)}
	for i := 0; i < nShards; i++ {
		core, err := d.New(i, nShards, perShard)
		if err != nil {
			return nil, fmt.Errorf("nfkit: %s shard %d: %w", d.Name, i, err)
		}
		a := d.Adapt(core)
		st.shards[i] = &shard[C]{Adapter: a, block: nf.NewBlock(len(a.counters()))}
	}
	return st, nil
}

// checkShardCount validates a shard count against the declaration.
func checkShardCount[C any](d *Decl[C], nShards int) error {
	if nShards < 1 {
		return fmt.Errorf("nfkit: %s shard count must be at least 1", d.Name)
	}
	if nShards > 1 && d.ShardOf == nil {
		return fmt.Errorf("nfkit: %s declares no shard steering", d.Name)
	}
	if d.Capacity > 0 && d.Capacity/nShards == 0 {
		return fmt.Errorf("nfkit: %s capacity %d cannot fill %d shards", d.Name, d.Capacity, nShards)
	}
	return nil
}

// NewSharded builds the declared NF's nShards-shard composition. With
// nShards == 1 this is exactly one core behind the nf.NF interface;
// declarations without a steering function are restricted to that
// case.
func NewSharded[C any](d Decl[C], nShards int) (*Sharded[C], error) {
	if err := d.validate(true); err != nil {
		return nil, err
	}
	if err := checkShardCount(&d, nShards); err != nil {
		return nil, err
	}
	s := &Sharded[C]{decl: d}
	st, err := buildState(&s.decl, nShards)
	if err != nil {
		return nil, err
	}
	s.state.Store(st)
	return s, nil
}

// Name identifies the sharded NF.
func (s *Sharded[C]) Name() string {
	if n := s.Shards(); n > 1 {
		return fmt.Sprintf("%s×%d", s.decl.Name, n)
	}
	return s.decl.Name
}

// Sym returns the symbolic declaration of the NF every shard runs: what
// proving this composition proves.
func (s *Sharded[C]) Sym() *SymSpec { return s.decl.Sym }

// Core returns shard i's production core (tests, stats drill-down).
func (s *Sharded[C]) Core(i int) C { return s.state.Load().shards[i].core }

// Cores returns every shard's core, in shard order, as of this call: a
// Reshard replaces them all, so long-lived callers should re-read
// rather than cache.
func (s *Sharded[C]) Cores() []C { return s.state.Load().cores() }

// ShardOf steers a frame to the shard owning its flow via the declared
// steering function, clamping misdeclared results onto shard 0 (the
// frame will be handled there like on any other shard; the clamp only
// keeps a misbehaving declaration memory-safe). It is allocation-free
// and safe for concurrent use whenever the declared function is, which
// the declaration contract requires.
func (s *Sharded[C]) ShardOf(frame []byte, fromInternal bool) int {
	return s.shardOf(s.state.Load(), frame, fromInternal)
}

// shardOf is ShardOf against an already-loaded state generation.
func (s *Sharded[C]) shardOf(st *shardedState[C], frame []byte, fromInternal bool) int {
	n := len(st.shards)
	if n == 1 {
		return 0
	}
	shard := s.decl.ShardOf(frame, fromInternal, n)
	if shard < 0 || shard >= n {
		return 0
	}
	return shard
}

// ProcessBatch steers a burst, hands each run of consecutive packets
// bound for one shard to that shard's adapter at one clock read, and
// publishes every shard once.
func (s *Sharded[C]) ProcessBatch(pkts []nf.Pkt, verdicts []nf.Verdict) {
	st := s.state.Load()
	now := s.decl.now()
	start, shard := 0, 0
	for i := range pkts {
		next := s.shardOf(st, pkts[i].Frame, pkts[i].FromInternal)
		if i > start && next != shard {
			st.shards[shard].ProcessBatchAt(pkts[start:i], verdicts[start:i], now)
			start = i
		}
		shard = next
	}
	if start < len(pkts) {
		st.shards[shard].ProcessBatchAt(pkts[start:], verdicts[start:], now)
	}
	for _, sh := range st.shards {
		sh.Publish(nf.FlowCache{})
	}
}

// Shards returns the shard count.
func (s *Sharded[C]) Shards() int { return len(s.state.Load().shards) }

// Shard returns shard i as a standalone NF for the engine to drive: a
// bare adapter that is also an nf.Publisher. It never publishes by
// itself — its driver does, once per burst.
func (s *Sharded[C]) Shard(i int) nf.NF { return s.state.Load().shards[i] }

// Expire advances expiry on every shard, publishing the ones that
// freed something.
func (s *Sharded[C]) Expire(now libvig.Time) int {
	total := 0
	for _, sh := range s.state.Load().shards {
		if n := sh.Expire(now); n > 0 {
			total += n
			sh.Publish(nf.FlowCache{})
		}
	}
	return total
}

// NFStats returns the engine-visible counters aggregated across
// shards: Scrape's Stats.
func (s *Sharded[C]) NFStats() nf.Stats { return s.Scrape().Stats }

// Scrape reads every shard's block once and returns every reader-side
// surface of that one read. It is safe concurrently with traffic, and
// with a live reshard: the atomic state load pins one generation for
// the whole read.
func (s *Sharded[C]) Scrape() nf.Scrape {
	return s.decl.scrape(s.state.Load().published())
}

// ShardScrape is Scrape of shard i's block alone.
func (s *Sharded[C]) ShardScrape(i int) nf.Scrape {
	return s.decl.scrape(s.state.Load().shards[i].block.Snapshot())
}

// Counters returns the declared counter arrays as published, summed
// across shards cell by cell — what the per-NF Stats() aggregators
// take their view of.
func (s *Sharded[C]) Counters() []uint64 {
	sum, _ := s.state.Load().published()
	return sum
}

// foldCounters sums the cores' counter arrays cell by cell, refusing
// arrays of differing lengths: a cell with no counterpart would have
// to be dropped, and a counter may not vanish silently.
func foldCounters[C any](d *Decl[C], cores []C) ([]uint64, error) {
	if d.Counters == nil {
		return nil, nil
	}
	sum := make([]uint64, len(d.Counters(cores[0])))
	for i, core := range cores {
		v := d.Counters(core)
		if len(v) != len(sum) {
			return nil, fmt.Errorf("shard %d keeps %d counters, shard 0 keeps %d", i, len(v), len(sum))
		}
		for j, n := range v {
			sum[j] += n
		}
	}
	return sum, nil
}

// Broadcast runs a control-plane operation on every shard in shard
// order, stopping at the first error — the pattern every replicated
// control operation (backend add/remove) uses — and
// publishes each shard it ran on (a drained backend unpins flows, a
// counted event). Like all control-path mutations in the repository it
// must not run concurrently with packet processing.
func (s *Sharded[C]) Broadcast(op func(shard int, core C) error) error {
	for i, sh := range s.state.Load().shards {
		err := op(i, sh.core)
		sh.Publish(nf.FlowCache{})
		if err != nil {
			return err
		}
	}
	return nil
}

// Migrated returns the cumulative number of state records carried to a
// new shard by Reshard calls (broadcast records count once per
// receiving shard — they are genuinely replicated).
func (s *Sharded[C]) Migrated() uint64 { return s.migrated }

// MigrationDropped returns the cumulative number of state records a
// Reshard could not place. These are the sessions a repartition
// evicts, the "migrated" term of the conservation law; a hitless
// reshard leaves it unchanged.
func (s *Sharded[C]) MigrationDropped() uint64 { return s.migrationDropped }

// Reshard rebuilds the composition at a new shard count, migrating
// every record of every declared family (Decl.Families) — the hitless-reshard
// verb. The protocol is copy-then-switch: fresh cores are built, each
// family in declaration order restores its records, in stamp order,
// into the shards that own them under the new partitioning, and the old
// cores' counter arrays (Decl.Counters) are summed cell by cell into new
// shard 0's and every new block pre-published, the old blocks'
// flow-cache cells riding along — all before the single atomic store
// that commits the move. A refused reshard (bad count, counter arrays of
// differing lengths, constructor failure, a replicated family's restore
// failing, a family placing a record outside the new shard count)
// therefore leaves the composition exactly as it was, and an observer
// never sees counters dip. A placed record its destination refuses
// degrades to a dropped session (MigrationDropped) rather than refusing
// the whole move, as a hash-skewed repartition must when one shard
// cannot hold its share; restores never bump creation counters (the
// Records contract), so created−expired−unpinned−migrationDropped ==
// live holds across the move.
//
// Like every control-path mutation it must not run concurrently with
// packet processing; the pipeline quiesces its workers around it.
func (s *Sharded[C]) Reshard(n int) error {
	d := &s.decl
	if len(d.Families) == 0 {
		return fmt.Errorf("nfkit: %s declares no record families", d.Name)
	}
	if err := checkShardCount(d, n); err != nil {
		return err
	}
	if d.CheckReshard != nil {
		if err := d.CheckReshard(n); err != nil {
			return fmt.Errorf("nfkit: %s cannot reshard to %d: %w", d.Name, n, err)
		}
	}
	old := s.state.Load()
	from := old.cores()

	// Fold the counter arrays, refusing before anything is built when
	// they cannot be.
	counters, err := foldCounters(d, from)
	if err != nil {
		return fmt.Errorf("nfkit: %s reshard to %d: %w", d.Name, n, err)
	}
	st, err := buildState(d, n)
	if err != nil {
		return fmt.Errorf("nfkit: %s reshard to %d: %w", d.Name, n, err)
	}
	to := st.cores()
	var moved, dropped uint64
	for _, f := range d.Families {
		m, dr, err := f.move(from, to)
		if err != nil {
			return fmt.Errorf("nfkit: %s reshard to %d: %w", d.Name, n, err)
		}
		moved, dropped = moved+m, dropped+dr
	}

	if counters != nil {
		into := d.Counters(to[0])
		if len(into) != len(counters) {
			return fmt.Errorf("nfkit: %s reshard to %d: new shard 0 keeps %d counters, the old shards kept %d",
				d.Name, n, len(into), len(counters))
		}
		for i, v := range counters {
			into[i] += v
		}
	}
	// Pre-publish the new blocks, shard 0's with the old blocks'
	// flow-cache cells folded in like the counters above, so the commit
	// below never exposes a zeroed snapshot to a scraper.
	_, fc := old.published()
	st.shards[0].Publish(fc)
	for _, sh := range st.shards[1:] {
		sh.Publish(nf.FlowCache{})
	}

	// Commit: everything above touched only locals.
	s.state.Store(st)
	s.migrated += moved
	s.migrationDropped += dropped
	return nil
}
