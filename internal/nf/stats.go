package nf

import (
	"sync/atomic"

	"vignat/internal/nf/telemetry"
)

// The engine's flow-cache cells, in the order they follow the core's
// own counters in a Block.
const (
	fcHits = iota
	fcMisses
	fcEvictions
	fcBypassed
	flowCacheCells
)

// FlowCache is the engine's flow-cache counters for one shard: hits,
// misses, evictions, bypassed, in that order. The engine owns them (an
// NF never sees its cache hits), so they reach a Block as the delta of
// one burst.
type FlowCache [flowCacheCells]uint64

// Block is one shard's published counters, the only copy anything
// outside the shard's worker ever reads: the core's own counter array
// (nfkit's Decl.Counters: reason cells first, then the NF's lifecycle
// counters) followed by the engine's flow-cache cells. The worker that
// owns the shard is the only writer (Publish); anyone may read at any
// time (Snapshot). A block is allocated in whole 64-byte lines, so two
// shards' blocks never share one.
type Block struct{ cells []atomic.Uint64 }

// NewBlock returns the block for a core that keeps counters counters.
func NewBlock(counters int) *Block {
	const line = 8 // uint64 words per 64-byte cache line
	n := counters + flowCacheCells
	return &Block{cells: make([]atomic.Uint64, n, (n+line-1)/line*line)}
}

// Publish brings the block up to date with the core's live counter
// array and adds one burst's flow-cache counters: the block's only
// writer. The cells are a copy, so the ones that did not move cost a
// load and a compare, and there is one writer, so the ones that did
// cost a plain store — on the steady state a burst moves two or three.
func (b *Block) Publish(counters []uint64, fc FlowCache) {
	for i, v := range counters {
		if c := &b.cells[i]; c.Load() != v {
			c.Store(v)
		}
	}
	tail := b.cells[len(b.cells)-flowCacheCells:]
	for i, d := range fc {
		if d != 0 {
			tail[i].Store(tail[i].Load() + d)
		}
	}
}

// Snapshot reads the block once: the core's counters as last published
// and the flow-cache cells. Every cell only grows, so anything summed
// from one snapshot is monotone from one snapshot to the next.
func (b *Block) Snapshot() ([]uint64, FlowCache) {
	counters := make([]uint64, len(b.cells)-flowCacheCells)
	for i := range counters {
		counters[i] = b.cells[i].Load()
	}
	var fc FlowCache
	for i := range fc {
		fc[i] = b.cells[len(counters)+i].Load()
	}
	return counters, fc
}

// Add accumulates other into fc (shard aggregation).
func (fc *FlowCache) Add(other FlowCache) {
	for i, v := range other {
		fc[i] += v
	}
}

// With returns s with its FastPath fields read from fc.
func (s Stats) With(fc FlowCache) Stats {
	s.FastPathHits, s.FastPathMisses = fc[fcHits], fc[fcMisses]
	s.FastPathEvictions, s.FastPathBypassed = fc[fcEvictions], fc[fcBypassed]
	return s
}

// Publisher is implemented by shard NFs whose counters are read through
// a Block (nfkit.Sharded's shards, Chain). Processing never publishes by
// itself: whoever drives the shard calls Publish when its burst is
// done — the engine once per shard burst (slow-run fragments and cache
// hits in between publish nothing) and after an idle sweep that freed
// something, passing the burst's flow-cache counters.
type Publisher interface {
	Publish(fc FlowCache)
}

// Scrape is one source's counters as of one read of its blocks: every
// series of one /metrics document is derived from one Scrape, so the
// document is consistent with itself (processed = Σ reasons =
// forwarded + dropped) however fast the counters move.
type Scrape struct {
	Stats Stats
	// Reasons is the NF's declared outcome taxonomy, nil when it
	// declares none; Counters is then its whole counter array, the
	// per-reason totals first (indexed by ReasonID), the NF's lifecycle
	// counters after them.
	Reasons  *telemetry.ReasonSet
	Counters []uint64
}

// Scraper is implemented by NFs that can be read concurrently with
// their own packet processing (nfkit.Sharded: the sum of its shards'
// blocks; Chain: its own block and its elements' scrapes).
type Scraper interface {
	Scrape() Scrape
}
