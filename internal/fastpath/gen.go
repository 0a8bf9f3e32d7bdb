package fastpath

import "vignat/internal/libvig"

// GenTable invalidates cache entries in O(1): one generation counter
// per NF state index. An entry installed for state index i captures
// the generation at install time; every erasure of index i bumps the
// counter, so the entry's Guard goes dead the instant the state it
// resolved against is gone — whoever holds the entry discovers this
// lazily at hit time and falls back to the slow path. No list of
// dependent cache entries is ever maintained, which is what keeps
// erasure (the expiry path) O(1) and the cache per-worker private.
//
// A GenTable is written only by the NF's owning worker (erasures run
// on the packet path or the single-threaded control path) and read by
// the same worker's cache probes, so it needs no atomics — the same
// single-writer discipline as every libVig structure here.
type GenTable struct {
	gens []uint32
	mem  *libvig.Backing // gens
}

// NewGenTable returns a generation table for capacity state indices.
func NewGenTable(capacity int) *GenTable {
	mem := new(libvig.Backing)
	return &GenTable{gens: libvig.Make[uint32](mem, capacity), mem: mem}
}

// Bump invalidates every guard captured for index i. Out-of-range
// indices are ignored (erasers may run on indices the table never
// guarded).
func (g *GenTable) Bump(i int) {
	if g == nil || i < 0 || i >= len(g.gens) {
		return
	}
	g.gens[i]++
}

// Guard captures index i's current generation.
func (g *GenTable) Guard(i int) Guard {
	return Guard{table: g, idx: int32(i), gen: g.gens[i]}
}

// Guard is a cache entry's liveness witness: it is live while the
// guarded state index has not been erased since capture. The zero
// Guard is always live — entries for stateless outcomes (a balancer's
// non-VIP passthrough, a policer's egress side) need no invalidation.
type Guard struct {
	table *GenTable
	idx   int32
	gen   uint32
}

// Live reports whether the guarded state still exists.
func (gd Guard) Live() bool {
	return gd.table == nil || gd.table.gens[gd.idx] == gd.gen
}
