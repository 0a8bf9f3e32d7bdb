package libvig

import "errors"

// CHT errors.
var (
	ErrCHTBackendRange = errors.New("libvig: backend index out of range")
	ErrCHTBackendLive  = errors.New("libvig: backend already live")
	ErrCHTBackendDead  = errors.New("libvig: backend not live")
	ErrCHTTableSize    = errors.New("libvig: lookup table size must be a prime > 0")
)

// CHT is a Maglev-style consistent-hash lookup table (Eisenbud et al.,
// NSDI'16 §3.4): a fixed-size table mapping every hash bucket to one of
// the currently live backends, populated by walking each backend's own
// permutation of the buckets round-robin until the table is full.
// The permutation walk gives two properties the load balancer leans on:
//
//   - balance: after every (re)population each live backend owns either
//     ⌊M/N⌋ or ⌈M/N⌉ of the M buckets (one bucket per backend per
//     round), so no backend is hot by construction;
//   - minimal disruption: adding or removing one backend leaves the
//     vast majority of the surviving backends' buckets untouched, so
//     connections without sticky state mostly keep their backend.
//
// Lookup is one array read — O(1) on the packet path — and population
// runs only on backend membership changes (the control path). All
// memory is preallocated at construction, like every libVig structure.
//
// Contract sketch:
//
//	chtp(c, L, B, M) ≡ B ⊆ [0, cap) is the live-backend set and
//	  L : [0, M) → B is the lookup table, total whenever B ≠ ∅,
//	  with ||L⁻¹(b)| − |L⁻¹(b')|| ≤ 1 for all b, b' ∈ B.
//	AddBackend(i, s): requires i ∉ B       ensures B' = B ∪ {i}
//	RemoveBackend(i): requires i ∈ B       ensures B' = B \ {i}
//	Lookup(h):        ensures result = (L(h mod M), B ≠ ∅); no change
//
// The disruption bound is a quality property, not a safety one: it is
// measured (experiments, EXPERIMENTS.md), while balance and totality
// are checked by the unit tests after every membership change.
type CHT struct {
	table []int32 // bucket → live backend index; -1 while no backend is live
	live  []bool
	nLive int

	// Per-backend permutation parameters, derived from the seed the
	// caller registers the backend with (Maglev hashes the backend's
	// name; here the seed is typically the backend's IP).
	offset []uint32
	skip   []uint32

	// next[i] is population scratch: how far backend i's permutation
	// walk has advanced this round. Preallocated so repopulation
	// allocates nothing.
	next []uint32

	mem *Backing // table
}

// NewCHT returns a table able to track up to maxBackends backends over
// a lookup table of tableSize buckets. tableSize must be prime (the
// permutation step arithmetic requires it) and at least maxBackends;
// Maglev uses M ≥ 100·N so that the ±1 bucket imbalance is <1% of any
// backend's share.
func NewCHT(maxBackends, tableSize int) (*CHT, error) {
	if maxBackends <= 0 {
		return nil, ErrBadCapacity
	}
	if tableSize < maxBackends || !isPrime(tableSize) {
		return nil, ErrCHTTableSize
	}
	mem := new(Backing)
	c := &CHT{
		table:  Make[int32](mem, tableSize),
		mem:    mem,
		live:   make([]bool, maxBackends),
		offset: make([]uint32, maxBackends),
		skip:   make([]uint32, maxBackends),
		next:   make([]uint32, maxBackends),
	}
	for i := range c.table {
		c.table[i] = -1
	}
	return c, nil
}

// isPrime is trial division; table sizes are configuration-scale.
func isPrime(n int) bool {
	if n < 2 {
		return false
	}
	for d := 2; d*d <= n; d++ {
		if n%d == 0 {
			return false
		}
	}
	return true
}

// chtMix is the splitmix64 finalizer (same mixer as flow hashing), so a
// low-entropy seed (an IPv4 address) still yields well-spread
// permutation parameters.
func chtMix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Capacity returns the maximum number of backends.
func (c *CHT) Capacity() int { return len(c.live) }

// TableSize returns the number of lookup buckets (M).
func (c *CHT) TableSize() int { return len(c.table) }

// Live returns the number of live backends.
func (c *CHT) Live() int { return c.nLive }

// IsLive reports whether backend i is live.
func (c *CHT) IsLive(i int) bool {
	return i >= 0 && i < len(c.live) && c.live[i]
}

// AddBackend marks backend i live and repopulates the table. seed names
// the backend (its IP, say): permutations derive from the seed, not the
// index, so a backend re-added under the same name reclaims (almost)
// the same buckets while a different backend reusing the index does
// not. Requires i in range and not live (checked).
func (c *CHT) AddBackend(i int, seed uint64) error {
	if i < 0 || i >= len(c.live) {
		return ErrCHTBackendRange
	}
	if c.live[i] {
		return ErrCHTBackendLive
	}
	m := uint64(len(c.table))
	c.offset[i] = uint32(chtMix(seed) % m)
	c.skip[i] = uint32(chtMix(seed^0x9e3779b97f4a7c15)%(m-1)) + 1
	c.live[i] = true
	c.nLive++
	c.populate()
	return nil
}

// RemoveBackend marks backend i dead and repopulates the table, so its
// buckets redistribute over the survivors. Requires i live (checked).
func (c *CHT) RemoveBackend(i int) error {
	if i < 0 || i >= len(c.live) {
		return ErrCHTBackendRange
	}
	if !c.live[i] {
		return ErrCHTBackendDead
	}
	c.live[i] = false
	c.nLive--
	c.populate()
	return nil
}

// Lookup returns the backend owning hash h. The second result is false
// only when no backend is live. O(1): one modulo and one array read.
func (c *CHT) Lookup(h uint64) (int, bool) {
	b := c.table[h%uint64(len(c.table))]
	if b < 0 {
		return 0, false
	}
	return int(b), true
}

// Snapshot appends the current bucket assignment to dst and returns it
// (disruption measurements compare snapshots across membership
// changes).
func (c *CHT) Snapshot(dst []int32) []int32 {
	return append(dst, c.table...)
}

// populate rebuilds the lookup table from the live set: each live
// backend claims the next unclaimed bucket along its permutation, round
// robin, until every bucket is owned (Maglev's Fig. 3 population
// algorithm). With no live backends every bucket resets to -1.
func (c *CHT) populate() {
	for j := range c.table {
		c.table[j] = -1
	}
	if c.nLive == 0 {
		return
	}
	for i := range c.next {
		c.next[i] = 0
	}
	m := uint64(len(c.table))
	perm := func(i int) uint64 {
		return (uint64(c.offset[i]) + uint64(c.next[i])*uint64(c.skip[i])) % m
	}
	filled := 0
	for {
		for i := range c.live {
			if !c.live[i] {
				continue
			}
			// Walk backend i's permutation to its next free bucket.
			// Each backend visits every bucket exactly once over m
			// steps (skip is coprime to the prime m), so the walk
			// terminates.
			b := perm(i)
			for c.table[b] >= 0 {
				c.next[i]++
				b = perm(i)
			}
			c.table[b] = int32(i)
			c.next[i]++
			filled++
			if filled == len(c.table) {
				return
			}
		}
	}
}
