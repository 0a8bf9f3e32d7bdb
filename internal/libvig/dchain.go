package libvig

import (
	"errors"
	"sync/atomic"
)

// DChain errors.
var (
	ErrChainFull     = errors.New("libvig: no free index in chain")
	ErrChainNotAlloc = errors.New("libvig: index not allocated")
	ErrChainRange    = errors.New("libvig: index out of range")
	ErrChainBusy     = errors.New("libvig: index already allocated")
)

// DChain is libVig's "double chain" index allocator, the core of the
// expirator abstraction (§5.1.1). It hands out integer indices in
// [0, capacity) and keeps the allocated ones in a doubly linked list
// ordered by last-touch time, so that
//
//   - Allocate takes an index from the free list and appends it at the
//     young end,
//   - Rejuvenate moves an index to the young end and refreshes its
//     timestamp,
//   - ExpireOne pops the old end iff its timestamp is below the deadline.
//
// The flow table composes DChain (which index is live, and how stale)
// with DoubleMap (what flow lives at that index).
//
// Contract sketch:
//
//	dchainp(c, A, cap) ≡ A is the sequence of allocated (index, t) pairs,
//	  ordered by non-decreasing t, indices distinct, |A| ≤ cap.
//	Allocate(t):  requires |A| < cap ∧ t ≥ max timestamps
//	              ensures A' = A ++ [(i, t)] with i fresh; returns i
//	Rejuvenate(i,t): requires (i,_) ∈ A ∧ t ≥ max timestamps
//	              ensures A' = (A \ (i,_)) ++ [(i, t)]
//	ExpireOne(d): if A = [(i,t)]++rest ∧ t < d: A' = rest, returns (i,true)
//	              else: A unchanged, returns (_,false)
type DChain struct {
	// next/prev implement both lists. Slot capacity is the sentinel head
	// of the allocated list; slot capacity+1 is the head of the free list.
	next       []int32
	prev       []int32
	timestamps []Time
	alloc      []bool
	size       int
	// fresh is the lowest never-used cell. The free list is the linked
	// cells followed by the implicit ascending tail [fresh, capacity),
	// which nothing has written: construction writes no cell, and a
	// cell's memory becomes resident only when it is first handed out.
	// The chain's owner moves it; HighWater reads it from anywhere.
	fresh atomic.Int32
	mem   *Backing // next, prev, timestamps and alloc
}

const (
	allocHeadOff = 0 // offset of allocated-list sentinel past capacity
	freeHeadOff  = 1 // offset of free-list sentinel past capacity
)

// NewDChain returns a chain able to allocate indices in [0, capacity).
// Its free list is every cell, ascending, so allocation order is
// deterministic (matches the Vigor implementation).
func NewDChain(capacity int) (*DChain, error) {
	if capacity <= 0 {
		return nil, ErrBadCapacity
	}
	mem := new(Backing)
	c := &DChain{
		next:       Make[int32](mem, capacity+2),
		prev:       Make[int32](mem, capacity+2),
		timestamps: Make[Time](mem, capacity),
		alloc:      Make[bool](mem, capacity),
		mem:        mem,
	}
	ah, fh := int32(c.allocHead()), int32(c.freeHead())
	c.next[ah], c.prev[ah] = ah, ah
	c.next[fh], c.prev[fh] = fh, fh
	return c, nil
}

func (c *DChain) allocHead() int { return len(c.alloc) + allocHeadOff }
func (c *DChain) freeHead() int  { return len(c.alloc) + freeHeadOff }

// Capacity returns the number of allocatable indices.
func (c *DChain) Capacity() int { return len(c.alloc) }

// HighWater returns how many cells lie below the never-used boundary:
// every index ever handed out is one of them, and under Allocate and
// LIFO reuse alone they number the most indices ever allocated at once.
// Unlike Size it may be called from any goroutine while the chain's
// owner allocates.
func (c *DChain) HighWater() int { return int(c.fresh.Load()) }

// Size returns the number of allocated indices.
func (c *DChain) Size() int { return c.size }

// IsAllocated reports whether index i is currently allocated.
func (c *DChain) IsAllocated(i int) bool {
	return i >= 0 && i < len(c.alloc) && c.alloc[i]
}

func (c *DChain) unlink(i int32) {
	c.next[c.prev[i]] = c.next[i]
	c.prev[c.next[i]] = c.prev[i]
}

func (c *DChain) linkBefore(i, at int32) {
	p := c.prev[at]
	c.next[p] = i
	c.prev[i] = p
	c.next[i] = at
	c.prev[at] = i
}

// linkAfter inserts i right after at. Freed indices go to the free
// list's head so the next allocation reuses the cache-hot index (the
// LIFO reuse DPDK-style allocators rely on). Where an index names a
// resource a peer can still address — the NAT's external port is
// portBase + index — immediate reuse is safe because expiry is the
// quarantine: an index is freed only Texp after its last use.
func (c *DChain) linkAfter(i, at int32) {
	n := c.next[at]
	c.next[at] = i
	c.prev[i] = at
	c.next[i] = n
	c.prev[n] = i
}

// Allocate takes a free index, stamps it with now, and places it at the
// young end of the allocated list. Returns ErrChainFull when no index is
// free.
func (c *DChain) Allocate(now Time) (int, error) {
	fh := int32(c.freeHead())
	i := c.next[fh]
	if i != fh {
		c.unlink(i)
	} else if i = c.fresh.Load(); int(i) < len(c.alloc) {
		c.fresh.Store(i + 1)
	} else {
		return 0, ErrChainFull
	}
	c.take(i, now)
	return int(i), nil
}

// take places free index i, already off the free list, at the young end.
func (c *DChain) take(i int32, now Time) {
	// Young end = just before the allocated sentinel.
	c.linkBefore(i, int32(c.allocHead()))
	c.alloc[i] = true
	c.timestamps[i] = now
	c.size++
}

// AllocateIndex takes a specific free index, stamps it with now, and
// places it at the young end of the allocated list — the restore half
// of shard migration, where an index is not just a handle but a name
// other state refers to (an LB backend slot referenced by CHT buckets
// and sticky flows must keep its number across a move). The caller is
// responsible for stamp monotonicity: like Allocate, now must be ≥
// every timestamp already in the allocated list, which restore paths
// guarantee by replaying records in stamp order. Requires i free
// (checked).
func (c *DChain) AllocateIndex(i int, now Time) error {
	if i < 0 || i >= len(c.alloc) {
		return ErrChainRange
	}
	if c.alloc[i] {
		return ErrChainBusy
	}
	if f := int(c.fresh.Load()); i >= f {
		// A never-used cell: the implicit tail's cells before it join the
		// linked list's end, in the order they already had.
		for j := f; j < i; j++ {
			c.linkBefore(int32(j), int32(c.freeHead()))
		}
		c.fresh.Store(int32(i + 1))
	} else {
		c.unlink(int32(i))
	}
	c.take(int32(i), now)
	return nil
}

// Rejuvenate refreshes index i's timestamp to now and moves it to the
// young end. Requires i allocated (checked).
func (c *DChain) Rejuvenate(i int, now Time) error {
	if i < 0 || i >= len(c.alloc) {
		return ErrChainRange
	}
	if !c.alloc[i] {
		return ErrChainNotAlloc
	}
	c.unlink(int32(i))
	c.linkBefore(int32(i), int32(c.allocHead()))
	c.timestamps[i] = now
	return nil
}

// Timestamp returns the last-touch time of index i.
// Requires i allocated (checked).
func (c *DChain) Timestamp(i int) (Time, error) {
	if i < 0 || i >= len(c.alloc) {
		return 0, ErrChainRange
	}
	if !c.alloc[i] {
		return 0, ErrChainNotAlloc
	}
	return c.timestamps[i], nil
}

// ExpireOne frees the oldest index iff its timestamp is strictly below
// deadline, returning the freed index and true. If the chain is empty or
// the oldest entry is fresh, it returns (0, false) and changes nothing.
func (c *DChain) ExpireOne(deadline Time) (int, bool) {
	ah := int32(c.allocHead())
	i := c.next[ah] // old end
	if i == ah {
		return 0, false
	}
	if c.timestamps[i] >= deadline {
		return 0, false
	}
	c.unlink(i)
	c.linkAfter(i, int32(c.freeHead()))
	c.alloc[i] = false
	c.size--
	return int(i), true
}

// Oldest returns the oldest allocated index and its timestamp.
func (c *DChain) Oldest() (int, Time, bool) {
	ah := int32(c.allocHead())
	i := c.next[ah]
	if i == ah {
		return 0, 0, false
	}
	return int(i), c.timestamps[i], true
}

// After returns the allocated index next younger than allocated index
// i, and its timestamp: with Oldest, a read-only walk of the expiry
// order. ok is false at the young end. Requires i allocated (unchecked:
// the index comes from Oldest or After).
func (c *DChain) After(i int) (int, Time, bool) {
	n := c.next[i]
	if int(n) == c.allocHead() {
		return 0, 0, false
	}
	return int(n), c.timestamps[n], true
}

// Free releases index i regardless of age (used by NFs that remove state
// for reasons other than expiry, e.g. TCP FIN tracking extensions).
// Requires i allocated (checked).
func (c *DChain) Free(i int) error {
	if i < 0 || i >= len(c.alloc) {
		return ErrChainRange
	}
	if !c.alloc[i] {
		return ErrChainNotAlloc
	}
	c.unlink(int32(i))
	c.linkAfter(int32(i), int32(c.freeHead()))
	c.alloc[i] = false
	c.size--
	return nil
}

// AllocatedAsc appends the allocated indices old-to-young to dst and
// returns it. For contract checking and tests.
func (c *DChain) AllocatedAsc(dst []int) []int {
	ah := int32(c.allocHead())
	for i := c.next[ah]; i != ah; i = c.next[i] {
		dst = append(dst, int(i))
	}
	return dst
}
