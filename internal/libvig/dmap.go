package libvig

import (
	"errors"
	"fmt"
)

// DoubleMap errors.
var (
	ErrDMapIndexBusy     = errors.New("libvig: index already occupied")
	ErrDMapIndexFree     = errors.New("libvig: index not occupied")
	ErrDMapIndexMismatch = errors.New("libvig: second key indexes a different slot")
)

// DoubleMap is libVig's flow table substrate (§5.1.1, Fig. 8): a
// fixed-capacity store of values addressable by *two* independent keys.
// VigNAT stores each flow once, reachable both by its internal-side flow
// ID (key A) and by its external-side flow ID (key B).
//
// Indices are provided by the caller (in VigNAT, by a DChain), so that the
// same index identifies a flow in the DoubleMap, the DChain, and the port
// allocator — this is the composition the paper's flow table uses.
//
// Contract sketch (cf. Fig. 8's dmappingp):
//
//	dmapp(m, M, cap) ≡ M : index ⇀ V with |dom M| ≤ cap, and the two key
//	  maps are exactly { fk1(v) ↦ i } and { fk2(v) ↦ i } for (i,v) ∈ M.
//	Put(i,v):   requires i ∉ dom M ∧ fk1(v), fk2(v) fresh
//	            ensures  M' = M[i↦v]
//	Erase(i):   requires i ∈ dom M    ensures M' = M \ {i}
//	GetByFst(k): ensures result = (i, true) iff ∃(i,v)∈M. fk1(v)=k
//	GetBySnd(k): symmetric for fk2. M never changes on gets.
//
// Each key lives once, inside vals[i]: the two key maps are keyless
// (NewKeylessMap) and recover a key through the store. Precondition,
// which is the keyless map's: the caller may write a stored value
// through Value, but fk1 and fk2 of it must not change between Put and
// Erase. The key hashes' low 32 bits — what the key maps store, home
// index included — are kept per index from Put to Erase, so Erase
// rehashes nothing and compares no key, and the home slots of an index
// about to expire can be found from sequential memory
// (PrefetchExpiring).
//
// A second key that already names its value's index needs no key map
// (NewIndexedDoubleMap, VigNAT's external port = start_port + index):
//
//	Put(i,v):   additionally requires index(fk2(v)) = i, which makes
//	            fk2(v) fresh by itself — its only possible holder is
//	            the free index i
//	GetBySnd(k): i = index(k); result = (i, true) iff i ∈ dom M ∧
//	            fk2(M(i)) = k — the same set as above, found by
//	            arithmetic and one key compare
//
// Such a map keeps no bySnd, hashes no second key — it keeps one hash
// per index, not two — and its contract is otherwise the one above.
type DoubleMap[K1 Key, K2 Key, V any] struct {
	byFst *Map[K1]
	bySnd *Map[K2]     // exactly one of bySnd and index is set, at construction
	index func(K2) int // the second key's index function
	vals  []V
	busy  []bool
	// hashes holds, while busy[i], the low 32 bits of fk1(vals[i]).Hash()
	// at hashes[i*width] and, in a two-key map (width 2), those of
	// fk2(vals[i]).Hash() beside it, so an erase reads both from one
	// cache line. They are all the key maps store of a hash, and all
	// EraseValue and a prefetch of a home slot read.
	hashes []uint32
	width  int
	fk1    func(*V) K1
	fk2    func(*V) K2
	size   int
	sink   uint64   // keeps the prefetch loads alive
	mem    *Backing // vals, busy and hashes
}

// NewDoubleMap returns a double-keyed map of the given capacity. fk1 and
// fk2 extract the two keys from a stored value; they must be pure. V
// must be pointer-free (see Make).
func NewDoubleMap[K1 Key, K2 Key, V any](capacity int, fk1 func(*V) K1, fk2 func(*V) K2) (*DoubleMap[K1, K2, V], error) {
	m, err := newDoubleMap(capacity, fk1, fk2, 2)
	if err != nil {
		return nil, err
	}
	m.bySnd, err = NewKeylessMap(capacity, func(i int) K2 { return fk2(&m.vals[i]) })
	if err != nil {
		return nil, err
	}
	return m, nil
}

// NewIndexedDoubleMap returns a double-keyed map whose second key names
// the index its value lives at: index(fk2(v)) must be the i of every
// Put(i, v). index must be pure and total — any int for a key no stored
// value can carry, out of range included — and is the whole second-key
// lookup: no second key is hashed or filed anywhere.
func NewIndexedDoubleMap[K1 Key, K2 Key, V any](capacity int, fk1 func(*V) K1, fk2 func(*V) K2, index func(K2) int) (*DoubleMap[K1, K2, V], error) {
	if index == nil {
		return nil, errors.New("libvig: nil second-key index function")
	}
	m, err := newDoubleMap(capacity, fk1, fk2, 1)
	if err != nil {
		return nil, err
	}
	m.index = index
	return m, nil
}

// newDoubleMap builds everything but the second key's resolution,
// keeping width hashes per index.
func newDoubleMap[K1 Key, K2 Key, V any](capacity int, fk1 func(*V) K1, fk2 func(*V) K2, width int) (*DoubleMap[K1, K2, V], error) {
	if capacity <= 0 {
		return nil, ErrBadCapacity
	}
	if fk1 == nil || fk2 == nil {
		return nil, errors.New("libvig: nil key extractor")
	}
	mem := new(Backing)
	m := &DoubleMap[K1, K2, V]{
		vals:   Make[V](mem, capacity),
		busy:   Make[bool](mem, capacity),
		hashes: Make[uint32](mem, width*capacity),
		width:  width,
		fk1:    fk1,
		fk2:    fk2,
		mem:    mem,
	}
	// The key maps reach the values through m, never through m.vals
	// alone, so they keep the mappings behind it alive.
	var err error
	if m.byFst, err = NewKeylessMap(capacity, func(i int) K1 { return fk1(&m.vals[i]) }); err != nil {
		return nil, err
	}
	return m, nil
}

// Capacity returns the fixed capacity.
func (m *DoubleMap[K1, K2, V]) Capacity() int { return len(m.vals) }

// Size returns the number of stored values.
func (m *DoubleMap[K1, K2, V]) Size() int { return m.size }

// GetByFst returns the index of the value whose first key equals k.
// This is the paper's dmap_get_by_first_key (Fig. 8).
func (m *DoubleMap[K1, K2, V]) GetByFst(k K1) (int, bool) {
	return m.byFst.Get(k)
}

// GetBySnd returns the index of the value whose second key equals k.
func (m *DoubleMap[K1, K2, V]) GetBySnd(k K2) (int, bool) {
	if m.index != nil {
		return m.getByIndex(k)
	}
	return m.bySnd.Get(k)
}

// getByIndex resolves a second key by the index it names. The key
// compare is what makes the answer exact: an index says where a key
// would live, not that it does.
func (m *DoubleMap[K1, K2, V]) getByIndex(k K2) (int, bool) {
	i := m.index(k)
	if i < 0 || i >= len(m.vals) || !m.busy[i] || m.fk2(&m.vals[i]) != k {
		return 0, false
	}
	return i, true
}

// GetByFstHashed is GetByFst for a caller that already holds
// h = k.Hash() (a burst's prefetch stage computed it).
func (m *DoubleMap[K1, K2, V]) GetByFstHashed(k K1, h uint64) (int, bool) {
	return m.byFst.GetHashed(k, h)
}

// GetBySndHashed is GetBySnd for a caller that already holds h = k.Hash().
func (m *DoubleMap[K1, K2, V]) GetBySndHashed(k K2, h uint64) (int, bool) {
	if m.index != nil {
		return m.getByIndex(k)
	}
	return m.bySnd.GetHashed(k, h)
}

// Value returns a pointer to the value stored at index i. The pointee is
// owned by the DoubleMap; per the libVig pointer discipline (§5.1.2) the
// caller may read and write the value but must not retain the pointer
// across an Erase of i.
// Requires i occupied (checked; returns nil otherwise).
func (m *DoubleMap[K1, K2, V]) Value(i int) *V {
	if i < 0 || i >= len(m.vals) || !m.busy[i] {
		return nil
	}
	return &m.vals[i]
}

// Put stores v at index i and indexes it under both keys.
// Requires: i in range and free, both keys absent and, in an indexed
// map, the second key naming i (ErrDMapIndexMismatch). All checked; on
// error the map is unchanged.
func (m *DoubleMap[K1, K2, V]) Put(i int, v V) error { return m.put(i, v, 0, false) }

// PutFstHashed is Put for a caller that already holds the first key's
// hash, h1 = fk1(v).Hash() — the hash its lookup miss just used.
func (m *DoubleMap[K1, K2, V]) PutFstHashed(i int, v V, h1 uint64) error {
	return m.put(i, v, h1, true)
}

func (m *DoubleMap[K1, K2, V]) put(i int, v V, h1 uint64, hashed bool) error {
	if i < 0 || i >= len(m.vals) {
		return ErrChainRange
	}
	if m.busy[i] {
		return ErrDMapIndexBusy
	}
	// Stage the value in its (preallocated) cell before indexing: the
	// keyless maps read keys from the stored copy, and passing &v to a
	// function pointer would force v to escape to the heap.
	m.vals[i] = v
	k1, k2 := m.fk1(&m.vals[i]), m.fk2(&m.vals[i])
	if m.index != nil && m.index(k2) != i {
		return m.unstage(i, ErrDMapIndexMismatch)
	}
	if !hashed {
		h1 = k1.Hash()
	}
	if err := m.byFst.PutHashed(k1, h1, i); err != nil {
		return m.unstage(i, err)
	}
	if m.bySnd != nil {
		h2 := k2.Hash()
		if err := m.bySnd.PutHashed(k2, h2, i); err != nil {
			// Roll back so a duplicate second key cannot corrupt the map.
			_ = m.byFst.EraseValue(h1, i)
			return m.unstage(i, err)
		}
		m.hashes[2*i+1] = uint32(h2)
	}
	m.hashes[i*m.width] = uint32(h1)
	m.busy[i] = true
	m.size++
	return nil
}

// unstage clears the cell a refused put staged its value in.
func (m *DoubleMap[K1, K2, V]) unstage(i int, err error) error {
	var zero V
	m.vals[i] = zero
	return err
}

// Erase removes the value at index i from the store and from both key
// maps. Requires i occupied (checked).
func (m *DoubleMap[K1, K2, V]) Erase(i int) error {
	if i < 0 || i >= len(m.vals) {
		return ErrChainRange
	}
	if !m.busy[i] {
		return ErrDMapIndexFree
	}
	if err := m.byFst.EraseValue(uint64(m.hashes[i*m.width]), i); err != nil {
		return err
	}
	if m.bySnd != nil {
		if err := m.bySnd.EraseValue(uint64(m.hashes[2*i+1]), i); err != nil {
			return err
		}
	}
	var zero V
	m.vals[i] = zero
	m.busy[i] = false
	m.size--
	return nil
}

// Occupied reports whether index i holds a value.
func (m *DoubleMap[K1, K2, V]) Occupied(i int) bool {
	return i >= 0 && i < len(m.vals) && m.busy[i]
}

// ForEach calls fn for every (index, value) pair until fn returns false.
// For contract checking and tests.
func (m *DoubleMap[K1, K2, V]) ForEach(fn func(i int, v *V) bool) {
	for i := range m.vals {
		if m.busy[i] {
			if !fn(i, &m.vals[i]) {
				return
			}
		}
	}
}

// PrefetchFst starts bringing the home slot of hash h in the first-key
// map into cache, for a burst stage that knows which keys the packets
// behind it will look up. Go exposes no prefetch instruction, so this is
// a plain load whose result nothing waits on: issued back to back for a
// burst's hashes, the loads miss in parallel instead of one per probe.
// A pure read.
func (m *DoubleMap[K1, K2, V]) PrefetchFst(h uint64) { m.sink += m.byFst.touch(h) }

// PrefetchSnd is PrefetchFst for second key k, h = k.Hash(): the home
// slot of h in the second-key map, or in an indexed map the cells the
// lookup of k will read — the occupancy flag and the record of the
// index k names.
func (m *DoubleMap[K1, K2, V]) PrefetchSnd(k K2, h uint64) {
	if m.index == nil {
		m.sink += m.bySnd.touch(h)
		return
	}
	if _, ok := m.getByIndex(k); ok {
		m.sink++
	}
}

// PrefetchExpiring does the same for the home slots of each index the
// next ExpireItems(chain, deadline, …) will free, oldest first, at most
// max of them: it walks chain read-only and finds the slots from the
// hashes kept per index. A pure read.
func (m *DoubleMap[K1, K2, V]) PrefetchExpiring(chain *DChain, deadline Time, max int) {
	i, ts, ok := chain.Oldest()
	for ; ok && ts < deadline && max > 0; max-- {
		m.sink += m.byFst.touch(uint64(m.hashes[i*m.width]))
		if m.bySnd != nil {
			m.sink += m.bySnd.touch(uint64(m.hashes[2*i+1]))
		}
		i, ts, ok = chain.After(i)
	}
}

// CheckInvariant verifies the representation invariant: every busy
// index's stored hashes are the hashes of its value's keys, both keys
// resolve to exactly the busy indices — through the key maps, or for an
// indexed second key through the index it names — and each map's own
// invariant holds. For contract checking and tests: O(capacity).
func (m *DoubleMap[K1, K2, V]) CheckInvariant() error {
	busy := 0
	for i := range m.vals {
		if !m.busy[i] {
			continue
		}
		busy++
		k1, k2 := m.fk1(&m.vals[i]), m.fk2(&m.vals[i])
		stored := m.hashes[i*m.width : (i+1)*m.width]
		if stored[0] != uint32(k1.Hash()) || m.width == 2 && stored[1] != uint32(k2.Hash()) {
			return fmt.Errorf("libvig: index %d stores hash bits %#x, its keys hash to %#x and %#x", i, stored, k1.Hash(), k2.Hash())
		}
		if j, ok := m.byFst.Get(k1); !ok || j != i {
			return fmt.Errorf("libvig: index %d's first key resolves to (%d, %v)", i, j, ok)
		}
		if j, ok := m.GetBySnd(k2); !ok || j != i {
			return fmt.Errorf("libvig: index %d's second key resolves to (%d, %v)", i, j, ok)
		}
	}
	snd := busy
	if m.bySnd != nil {
		snd = m.bySnd.Size()
	}
	if busy != m.size || m.byFst.Size() != busy || snd != busy {
		return fmt.Errorf("libvig: %d busy indices, size %d, key maps %d and %d", busy, m.size, m.byFst.Size(), snd)
	}
	if err := m.byFst.CheckInvariant(); err != nil {
		return err
	}
	if m.bySnd == nil {
		return nil
	}
	return m.bySnd.CheckInvariant()
}
