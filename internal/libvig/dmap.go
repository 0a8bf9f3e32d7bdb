package libvig

import (
	"errors"
	"fmt"
	"unsafe"
)

// DoubleMap errors.
var (
	ErrDMapIndexBusy = errors.New("libvig: index already occupied")
	ErrDMapIndexFree = errors.New("libvig: index not occupied")
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
// Each flow is stored once: a key lives inside vals[i] or is derived
// from it (and, below, from i), and nothing else keeps it or its hash.
// The key maps are keyless (NewKeylessMap) and recover a key through
// the store; Erase and PrefetchExpiring rehash the keys of the record
// they are given. Precondition, which is the keyless map's: the caller
// may write a stored value through Value, but its keys must not change
// between Put and Erase.
//
// A second key derived from the index its value lives at needs no key
// map (NewIndexedDoubleMap, VigNAT's external port = start_port + index),
// and takes the index as well as the value:
//
//	fk2(i, v):  the second key of v at i, with index(fk2(i, v)) = i —
//	            so fk2(i, v) is fresh whenever i is: its only possible
//	            holder is the free index i
//	GetBySnd(k): i = index(k); result = (i, true) iff i ∈ dom M ∧
//	            fk2(i, M(i)) = k — the same set as above, found by
//	            arithmetic and one key compare
//
// Such a map keeps no bySnd and hashes no second key; its contract is
// otherwise the one above.
type DoubleMap[K1 Key, K2 Key, V any] struct {
	byFst *Map[K1]
	bySnd *Map[K2]     // exactly one of bySnd and index is set, at construction
	index func(K2) int // the second key's index function
	vals  []V
	busy  []bool
	fk1   func(*V) K1
	fk2   func(*V) K2          // the second key, in a two-key map
	at    func(i int, v *V) K2 // the second key of v at index i, in an indexed one
	size  int
	// expiring holds the key hashes (their low 32 bits, all a key map
	// keeps) PrefetchExpiring computed for records about to expire, the
	// entry of index i at i%expiringMemo. Erase of a record with an entry
	// takes it instead of rehashing. An entry names its index plus one,
	// so the zero value names none; a record's keys cannot change while
	// it lives, so neither can an entry's hashes.
	expiring [expiringMemo]struct {
		idx    int32
		h1, h2 uint32
	}
	sink uint64   // keeps the prefetch loads alive
	mem  *Backing // vals and busy
}

// NewDoubleMap returns a double-keyed map of the given capacity. fk1 and
// fk2 extract the two keys from a stored value; they must be pure. V
// must be pointer-free (see Make).
func NewDoubleMap[K1 Key, K2 Key, V any](capacity int, fk1 func(*V) K1, fk2 func(*V) K2) (*DoubleMap[K1, K2, V], error) {
	if fk2 == nil {
		return nil, errNilKey
	}
	m, err := newDoubleMap[K1, K2](capacity, fk1)
	if err != nil {
		return nil, err
	}
	m.fk2 = fk2
	m.bySnd, err = NewKeylessMap(capacity, func(i int) K2 { return fk2(&m.vals[i]) })
	if err != nil {
		return nil, err
	}
	return m, nil
}

// NewIndexedDoubleMap returns a double-keyed map whose second key is
// derived from the index its value lives at: fk2(i, v) is the second
// key of v stored at i, and index(fk2(i, v)) must be i for every i in
// range and every v. index must be pure and total — any int for a key
// no stored value can carry, out of range included — and is the whole
// second-key lookup: no second key is hashed or filed anywhere.
func NewIndexedDoubleMap[K1 Key, K2 Key, V any](capacity int, fk1 func(*V) K1, fk2 func(i int, v *V) K2, index func(K2) int) (*DoubleMap[K1, K2, V], error) {
	if index == nil {
		return nil, errors.New("libvig: nil second-key index function")
	}
	if fk2 == nil {
		return nil, errNilKey
	}
	m, err := newDoubleMap[K1, K2](capacity, fk1)
	if err != nil {
		return nil, err
	}
	m.at, m.index = fk2, index
	return m, nil
}

var errNilKey = errors.New("libvig: nil key extractor")

// newDoubleMap builds everything but the second key's resolution.
func newDoubleMap[K1 Key, K2 Key, V any](capacity int, fk1 func(*V) K1) (*DoubleMap[K1, K2, V], error) {
	if capacity <= 0 {
		return nil, ErrBadCapacity
	}
	if fk1 == nil {
		return nil, errNilKey
	}
	mem := new(Backing)
	m := &DoubleMap[K1, K2, V]{
		vals: Make[V](mem, capacity),
		busy: Make[bool](mem, capacity),
		fk1:  fk1,
		mem:  mem,
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
	if i < 0 || i >= len(m.vals) || !m.busy[i] || m.at(i, &m.vals[i]) != k {
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
// Requires: i in range and free, and both keys absent (in an indexed
// map the second key is absent whenever i is free). All checked; on
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
	k1 := m.fk1(&m.vals[i])
	if !hashed {
		h1 = k1.Hash()
	}
	if err := m.byFst.PutHashed(k1, h1, i); err != nil {
		return m.unstage(i, err)
	}
	if m.bySnd != nil {
		k2 := m.fk2(&m.vals[i])
		if err := m.bySnd.PutHashed(k2, k2.Hash(), i); err != nil {
			// Roll back so a duplicate second key cannot corrupt the map.
			_ = m.byFst.EraseValue(h1, i)
			return m.unstage(i, err)
		}
	}
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
// maps, finding its slots by rehashing its keys (or by the hashes
// PrefetchExpiring kept for it). Requires i occupied (checked). A value
// whose keys changed since its Put is not found under them: Erase then
// fails with ErrMapNoKey and changes nothing.
func (m *DoubleMap[K1, K2, V]) Erase(i int) error {
	if i < 0 || i >= len(m.vals) {
		return ErrChainRange
	}
	if !m.busy[i] {
		return ErrDMapIndexFree
	}
	v := &m.vals[i]
	var h1, h2 uint64
	if e := &m.expiring[i%expiringMemo]; int(e.idx) == i+1 {
		// Only bits a key map keeps: all find reads.
		h1, h2 = uint64(e.h1), uint64(e.h2)
		e.idx = 0
	} else {
		h1 = m.fk1(v).Hash()
		if m.bySnd != nil {
			h2 = m.fk2(v).Hash()
		}
	}
	s1, c1, ok := m.byFst.find(h1, nil, uint16(i)+1)
	if !ok {
		return ErrMapNoKey
	}
	if m.bySnd != nil {
		s2, c2, ok := m.bySnd.find(h2, nil, uint16(i)+1)
		if !ok {
			return ErrMapNoKey
		}
		m.bySnd.vacate(h2, s2, c2)
	}
	m.byFst.vacate(h1, s1, c1)
	var zero V
	*v = zero
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
// max of them: it walks chain read-only and rehashes each record's
// keys. The hashes are kept for the Erase of each of those records,
// which then rehashes nothing. Observably a pure read.
//
// It runs in three passes, so that the loads of each pass are all in
// flight at once: the records, then their hashes, then the home slots.
// Computing a key from a record through fk1 stalls on reading back the
// key it just stored field by field, and such a stall waits for every
// load before it, so one pass that hashed and touched in turn would
// take its cache misses one after another.
func (m *DoubleMap[K1, K2, V]) PrefetchExpiring(chain *DChain, deadline Time, max int) {
	var due [expiringMemo]int32
	n := 0
	for i, ts, ok := chain.Oldest(); ok && ts < deadline && n < min(max, len(due)); i, ts, ok = chain.After(i) {
		if m.busy[i] {
			due[n] = int32(i)
			n++
			m.sink += uint64(*(*byte)(unsafe.Pointer(&m.vals[i])))
		}
	}
	for _, i := range due[:n] {
		e, v := &m.expiring[i%expiringMemo], &m.vals[i]
		e.idx, e.h1 = i+1, uint32(m.fk1(v).Hash())
		if m.bySnd != nil {
			e.h2 = uint32(m.fk2(v).Hash())
		}
	}
	for _, i := range due[:n] {
		e := &m.expiring[i%expiringMemo]
		m.sink += m.byFst.touch(uint64(e.h1))
		if m.bySnd != nil {
			m.sink += m.bySnd.touch(uint64(e.h2))
		}
	}
}

// expiringMemo is the most records PrefetchExpiring looks ahead at, a
// burst's worth, and the number of hashes it keeps for their erases.
const expiringMemo = 32

// CheckInvariant verifies the representation invariant: both keys of
// every busy index resolve to exactly that index — through the key
// maps, or for an indexed second key through the index it names — and
// each map's own invariant holds, which catches a stored key that
// changed since its Put. For contract checking and tests: O(capacity).
func (m *DoubleMap[K1, K2, V]) CheckInvariant() error {
	busy := 0
	for i := range m.vals {
		if !m.busy[i] {
			continue
		}
		busy++
		if j, ok := m.byFst.Get(m.fk1(&m.vals[i])); !ok || j != i {
			return fmt.Errorf("libvig: index %d's first key resolves to (%d, %v)", i, j, ok)
		}
		var k2 K2
		if m.at != nil {
			k2 = m.at(i, &m.vals[i])
		} else {
			k2 = m.fk2(&m.vals[i])
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
