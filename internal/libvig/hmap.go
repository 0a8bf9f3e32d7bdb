package libvig

import (
	"errors"
	"fmt"
	"unsafe"
)

// Key is the constraint for hash-map keys: comparable (Go equality is the
// key-equality predicate, as in the paper's eq_a/eq_b function pointers)
// plus a hash method (the paper's map_key_hash).
type Key interface {
	comparable
	// Hash returns a well-mixed 64-bit hash of the key. Two equal keys
	// must return equal hashes. A Map stores and compares the low 32
	// bits only, so those must be well mixed by themselves.
	Hash() uint64
}

// Map errors.
var (
	ErrMapFull     = errors.New("libvig: map full")
	ErrMapDupKey   = errors.New("libvig: key already present")
	ErrMapNoKey    = errors.New("libvig: key not present")
	ErrMapBadValue = errors.New("libvig: value out of range")
	ErrBadCapacity = errors.New("libvig: capacity out of range")
)

// Map is libVig's "classic hash table" (§5.1.1): a fixed-capacity
// open-addressing map from K to a small non-negative integer value (in
// VigNAT the value is always an index into a Vector/DoubleMap). It
// reproduces the Vigor map_impl algorithm: linear probing with per-slot
// traversal counters ("chains") so that deletion needs neither tombstone
// rehashing nor backward shifting — this is the "auxiliary metadata that
// speeds up lookup" §6 mentions. The slot array holds at least twice the
// capacity (rounded to a power of two), so even a full flow table keeps
// probe sequences short — the paper's verified NAT shows only a mild
// latency up-tick when its table fills.
//
// Invariant (the heart of the paper's map contract):
//
//	chains[i] = number of stored keys whose probe path passes over slot i
//	            without residing there.
//
// A lookup can stop at the first slot whose chain counter is zero and
// does not hold the key: no stored key's probe sequence continues past
// it.
//
// A probe slot carries the low 32 bits of the key's hash but not the
// key. A probe compares those bits; only on a match is the key itself
// consulted, and where it is kept depends on the construction:
//
//   - NewMap keeps the keys in an array parallel to the slots, touched
//     on a hash match only;
//   - NewKeylessMap keeps no keys at all and recovers the key of a
//     matching slot from its value through keyOf — for callers (the
//     DoubleMap, the policer) whose values name a record holding it.
//     Precondition: keyOf(v) is stable from Put(k, v) to the erase of v
//     and equals k throughout.
//
// Contract sketch:
//
//	mapp(m, M, cap) ≡ m represents the partial function M, |M| ≤ cap.
//	Put:   requires k ∉ dom(M) ∧ |M| < cap   ensures M' = M[k↦v]
//	Erase: requires k ∈ dom(M)               ensures M' = M \ {k}
//	EraseValue(h, v): requires ∃k. M(k) = v ∧ lo32(hash(k)) = lo32(h)
//	                                         ensures M' = M \ {k}
//	Get:   ensures  result = (M(k), k ∈ dom(M)); M unchanged
type Map[K Key] struct {
	slots    []slot
	mask     uint64
	capacity int
	size     int
	// Exactly one of keys (parallel to slots) and keyOf is set.
	keys  []K
	keyOf func(v int) K
}

// slot is one probe target: eight to a 64-byte cache line and, the
// array being line-aligned, never straddling two. A probe step therefore
// costs at most one memory access, and a burst-wide prefetch of a home
// slot fetches it and the seven after it.
//
// hash is the low half of the key's hash. The home index h & mask is at
// most 17 bits (maxMapCapacity), so it is part of what is stored, and
// EraseValue and CheckInvariant find a slot's home without its key.
type slot struct {
	hash  uint32
	val   uint16 // stored value + 1; 0 marks a free slot
	chain uint16
}

// The 8-byte budget is load-bearing; either line fails to compile when
// slot grows or shrinks.
const (
	_ = uint(8 - unsafe.Sizeof(slot{}))
	_ = uint(unsafe.Sizeof(slot{}) - 8)
)

// maxMapCapacity is the most keys one Map holds: chain counts at most
// every stored key, and val holds value+1, both in 16 bits. A sharded
// NF builds one map per shard, so the limit is per shard.
const maxMapCapacity = 1<<16 - 1

// maxMapValue is the largest storable value (val holds value+1).
const maxMapValue = 1<<16 - 2

func newSlots(capacity int) ([]slot, error) {
	if capacity <= 0 {
		return nil, ErrBadCapacity
	}
	if capacity > maxMapCapacity {
		return nil, fmt.Errorf("%w: %d, at most 65,535 per map (per shard)", ErrBadCapacity, capacity)
	}
	nb := 1
	for nb < 2*capacity {
		nb <<= 1
	}
	return make([]slot, nb), nil
}

// NewMap returns a map that can store up to capacity keys.
func NewMap[K Key](capacity int) (*Map[K], error) {
	slots, err := newSlots(capacity)
	if err != nil {
		return nil, err
	}
	return &Map[K]{slots: slots, mask: uint64(len(slots) - 1), capacity: capacity, keys: make([]K, len(slots))}, nil
}

// NewKeylessMap returns a map of up to capacity keys that stores no key:
// keyOf must return, for every stored value v, the key v was put under
// (see the Map precondition). It is consulted on matches of the stored
// hash bits only.
func NewKeylessMap[K Key](capacity int, keyOf func(v int) K) (*Map[K], error) {
	if keyOf == nil {
		return nil, errors.New("libvig: nil key recovery function")
	}
	slots, err := newSlots(capacity)
	if err != nil {
		return nil, err
	}
	return &Map[K]{slots: slots, mask: uint64(len(slots) - 1), capacity: capacity, keyOf: keyOf}, nil
}

// Capacity returns the maximum number of storable keys.
func (m *Map[K]) Capacity() int { return m.capacity }

// Size returns the number of stored keys.
func (m *Map[K]) Size() int { return m.size }

// keyAt returns the key of the busy slot idx.
func (m *Map[K]) keyAt(idx uint64) K {
	if m.keyOf != nil {
		return m.keyOf(int(m.slots[idx].val - 1))
	}
	return m.keys[idx]
}

// find walks the probe path of hash h to the busy slot that carries
// h's low half and either key *k or, when k is nil, stored value val−1.
// It returns the slot and the number of slots the path crossed before
// it.
func (m *Map[K]) find(h uint64, k *K, val uint16) (idx uint64, crossed int, ok bool) {
	idx = h & m.mask
	for crossed = 0; crossed < len(m.slots); crossed++ {
		s := &m.slots[idx]
		if s.val != 0 && s.hash == uint32(h) {
			if k == nil {
				if s.val == val {
					return idx, crossed, true
				}
			} else if m.keyAt(idx) == *k {
				return idx, crossed, true
			}
		}
		if s.chain == 0 {
			// No stored key probes past this slot.
			return 0, 0, false
		}
		idx = (idx + 1) & m.mask
	}
	return 0, 0, false
}

// Get returns the value stored for k.
func (m *Map[K]) Get(k K) (int, bool) { return m.GetHashed(k, k.Hash()) }

// GetHashed is Get for a caller that already holds h = k.Hash().
func (m *Map[K]) GetHashed(k K, h uint64) (int, bool) {
	idx, _, ok := m.find(h, &k, 0)
	if !ok {
		return 0, false
	}
	return int(m.slots[idx].val - 1), true
}

// Has reports whether k is present.
func (m *Map[K]) Has(k K) bool {
	_, ok := m.Get(k)
	return ok
}

// Put stores v for key k.
// Requires k not present, the map not full and 0 ≤ v ≤ 65,534 (checked;
// violations return ErrMapDupKey / ErrMapFull / ErrMapBadValue and leave
// the map unchanged).
func (m *Map[K]) Put(k K, v int) error { return m.PutHashed(k, k.Hash(), v) }

// PutHashed is Put for a caller that already holds h = k.Hash().
func (m *Map[K]) PutHashed(k K, h uint64, v int) error {
	if m.size == m.capacity {
		return ErrMapFull
	}
	if v < 0 || v > maxMapValue {
		return ErrMapBadValue
	}
	idx := h & m.mask
	firstFree := -1
	travel := 0 // probes past occupied-or-chained slots before firstFree
	for i := 0; i < len(m.slots); i++ {
		s := &m.slots[idx]
		if s.val != 0 {
			if s.hash == uint32(h) && m.keyAt(idx) == k {
				return ErrMapDupKey
			}
		} else if firstFree < 0 {
			firstFree = int(idx)
			travel = i
		}
		if s.chain == 0 && firstFree >= 0 {
			// No stored key (hence no duplicate) lies beyond.
			break
		}
		idx = (idx + 1) & m.mask
	}
	if firstFree < 0 {
		return ErrMapFull // unreachable: load factor is bounded by 1/2
	}
	dst := &m.slots[firstFree]
	dst.hash = uint32(h)
	dst.val = uint16(v) + 1
	if m.keys != nil {
		m.keys[firstFree] = k
	}
	m.size++
	// Every slot probed before the resting place now has one more key
	// whose path crosses it.
	idx = h & m.mask
	for j := 0; j < travel; j++ {
		m.slots[idx].chain++
		idx = (idx + 1) & m.mask
	}
	return nil
}

// Erase removes key k.
// Requires k present (checked; returns ErrMapNoKey otherwise).
func (m *Map[K]) Erase(k K) error {
	h := k.Hash()
	idx, crossed, ok := m.find(h, &k, 0)
	if !ok {
		return ErrMapNoKey
	}
	m.vacate(h, idx, crossed)
	return nil
}

// EraseValue removes the key that was put under hash h with value v,
// without rehashing or comparing any key: the caller kept h, or its low
// 32 bits, from Put. Only those bits are read.
// Requires such a key present (checked; returns ErrMapNoKey otherwise).
// When several keys share the stored bits, v tells them apart, so
// values must be unique among keys whose hashes share their low 32
// bits — true of any map whose values are indices handed out once
// each, as the DoubleMap's are.
func (m *Map[K]) EraseValue(h uint64, v int) error {
	if v < 0 || v > maxMapValue {
		return ErrMapNoKey
	}
	idx, crossed, ok := m.find(h, nil, uint16(v)+1)
	if !ok {
		return ErrMapNoKey
	}
	m.vacate(h, idx, crossed)
	return nil
}

// vacate frees slot idx, reached over crossed slots from h's home, and
// takes its key's path off their chain counters.
func (m *Map[K]) vacate(h, idx uint64, crossed int) {
	m.slots[idx].val = 0
	if m.keys != nil {
		var zero K
		m.keys[idx] = zero
	}
	m.size--
	j := h & m.mask
	for n := 0; n < crossed; n++ {
		m.slots[j].chain--
		j = (j + 1) & m.mask
	}
}

// touch loads the home slot of hash h and returns a word of it. A
// caller that discards the result lets the compiler discard the load.
func (m *Map[K]) touch(h uint64) uint64 { return uint64(m.slots[h&m.mask].hash) }

// ForEach calls fn for every stored (key, value) pair, in unspecified
// order, until fn returns false. Intended for contract checking and tests.
func (m *Map[K]) ForEach(fn func(k K, v int) bool) {
	for i := range m.slots {
		if m.slots[i].val != 0 {
			if !fn(m.keyAt(uint64(i)), int(m.slots[i].val-1)) {
				return
			}
		}
	}
}

// CheckInvariant recomputes the chain counters from the stored hashes
// and compares them with the live ones; it also checks that every
// stored key's hash still has its slot's low 32 bits (which catches a
// keyOf that broke its stability precondition) and that the size is
// right. For contract checking and tests: O(slots).
func (m *Map[K]) CheckInvariant() error {
	want := make([]uint16, len(m.slots))
	busy := 0
	for i := range m.slots {
		s := &m.slots[i]
		if s.val == 0 {
			continue
		}
		busy++
		if got := m.keyAt(uint64(i)).Hash(); uint32(got) != s.hash {
			return fmt.Errorf("libvig: slot %d stores hash bits %#x but its key hashes to %#x", i, s.hash, got)
		}
		for j := uint64(s.hash) & m.mask; j != uint64(i); j = (j + 1) & m.mask {
			want[j]++
		}
	}
	if busy != m.size {
		return fmt.Errorf("libvig: %d busy slots, size %d", busy, m.size)
	}
	for i := range m.slots {
		if m.slots[i].chain != want[i] {
			return fmt.Errorf("libvig: slot %d chain counter %d, %d stored keys cross it", i, m.slots[i].chain, want[i])
		}
	}
	return nil
}
