// Package contracts provides the implementation-side contract machinery
// for libVig — the analogue of the paper's P3 proof that "the libVig
// implementation behaves according to the libVig contracts" (§5.1.3).
//
// Where the paper annotates the C implementation with separation-logic
// pre/post-conditions and discharges them with VeriFast, this package
// pairs every libVig structure with an *abstract model* (the same
// abstract state the paper's contracts are written against: a sequence
// for the ring, a partial map for the hash map, a time-ordered sequence
// for the chain) and a *checked wrapper* that executes every operation
// on both and verifies, operation by operation, that the concrete
// structure refines the model. The refinement is then driven by
// property-based tests (testing/quick) over long random operation
// sequences — dynamic checking plus randomized search instead of a
// theorem prover, as DESIGN.md's substitution table records.
package contracts

import (
	"fmt"
	"sort"

	"vignat/internal/libvig"
)

// Violation describes a contract violation detected by a checked
// wrapper: the concrete structure diverged from its abstract model.
type Violation struct {
	Op     string
	Detail string
}

// Error implements error.
func (v *Violation) Error() string {
	return fmt.Sprintf("contract violation in %s: %s", v.Op, v.Detail)
}

// --- Ring ---

// AbstractRing is the ring's abstract state: the sequence lst of the
// paper's ringp predicate.
type AbstractRing[T comparable] struct {
	Lst []T
	Cap int
}

// CheckedRing runs a concrete ring and its abstract model in lockstep.
type CheckedRing[T comparable] struct {
	Impl  *libvig.Ring[T]
	Model AbstractRing[T]
}

// NewCheckedRing builds the pair.
func NewCheckedRing[T comparable](capacity int) (*CheckedRing[T], error) {
	r, err := libvig.NewRing[T](capacity)
	if err != nil {
		return nil, err
	}
	return &CheckedRing[T]{Impl: r, Model: AbstractRing[T]{Cap: capacity}}, nil
}

// PushBack executes ring_push_back on both sides and checks refinement.
func (c *CheckedRing[T]) PushBack(v T) error {
	wantErr := len(c.Model.Lst) == c.Model.Cap
	err := c.Impl.PushBack(v)
	if wantErr {
		if err == nil {
			return &Violation{"PushBack", "accepted into a full ring"}
		}
		return nil
	}
	if err != nil {
		return &Violation{"PushBack", "rejected though ring has room: " + err.Error()}
	}
	c.Model.Lst = append(c.Model.Lst, v)
	return c.check("PushBack")
}

// PopFront executes ring_pop_front on both sides and checks the Fig. 3
// post-condition: the returned element is head(lst) and the new state is
// tail(lst).
func (c *CheckedRing[T]) PopFront() (T, error) {
	var zero T
	v, err := c.Impl.PopFront()
	if len(c.Model.Lst) == 0 {
		if err == nil {
			return zero, &Violation{"PopFront", "popped from an empty ring"}
		}
		return zero, nil
	}
	if err != nil {
		return zero, &Violation{"PopFront", "failed though ring non-empty: " + err.Error()}
	}
	if v != c.Model.Lst[0] {
		return zero, &Violation{"PopFront", fmt.Sprintf("returned %v, head is %v", v, c.Model.Lst[0])}
	}
	c.Model.Lst = c.Model.Lst[1:]
	return v, c.check("PopFront")
}

func (c *CheckedRing[T]) check(op string) error {
	if c.Impl.Len() != len(c.Model.Lst) {
		return &Violation{op, fmt.Sprintf("length %d, model %d", c.Impl.Len(), len(c.Model.Lst))}
	}
	got := c.Impl.Snapshot(nil)
	for i := range got {
		if got[i] != c.Model.Lst[i] {
			return &Violation{op, fmt.Sprintf("element %d is %v, model %v", i, got[i], c.Model.Lst[i])}
		}
	}
	if c.Impl.Full() != (len(c.Model.Lst) == c.Model.Cap) {
		return &Violation{op, "Full() disagrees with model"}
	}
	if c.Impl.Empty() != (len(c.Model.Lst) == 0) {
		return &Violation{op, "Empty() disagrees with model"}
	}
	return nil
}

// --- Map ---

// CheckedMap runs a concrete libVig map against the partial-function
// model of the mapp predicate, in either construction. After every
// mutation it re-derives the chain counters from the stored hashes
// (Map.CheckInvariant) and compares the whole contents with the model.
type CheckedMap[K libvig.Key] struct {
	Impl  *libvig.Map[K]
	Model map[K]int
	Cap   int
	// Keys is the record store behind the keyless construction (nil for
	// NewCheckedMap): Keys[v] is the key value v was put under, what a
	// DoubleMap's value array is to its two key maps. The map itself
	// stores no key and asks here on a hash match, so the store must
	// keep each key stable from Put to erase; a test that writes to it
	// behind the wrapper's back breaks exactly that precondition.
	Keys map[int]K
}

// NewCheckedMap builds the pair around a key-storing map.
func NewCheckedMap[K libvig.Key](capacity int) (*CheckedMap[K], error) {
	m, err := libvig.NewMap[K](capacity)
	if err != nil {
		return nil, err
	}
	return &CheckedMap[K]{Impl: m, Model: make(map[K]int), Cap: capacity}, nil
}

// NewCheckedKeylessMap builds the pair around a keyless map whose keys
// live in the wrapper's Keys store.
func NewCheckedKeylessMap[K libvig.Key](capacity int) (*CheckedMap[K], error) {
	c := &CheckedMap[K]{Model: make(map[K]int), Cap: capacity, Keys: make(map[int]K)}
	m, err := libvig.NewKeylessMap(capacity, func(v int) K { return c.Keys[v] })
	if err != nil {
		return nil, err
	}
	c.Impl = m
	return c, nil
}

// ValueTaken reports whether a keyless map already stores value v. Such
// a value names a record with a key of its own, so putting another key
// under it is outside the keyless precondition and Put refuses it.
func (c *CheckedMap[K]) ValueTaken(v int) bool {
	_, taken := c.Keys[v]
	return taken
}

// Get checks the mapp Get post-condition.
func (c *CheckedMap[K]) Get(k K) (int, bool, error) {
	v, ok := c.Impl.Get(k)
	mv, mok := c.Model[k]
	if ok != mok {
		return 0, false, &Violation{"Get", fmt.Sprintf("found=%v, model=%v for %v", ok, mok, k)}
	}
	if ok && v != mv {
		return 0, false, &Violation{"Get", fmt.Sprintf("value %d, model %d for %v", v, mv, k)}
	}
	return v, ok, nil
}

// Put checks the mapp Put pre/post-conditions.
func (c *CheckedMap[K]) Put(k K, v int) error {
	_, dup := c.Model[k]
	full := len(c.Model) == c.Cap
	if c.Keys != nil {
		if c.ValueTaken(v) {
			return fmt.Errorf("contracts: value %d already names a record", v)
		}
		// Stage the record before indexing it, as DoubleMap.Put does: a
		// duplicate check that matches v's hash reads the key from here.
		c.Keys[v] = k
	}
	err := c.Impl.Put(k, v)
	if err != nil && c.Keys != nil {
		delete(c.Keys, v)
	}
	switch {
	case dup:
		if err == nil {
			return &Violation{"Put", fmt.Sprintf("accepted duplicate key %v", k)}
		}
	case full:
		if err == nil {
			return &Violation{"Put", "accepted into a full map"}
		}
	default:
		if err != nil {
			return &Violation{"Put", "rejected valid insert: " + err.Error()}
		}
		c.Model[k] = v
	}
	return c.check("Put")
}

// Erase checks the mapp Erase pre/post-conditions.
func (c *CheckedMap[K]) Erase(k K) error {
	v, present := c.Model[k]
	err := c.Impl.Erase(k)
	if present {
		if err != nil {
			return &Violation{"Erase", "failed to erase present key: " + err.Error()}
		}
		c.forget(k, v)
	} else if err == nil {
		return &Violation{"Erase", fmt.Sprintf("erased absent key %v", k)}
	}
	return c.check("Erase")
}

// EraseValue checks the by-value erase: it removes exactly the key that
// maps to v and whose hash has h's low 32 bits — all a slot stores of a
// hash, its home index included — and fails when the model holds none.
func (c *CheckedMap[K]) EraseValue(h uint64, v int) error {
	var key K
	present := false
	for k, mv := range c.Model {
		if mv == v && uint32(k.Hash()) == uint32(h) {
			key, present = k, true
		}
	}
	err := c.Impl.EraseValue(h, v)
	if present {
		if err != nil {
			return &Violation{"EraseValue", "failed to erase a present (hash, value): " + err.Error()}
		}
		c.forget(key, v)
	} else if err == nil {
		return &Violation{"EraseValue", fmt.Sprintf("erased (%#x, %d), which the model does not hold", h, v)}
	}
	return c.check("EraseValue")
}

func (c *CheckedMap[K]) forget(k K, v int) {
	delete(c.Model, k)
	if c.Keys != nil {
		delete(c.Keys, v)
	}
}

// check is the per-step refinement check: size, the chain-counter
// invariant, and the full contents.
func (c *CheckedMap[K]) check(op string) error {
	if c.Impl.Size() != len(c.Model) {
		return &Violation{op, fmt.Sprintf("size %d, model %d", c.Impl.Size(), len(c.Model))}
	}
	if err := c.Impl.CheckInvariant(); err != nil {
		return &Violation{op, err.Error()}
	}
	return c.FullCheck()
}

// FullCheck verifies the complete map contents against the model — the
// closing step of a refinement run.
func (c *CheckedMap[K]) FullCheck() error {
	seen := 0
	var verr error
	c.Impl.ForEach(func(k K, v int) bool {
		seen++
		mv, ok := c.Model[k]
		if !ok {
			verr = &Violation{"FullCheck", fmt.Sprintf("stored key %v not in model", k)}
			return false
		}
		if mv != v {
			verr = &Violation{"FullCheck", fmt.Sprintf("key %v has %d, model %d", k, v, mv)}
			return false
		}
		return true
	})
	if verr != nil {
		return verr
	}
	if seen != len(c.Model) {
		return &Violation{"FullCheck", fmt.Sprintf("visited %d keys, model has %d", seen, len(c.Model))}
	}
	return nil
}

// --- DChain ---

// chainEntry is one allocated (index, timestamp) pair of the dchainp
// abstract sequence.
type chainEntry struct {
	Index int
	T     libvig.Time
}

// CheckedDChain runs a concrete chain against the time-ordered-sequence
// model.
type CheckedDChain struct {
	Impl  *libvig.DChain
	Model []chainEntry // ordered old → young
	Cap   int
}

// NewCheckedDChain builds the pair.
func NewCheckedDChain(capacity int) (*CheckedDChain, error) {
	ch, err := libvig.NewDChain(capacity)
	if err != nil {
		return nil, err
	}
	return &CheckedDChain{Impl: ch, Cap: capacity}, nil
}

func (c *CheckedDChain) find(i int) int {
	for j, e := range c.Model {
		if e.Index == i {
			return j
		}
	}
	return -1
}

// Allocate checks the dchainp Allocate contract.
func (c *CheckedDChain) Allocate(now libvig.Time) (int, error) {
	idx, err := c.Impl.Allocate(now)
	if len(c.Model) == c.Cap {
		if err == nil {
			return 0, &Violation{"Allocate", "allocated from a full chain"}
		}
		return 0, nil
	}
	if err != nil {
		return 0, &Violation{"Allocate", "failed though chain has room: " + err.Error()}
	}
	if c.find(idx) >= 0 {
		return 0, &Violation{"Allocate", fmt.Sprintf("returned live index %d", idx)}
	}
	if idx < 0 || idx >= c.Cap {
		return 0, &Violation{"Allocate", fmt.Sprintf("index %d out of range", idx)}
	}
	c.Model = append(c.Model, chainEntry{idx, now})
	return idx, c.check("Allocate")
}

// Rejuvenate checks the dchainp Rejuvenate contract.
func (c *CheckedDChain) Rejuvenate(i int, now libvig.Time) error {
	pos := c.find(i)
	err := c.Impl.Rejuvenate(i, now)
	if pos < 0 {
		if err == nil {
			return &Violation{"Rejuvenate", fmt.Sprintf("accepted dead index %d", i)}
		}
		return nil
	}
	if err != nil {
		return &Violation{"Rejuvenate", "rejected live index: " + err.Error()}
	}
	c.Model = append(append(c.Model[:pos:pos], c.Model[pos+1:]...), chainEntry{i, now})
	return c.check("Rejuvenate")
}

// ExpireOne checks the dchainp ExpireOne contract.
func (c *CheckedDChain) ExpireOne(deadline libvig.Time) (int, bool, error) {
	idx, ok := c.Impl.ExpireOne(deadline)
	shouldExpire := len(c.Model) > 0 && c.Model[0].T < deadline
	if !shouldExpire {
		if ok {
			return 0, false, &Violation{"ExpireOne", fmt.Sprintf("expired fresh/absent index %d", idx)}
		}
		return 0, false, nil
	}
	if !ok {
		return 0, false, &Violation{"ExpireOne", "did not expire a stale oldest entry"}
	}
	if idx != c.Model[0].Index {
		return 0, false, &Violation{"ExpireOne", fmt.Sprintf("expired %d, oldest is %d", idx, c.Model[0].Index)}
	}
	c.Model = c.Model[1:]
	return idx, true, c.check("ExpireOne")
}

func (c *CheckedDChain) check(op string) error {
	if c.Impl.Size() != len(c.Model) {
		return &Violation{op, fmt.Sprintf("size %d, model %d", c.Impl.Size(), len(c.Model))}
	}
	got := c.Impl.AllocatedAsc(nil)
	if len(got) != len(c.Model) {
		return &Violation{op, "allocated list length diverged"}
	}
	for i := range got {
		if got[i] != c.Model[i].Index {
			return &Violation{op, fmt.Sprintf("order slot %d: impl %d, model %d", i, got[i], c.Model[i].Index)}
		}
	}
	// Timestamps must be non-decreasing old → young (dchainp ordering).
	if !sort.SliceIsSorted(c.Model, func(a, b int) bool { return c.Model[a].T < c.Model[b].T }) {
		// The model itself is maintained sorted by construction; a
		// violation here means the checker was driven with
		// time-travelling timestamps.
		return &Violation{op, "model timestamps out of order (non-monotonic clock?)"}
	}
	return nil
}

// --- PortAllocator ---

// CheckedPortAllocator runs a concrete allocator against the allocated-
// set model of the portsp predicate.
type CheckedPortAllocator struct {
	Impl  *libvig.PortAllocator
	Model map[uint16]bool
	Base  uint16
	Count int
}

// NewCheckedPortAllocator builds the pair.
func NewCheckedPortAllocator(base uint16, count int) (*CheckedPortAllocator, error) {
	p, err := libvig.NewPortAllocator(base, count)
	if err != nil {
		return nil, err
	}
	return &CheckedPortAllocator{Impl: p, Model: make(map[uint16]bool), Base: base, Count: count}, nil
}

// Allocate checks the portsp Allocate contract.
func (c *CheckedPortAllocator) Allocate() (uint16, error) {
	q, err := c.Impl.Allocate()
	if len(c.Model) == c.Count {
		if err == nil {
			return 0, &Violation{"Allocate", "allocated from an exhausted pool"}
		}
		return 0, nil
	}
	if err != nil {
		return 0, &Violation{"Allocate", "failed though ports are free: " + err.Error()}
	}
	if c.Model[q] {
		return 0, &Violation{"Allocate", fmt.Sprintf("returned in-use port %d", q)}
	}
	if int(q) < int(c.Base) || int(q) >= int(c.Base)+c.Count {
		return 0, &Violation{"Allocate", fmt.Sprintf("port %d out of range", q)}
	}
	c.Model[q] = true
	return q, nil
}

// Release checks the portsp Release contract.
func (c *CheckedPortAllocator) Release(q uint16) error {
	err := c.Impl.Release(q)
	if !c.Model[q] {
		if err == nil {
			return &Violation{"Release", fmt.Sprintf("released free port %d", q)}
		}
		return nil
	}
	if err != nil {
		return &Violation{"Release", "failed to release allocated port: " + err.Error()}
	}
	delete(c.Model, q)
	if c.Impl.FreeCount() != c.Count-len(c.Model) {
		return &Violation{"Release", "free count diverged from model"}
	}
	return nil
}
