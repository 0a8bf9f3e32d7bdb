package contracts

import (
	"fmt"

	"vignat/internal/libvig"
)

// dmapEntry is the abstract double-map record: value plus its two keys.
// In an indexed map K2 is the part of the second key the index does not
// make; the key itself is derived from it and the index.
type dmapEntry[K1, K2 libvig.Key] struct {
	V  int
	K1 K1
	K2 K2
}

// CheckedDoubleMap runs a concrete DoubleMap against the dmappingp
// abstract state (Fig. 8): a partial map from indices to values whose
// two key indexes are exactly the projections of the stored values.
// The value type is a (K1, K2, int) record so the checker can validate
// both key directions without knowing the NF's value semantics.
//
// The model is the same for both constructions: in an indexed map
// (At set) the second key of the entry at i is At(i, K2), a function of
// the index, rather than K2 itself.
type CheckedDoubleMap[K1, K2 libvig.Key] struct {
	Impl  *libvig.DoubleMap[K1, K2, dmapEntry[K1, K2]]
	Model map[int]dmapEntry[K1, K2]
	Cap   int
	At    func(i int, k K2) K2 // nil for a hash-keyed second key
}

// NewCheckedDoubleMap builds the pair around a map that hashes both keys.
func NewCheckedDoubleMap[K1, K2 libvig.Key](capacity int) (*CheckedDoubleMap[K1, K2], error) {
	m, err := libvig.NewDoubleMap(capacity, entryK1[K1, K2],
		func(e *dmapEntry[K1, K2]) K2 { return e.K2 })
	return newChecked(m, err, capacity, nil)
}

// NewCheckedIndexedDoubleMap builds the pair around a map whose second
// key at index i is at(i, K2) and resolves through index, which must
// name i for every such key.
func NewCheckedIndexedDoubleMap[K1, K2 libvig.Key](capacity int, at func(i int, k K2) K2, index func(K2) int) (*CheckedDoubleMap[K1, K2], error) {
	m, err := libvig.NewIndexedDoubleMap(capacity, entryK1[K1, K2],
		func(i int, e *dmapEntry[K1, K2]) K2 { return at(i, e.K2) }, index)
	return newChecked(m, err, capacity, at)
}

func entryK1[K1, K2 libvig.Key](e *dmapEntry[K1, K2]) K1 { return e.K1 }

func newChecked[K1, K2 libvig.Key](m *libvig.DoubleMap[K1, K2, dmapEntry[K1, K2]], err error, capacity int, at func(int, K2) K2) (*CheckedDoubleMap[K1, K2], error) {
	if err != nil {
		return nil, err
	}
	return &CheckedDoubleMap[K1, K2]{
		Impl:  m,
		Model: make(map[int]dmapEntry[K1, K2]),
		Cap:   capacity,
		At:    at,
	}, nil
}

// snd is the second key of entry e at index i.
func (c *CheckedDoubleMap[K1, K2]) snd(i int, k K2) K2 {
	if c.At == nil {
		return k
	}
	return c.At(i, k)
}

func (c *CheckedDoubleMap[K1, K2]) hasK1(k K1) (int, bool) {
	for i, e := range c.Model {
		if e.K1 == k {
			return i, true
		}
	}
	return 0, false
}

func (c *CheckedDoubleMap[K1, K2]) hasK2(k K2) (int, bool) {
	for i, e := range c.Model {
		if c.snd(i, e.K2) == k {
			return i, true
		}
	}
	return 0, false
}

// Put checks the dmappingp Put contract: fresh index and fresh keys —
// in an indexed map, the second key the index derives.
func (c *CheckedDoubleMap[K1, K2]) Put(i int, k1 K1, k2 K2, v int) error {
	_, busy := c.Model[i]
	_, dup1 := c.hasK1(k1)
	_, dup2 := c.hasK2(c.snd(i, k2))
	outOfRange := i < 0 || i >= c.Cap
	err := c.Impl.Put(i, dmapEntry[K1, K2]{V: v, K1: k1, K2: k2})
	shouldFail := busy || dup1 || dup2 || outOfRange
	if shouldFail {
		if err == nil {
			return &Violation{"Put", fmt.Sprintf("accepted invalid insert at %d (busy=%v dup1=%v dup2=%v range=%v)", i, busy, dup1, dup2, outOfRange)}
		}
		return c.check("Put")
	}
	if err != nil {
		return &Violation{"Put", "rejected valid insert: " + err.Error()}
	}
	c.Model[i] = dmapEntry[K1, K2]{V: v, K1: k1, K2: k2}
	return c.check("Put")
}

// Erase checks the dmappingp Erase contract.
func (c *CheckedDoubleMap[K1, K2]) Erase(i int) error {
	_, busy := c.Model[i]
	err := c.Impl.Erase(i)
	if !busy {
		if err == nil {
			return &Violation{"Erase", fmt.Sprintf("erased free index %d", i)}
		}
		return nil
	}
	if err != nil {
		return &Violation{"Erase", "failed to erase occupied index: " + err.Error()}
	}
	delete(c.Model, i)
	return c.check("Erase")
}

// GetByFst checks the Fig. 8 post-condition for the first key index.
func (c *CheckedDoubleMap[K1, K2]) GetByFst(k K1) error {
	got, ok := c.Impl.GetByFst(k)
	want, wok := c.hasK1(k)
	if ok != wok || (ok && got != want) {
		return &Violation{"GetByFst", fmt.Sprintf("(%d,%v), model (%d,%v)", got, ok, want, wok)}
	}
	return nil
}

// GetBySnd checks the symmetric post-condition.
func (c *CheckedDoubleMap[K1, K2]) GetBySnd(k K2) error {
	got, ok := c.Impl.GetBySnd(k)
	want, wok := c.hasK2(k)
	if ok != wok || (ok && got != want) {
		return &Violation{"GetBySnd", fmt.Sprintf("(%d,%v), model (%d,%v)", got, ok, want, wok)}
	}
	return nil
}

// check validates size, the representation invariant (both keys of
// every busy index resolve to it, each key map's chain counters and
// stored hash bits re-derived from the store) and the per-index store
// against the model.
func (c *CheckedDoubleMap[K1, K2]) check(op string) error {
	if c.Impl.Size() != len(c.Model) {
		return &Violation{op, fmt.Sprintf("size %d, model %d", c.Impl.Size(), len(c.Model))}
	}
	if err := c.Impl.CheckInvariant(); err != nil {
		return &Violation{op, err.Error()}
	}
	for i, e := range c.Model {
		got := c.Impl.Value(i)
		if got == nil {
			return &Violation{op, fmt.Sprintf("index %d missing", i)}
		}
		if got.V != e.V || got.K1 != e.K1 || got.K2 != e.K2 {
			return &Violation{op, fmt.Sprintf("index %d diverged", i)}
		}
	}
	return nil
}
