package contracts

import (
	"errors"
	"fmt"

	"vignat/internal/libvig"
)

// dmapEntry is the abstract double-map record: value plus its two keys.
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
// The model is the same for both constructions: an indexed map
// (Index set) differs only in Put's precondition, which additionally
// requires the second key to name the index it is put at.
type CheckedDoubleMap[K1, K2 libvig.Key] struct {
	Impl  *libvig.DoubleMap[K1, K2, dmapEntry[K1, K2]]
	Model map[int]dmapEntry[K1, K2]
	Cap   int
	Index func(K2) int // nil for a hash-keyed second key
}

// NewCheckedDoubleMap builds the pair: around a map that hashes both
// keys when index is nil, around one that resolves its second key
// through index otherwise.
func NewCheckedDoubleMap[K1, K2 libvig.Key](capacity int, index func(K2) int) (*CheckedDoubleMap[K1, K2], error) {
	fk1 := func(e *dmapEntry[K1, K2]) K1 { return e.K1 }
	fk2 := func(e *dmapEntry[K1, K2]) K2 { return e.K2 }
	var m *libvig.DoubleMap[K1, K2, dmapEntry[K1, K2]]
	var err error
	if index == nil {
		m, err = libvig.NewDoubleMap(capacity, fk1, fk2)
	} else {
		m, err = libvig.NewIndexedDoubleMap(capacity, fk1, fk2, index)
	}
	if err != nil {
		return nil, err
	}
	return &CheckedDoubleMap[K1, K2]{
		Impl:  m,
		Model: make(map[int]dmapEntry[K1, K2]),
		Cap:   capacity,
		Index: index,
	}, nil
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
		if e.K2 == k {
			return i, true
		}
	}
	return 0, false
}

// Put checks the dmappingp Put contract: fresh index, fresh keys and,
// in an indexed map, a second key that names the index.
func (c *CheckedDoubleMap[K1, K2]) Put(i int, k1 K1, k2 K2, v int) error {
	_, busy := c.Model[i]
	_, dup1 := c.hasK1(k1)
	_, dup2 := c.hasK2(k2)
	outOfRange := i < 0 || i >= c.Cap
	mismatch := c.Index != nil && c.Index(k2) != i
	err := c.Impl.Put(i, dmapEntry[K1, K2]{V: v, K1: k1, K2: k2})
	shouldFail := busy || dup1 || dup2 || outOfRange || mismatch
	if shouldFail {
		if err == nil {
			return &Violation{"Put", fmt.Sprintf("accepted invalid insert at %d (busy=%v dup1=%v dup2=%v range=%v mismatch=%v)", i, busy, dup1, dup2, outOfRange, mismatch)}
		}
		if mismatch && !busy && !outOfRange && !errors.Is(err, libvig.ErrDMapIndexMismatch) {
			return &Violation{"Put", "second key names another index, refused as: " + err.Error()}
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

// check validates size, the representation invariant (every busy
// index's stored hashes are its keys' hashes, both key maps agree with
// the store, chain counters re-derived) and the per-index store against
// the model.
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
