// Refinement property tests: the P3 analogue (§5.1.3). Each test drives
// a checked wrapper — concrete libVig structure and abstract model in
// lockstep — with randomized operation sequences generated by
// testing/quick, asserting that no operation ever violates its contract.
package contracts

import (
	"testing"
	"testing/quick"

	"vignat/internal/libvig"
)

// qKey is a quick-generatable key with a narrow value space so random
// sequences produce plenty of collisions, duplicates, and misses.
type qKey struct {
	V uint8
}

func (k qKey) Hash() uint64 {
	x := uint64(k.V)
	x ^= x >> 3
	x *= 0x9e3779b97f4a7c15
	return x
}

// op codes for random structure driving.
type rOp struct {
	Code uint8
	Key  qKey
	Val  uint8
}

func TestRingRefinement(t *testing.T) {
	f := func(ops []rOp) bool {
		r, err := NewCheckedRing[uint8](7)
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range ops {
			switch op.Code % 2 {
			case 0:
				if err := r.PushBack(op.Val); err != nil {
					t.Log(err)
					return false
				}
			case 1:
				if _, err := r.PopFront(); err != nil {
					t.Log(err)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMapRefinement(t *testing.T) {
	f := func(ops []rOp) bool {
		m, err := NewCheckedMap[qKey](13)
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range ops {
			switch op.Code % 3 {
			case 0:
				if err := m.Put(op.Key, int(op.Val)); err != nil {
					t.Log(err)
					return false
				}
			case 1:
				if err := m.Erase(op.Key); err != nil {
					t.Log(err)
					return false
				}
			case 2:
				if _, _, err := m.Get(op.Key); err != nil {
					t.Log(err)
					return false
				}
			}
		}
		return m.FullCheck() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// wKey's low 32 bits take four values only, so nearly every probe meets
// slots whose stored hash bits match another key's: the case in which a
// keyless map must tell keys apart through its record store, and a
// by-value erase by the value alone. The high half, which a map drops,
// differs between keys.
type wKey struct {
	V uint8
}

func (k wKey) Hash() uint64 { return uint64(k.V)<<40 | uint64(k.V%4) }

// TestKeylessMapRefinement drives the keyless construction — no key in
// the map, equality resolved through the wrapper's record store — and
// the by-value erase against the same partial-function model. The
// wrapper re-derives the chain counters after every step.
func TestKeylessMapRefinement(t *testing.T) {
	type kOp struct {
		Code uint8
		Key  wKey
		Val  uint8
	}
	const capacity = 13
	f := func(ops []kOp) bool {
		m, err := NewCheckedKeylessMap[wKey](capacity)
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range ops {
			v := int(op.Val) % capacity
			switch op.Code % 4 {
			case 0:
				if m.ValueTaken(v) {
					continue // v names another record: not a legal put
				}
				err = m.Put(op.Key, v)
			case 1:
				err = m.Erase(op.Key)
			case 2:
				// Often a live (hash, value) pair, often not.
				err = m.EraseValue(op.Key.Hash(), v)
			case 3:
				_, _, err = m.Get(op.Key)
			}
			if err != nil {
				t.Log(err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestCheckedMapDetectsUnstableKeyOf: a keyless map is only as good as
// its key recovery. Change the key under a stored value behind the
// map's back — the precondition DoubleMap keeps by never letting fk1 and
// fk2 of a stored value change — and the next checked step must object.
func TestCheckedMapDetectsUnstableKeyOf(t *testing.T) {
	m, err := NewCheckedKeylessMap[qKey](4)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Put(qKey{V: 1}, 0); err != nil {
		t.Fatal(err)
	}
	m.Keys[0] = qKey{V: 2}
	if err := m.Put(qKey{V: 3}, 1); err == nil {
		t.Fatal("checker accepted a map whose key recovery changed its answer")
	}
}

func TestDChainRefinement(t *testing.T) {
	f := func(ops []rOp) bool {
		c, err := NewCheckedDChain(9)
		if err != nil {
			t.Fatal(err)
		}
		now := libvig.Time(0)
		for _, op := range ops {
			now++ // strictly monotonic clock, as the NF guarantees
			switch op.Code % 3 {
			case 0:
				if _, err := c.Allocate(now); err != nil {
					t.Log(err)
					return false
				}
			case 1:
				if err := c.Rejuvenate(int(op.Val)%11, now); err != nil {
					t.Log(err)
					return false
				}
			case 2:
				if _, _, err := c.ExpireOne(now - libvig.Time(op.Val%16)); err != nil {
					t.Log(err)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPortAllocatorRefinement(t *testing.T) {
	f := func(ops []rOp) bool {
		p, err := NewCheckedPortAllocator(100, 11)
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range ops {
			switch op.Code % 2 {
			case 0:
				if _, err := p.Allocate(); err != nil {
					t.Log(err)
					return false
				}
			case 1:
				if err := p.Release(100 + uint16(op.Val%13)); err != nil {
					t.Log(err)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestCheckedMapDetectsViolation sanity-checks the checker itself: a
// deliberately corrupted model must be caught (a meta-test that the P3
// harness is not vacuous).
func TestCheckedMapDetectsViolation(t *testing.T) {
	m, err := NewCheckedMap[qKey](4)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Put(qKey{V: 1}, 10); err != nil {
		t.Fatal(err)
	}
	// Corrupt the model behind the checker's back.
	m.Model[qKey{V: 1}] = 99
	if _, _, err := m.Get(qKey{V: 1}); err == nil {
		t.Fatal("checker failed to detect model/impl divergence")
	}
}

// TestCheckedRingDetectsViolation: same meta-test for the ring checker.
func TestCheckedRingDetectsViolation(t *testing.T) {
	r, err := NewCheckedRing[uint8](4)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.PushBack(1); err != nil {
		t.Fatal(err)
	}
	r.Model.Lst[0] = 2 // corrupt
	if _, err := r.PopFront(); err == nil {
		t.Fatal("checker failed to detect ring divergence")
	}
}
