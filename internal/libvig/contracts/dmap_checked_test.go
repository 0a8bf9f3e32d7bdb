package contracts

import (
	"testing"
	"testing/quick"
)

func TestDoubleMapRefinement(t *testing.T) {
	testDoubleMapRefinement(t, false, func() (*CheckedDoubleMap[qKey, qKey], error) {
		return NewCheckedDoubleMap[qKey, qKey](9)
	})
}

// TestIndexedDoubleMapRefinement drives the indexed construction
// against the same dmappingp model: the second key at index i keeps the
// high four bits of the key put and sets its low four to i+2, which
// index reads back (less 2, so probed keys fall off both ends of the
// range); the high four are the part of the key only the compare sees.
// Half the second-key probes name the index they are drawn with.
func TestIndexedDoubleMapRefinement(t *testing.T) {
	testDoubleMapRefinement(t, true, func() (*CheckedDoubleMap[qKey, qKey], error) {
		return NewCheckedIndexedDoubleMap[qKey, qKey](9,
			func(i int, k qKey) qKey { return qKey{V: k.V&0xF0 | uint8(i+2)} },
			func(k qKey) int { return int(k.V%16) - 2 })
	})
}

func testDoubleMapRefinement(t *testing.T, indexed bool, build func() (*CheckedDoubleMap[qKey, qKey], error)) {
	type dop struct {
		Code uint8
		Idx  uint8
		KA   qKey
		KB   qKey
		Val  uint8
	}
	f := func(ops []dop) bool {
		c, err := build()
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range ops {
			idx := int(op.Idx) % 11 // includes out-of-range probes
			switch op.Code % 4 {
			case 0:
				if err := c.Put(idx, op.KA, op.KB, int(op.Val)); err != nil {
					t.Log(err)
					return false
				}
			case 1:
				if err := c.Erase(idx); err != nil {
					t.Log(err)
					return false
				}
			case 2:
				if err := c.GetByFst(op.KA); err != nil {
					t.Log(err)
					return false
				}
			case 3:
				if indexed && op.Val%2 == 0 {
					op.KB.V = op.KB.V&0xF0 | uint8(idx+2)
				}
				if err := c.GetBySnd(op.KB); err != nil {
					t.Log(err)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Fatal(err)
	}
}

// TestCheckedDoubleMapDetectsViolation: the meta-test that the checker
// is not vacuous.
func TestCheckedDoubleMapDetectsViolation(t *testing.T) {
	c, err := NewCheckedDoubleMap[qKey, qKey](4)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put(0, qKey{V: 1}, qKey{V: 2}, 7); err != nil {
		t.Fatal(err)
	}
	c.Model[0] = dmapEntry[qKey, qKey]{V: 99, K1: qKey{V: 1}, K2: qKey{V: 2}}
	if err := c.Put(1, qKey{V: 3}, qKey{V: 4}, 8); err == nil {
		t.Fatal("divergence not detected")
	}
}

// TestCheckedDoubleMapDetectsKeyMutation: the DoubleMap stores no key
// copy, only the key maps' hash bits, so a caller that rewrites a key
// through Value breaks the representation. The invariant check (every
// key resolves to its index, every slot's bits are its key's) must say
// so.
func TestCheckedDoubleMapDetectsKeyMutation(t *testing.T) {
	c, err := NewCheckedDoubleMap[qKey, qKey](4)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put(0, qKey{V: 1}, qKey{V: 2}, 7); err != nil {
		t.Fatal(err)
	}
	if err := c.Impl.CheckInvariant(); err != nil {
		t.Fatalf("a well-formed map fails its invariant: %v", err)
	}
	c.Impl.Value(0).K2 = qKey{V: 9}
	if err := c.Impl.CheckInvariant(); err == nil {
		t.Fatal("a key rewritten in place went unnoticed")
	}
	// Erase rehashes the record's keys, so it cannot find the damaged
	// record's second-key slot: it refuses and changes nothing, and once
	// the key is put back the record comes out and leaves the maps
	// consistent.
	if err := c.Impl.Erase(0); err == nil || c.Impl.Size() != 1 {
		t.Fatalf("erase of a damaged record: %v, size %d", err, c.Impl.Size())
	}
	c.Impl.Value(0).K2 = qKey{V: 2}
	if err := c.Impl.Erase(0); err != nil {
		t.Fatal(err)
	}
	if err := c.Impl.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}
