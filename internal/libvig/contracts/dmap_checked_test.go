package contracts

import (
	"testing"
	"testing/quick"
)

func TestDoubleMapRefinement(t *testing.T) { testDoubleMapRefinement(t, nil) }

// TestIndexedDoubleMapRefinement drives the index-keyed construction
// against the same dmappingp model: the second key's low four bits name
// the index (less 2, so keys fall off both ends of the range) and its
// high four are the part of the key only the compare sees. Half the
// puts carry a key that names their index; the rest are refused, and
// the map must be unchanged after each.
func TestIndexedDoubleMapRefinement(t *testing.T) {
	testDoubleMapRefinement(t, func(k qKey) int { return int(k.V%16) - 2 })
}

func testDoubleMapRefinement(t *testing.T, index func(qKey) int) {
	type dop struct {
		Code uint8
		Idx  uint8
		KA   qKey
		KB   qKey
		Val  uint8
	}
	f := func(ops []dop) bool {
		c, err := NewCheckedDoubleMap[qKey, qKey](9, index)
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range ops {
			idx := int(op.Idx) % 11 // includes out-of-range probes
			switch op.Code % 4 {
			case 0:
				if index != nil && op.Val%2 == 0 {
					op.KB.V = op.KB.V&0xF0 | uint8(idx+2)
				}
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
	c, err := NewCheckedDoubleMap[qKey, qKey](4, nil)
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

// TestCheckedDoubleMapDetectsKeyMutation: the DoubleMap keeps both key
// hashes per index from Put to Erase and stores no key copy, so a caller
// that rewrites a key through Value breaks the representation. The
// invariant check (stored hashes equal the hashes of the value's keys)
// must say so.
func TestCheckedDoubleMapDetectsKeyMutation(t *testing.T) {
	c, err := NewCheckedDoubleMap[qKey, qKey](4, nil)
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
	// Erase goes by the stored hashes and the index, not by the keys, so
	// even the damaged record comes out and leaves the maps consistent.
	if err := c.Impl.Erase(0); err != nil {
		t.Fatal(err)
	}
	if err := c.Impl.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}
