package libvig

import (
	"errors"
	"testing"
)

// fKey's hash is hi<<32 | lo with lo in 0..3: every key homes to one of
// four slots and shares the bits a slot stores with a quarter of all
// keys, while the half a map drops is free.
type fKey struct {
	lo uint8
	hi uint32
}

func (k fKey) Hash() uint64 { return uint64(k.hi)<<32 | uint64(k.lo) }

// FuzzMapOps drives a key-storing and a keyless map in lockstep with
// Put/Get/Erase/EraseValue sequences over forced-collision keys, and
// after every operation holds both to a Go map and to CheckInvariant.
//
// data[0] picks the capacity (1–16); then every four bytes are one op:
// code (low two bits; bit 2 flips EraseValue's hash above the stored
// bits), lo, hi and the value, scaled by 257 so that the top byte asks
// for 65,535, one past the largest storable value.
func FuzzMapOps(f *testing.F) {
	f.Add([]byte{7, 0, 1, 1, 0, 0, 1, 2, 1, 3, 1, 1, 1, 7, 1, 2, 0})
	f.Add([]byte{3, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 2, 2, 0, 0, 3, 3, 3, 0, 1, 1, 2, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		capacity := 1 + int(data[0]%16)
		keyed, err := NewMap[fKey](capacity)
		if err != nil {
			t.Fatal(err)
		}
		store := map[int]fKey{} // the keyless map's record store
		keyless, err := NewKeylessMap(capacity, func(v int) fKey { return store[v] })
		if err != nil {
			t.Fatal(err)
		}
		model := map[fKey]int{}
		for ops := data[1:]; len(ops) >= 4; ops = ops[4:] {
			k := fKey{lo: ops[1] % 4, hi: uint32(ops[2]) * 0x9e3779b9}
			v := int(ops[3]) * 257
			switch ops[0] % 4 {
			case 0:
				if _, taken := store[v]; taken {
					continue // v names another key's record: not a legal put
				}
				_, dup := model[k]
				var want error
				switch {
				case len(model) == capacity:
					want = ErrMapFull
				case v > maxMapValue:
					want = ErrMapBadValue
				case dup:
					want = ErrMapDupKey
				}
				store[v] = k
				for _, m := range []*Map[fKey]{keyed, keyless} {
					if err := m.Put(k, v); !errors.Is(err, want) {
						t.Fatalf("Put(%v, %d) = %v, want %v", k, v, err, want)
					}
				}
				if want != nil {
					delete(store, v)
				} else {
					model[k] = v
				}
			case 1:
				mv, present := model[k]
				for _, m := range []*Map[fKey]{keyed, keyless} {
					if got, ok := m.Get(k); ok != present || got != mv {
						t.Fatalf("Get(%v) = (%d, %v), want (%d, %v)", k, got, ok, mv, present)
					}
				}
			case 2:
				mv, present := model[k]
				for _, m := range []*Map[fKey]{keyed, keyless} {
					if err := m.Erase(k); (err == nil) != present {
						t.Fatalf("Erase(%v) = %v, present %v", k, err, present)
					}
				}
				if present {
					delete(model, k)
					delete(store, mv)
				}
			case 3:
				h := k.Hash()
				if ops[0]&4 != 0 {
					h ^= 0xdead << 32 // bits a slot does not keep
				}
				owner, present := store[v]
				present = present && uint32(owner.Hash()) == uint32(h)
				for _, m := range []*Map[fKey]{keyed, keyless} {
					if err := m.EraseValue(h, v); (err == nil) != present {
						t.Fatalf("EraseValue(%#x, %d) = %v, present %v", h, v, err, present)
					}
				}
				if present {
					delete(model, owner)
					delete(store, v)
				}
			}
			for _, m := range []*Map[fKey]{keyed, keyless} {
				if err := m.CheckInvariant(); err != nil {
					t.Fatal(err)
				}
				if m.Size() != len(model) {
					t.Fatalf("size %d, model %d", m.Size(), len(model))
				}
				m.ForEach(func(k fKey, v int) bool {
					if mv, ok := model[k]; !ok || mv != v {
						t.Fatalf("map holds (%v, %d), model (%d, %v)", k, v, mv, ok)
					}
					return true
				})
			}
		}
	})
}
