package libvig

import (
	"errors"
	"testing"
)

// pairVal is a two-key test value.
type pairVal struct {
	a, b tKey
	data int
}

func newTestDMap(t *testing.T, cap int) *DoubleMap[tKey, tKey, pairVal] {
	t.Helper()
	m, err := NewDoubleMap[tKey, tKey, pairVal](cap,
		func(v *pairVal) tKey { return v.a },
		func(v *pairVal) tKey { return v.b })
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// newIndexedTestDMap derives the second key from the index: its v is
// 1000 + i, and its weak flag, the part of the key the index does not
// see, is the stored b's.
func newIndexedTestDMap(t *testing.T, cap int) *DoubleMap[tKey, tKey, pairVal] {
	t.Helper()
	m, err := NewIndexedDoubleMap[tKey, tKey, pairVal](cap,
		func(v *pairVal) tKey { return v.a },
		func(i int, v *pairVal) tKey { return tKey{v: uint64(1000 + i), weak: v.b.weak} },
		func(b tKey) int { return int(b.v) - 1000 })
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestDMapPutGetBothKeys(t *testing.T) {
	m := newTestDMap(t, 4)
	v := pairVal{a: tKey{v: 1}, b: tKey{v: 100}, data: 7}
	if err := m.Put(2, v); err != nil {
		t.Fatal(err)
	}
	if i, ok := m.GetByFst(tKey{v: 1}); !ok || i != 2 {
		t.Fatalf("GetByFst: %d %v", i, ok)
	}
	if i, ok := m.GetBySnd(tKey{v: 100}); !ok || i != 2 {
		t.Fatalf("GetBySnd: %d %v", i, ok)
	}
	if got := m.Value(2); got == nil || got.data != 7 {
		t.Fatalf("Value: %+v", got)
	}
	if m.Size() != 1 {
		t.Fatalf("size %d", m.Size())
	}
}

func TestDMapEraseRemovesBothKeys(t *testing.T) {
	m := newTestDMap(t, 4)
	_ = m.Put(0, pairVal{a: tKey{v: 1}, b: tKey{v: 100}})
	if err := m.Erase(0); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.GetByFst(tKey{v: 1}); ok {
		t.Fatal("first key survived erase")
	}
	if _, ok := m.GetBySnd(tKey{v: 100}); ok {
		t.Fatal("second key survived erase")
	}
	if m.Value(0) != nil {
		t.Fatal("value survived erase")
	}
	if err := m.Erase(0); !errors.Is(err, ErrDMapIndexFree) {
		t.Fatalf("double erase: %v", err)
	}
}

func TestDMapBusyIndexRejected(t *testing.T) {
	m := newTestDMap(t, 4)
	_ = m.Put(1, pairVal{a: tKey{v: 1}, b: tKey{v: 2}})
	err := m.Put(1, pairVal{a: tKey{v: 3}, b: tKey{v: 4}})
	if !errors.Is(err, ErrDMapIndexBusy) {
		t.Fatalf("want ErrDMapIndexBusy, got %v", err)
	}
}

// TestDMapDuplicateSecondKeyRollsBack is the atomicity check: a Put that
// fails on the second key must leave no trace under the first key.
func TestDMapDuplicateSecondKeyRollsBack(t *testing.T) {
	m := newTestDMap(t, 4)
	_ = m.Put(0, pairVal{a: tKey{v: 1}, b: tKey{v: 100}})
	err := m.Put(1, pairVal{a: tKey{v: 2}, b: tKey{v: 100}}) // second key dup
	if err == nil {
		t.Fatal("duplicate second key accepted")
	}
	if _, ok := m.GetByFst(tKey{v: 2}); ok {
		t.Fatal("rolled-back Put left first key indexed")
	}
	if m.Size() != 1 {
		t.Fatalf("size %d after rollback", m.Size())
	}
	// Index 1 must remain usable.
	if err := m.Put(1, pairVal{a: tKey{v: 2}, b: tKey{v: 200}}); err != nil {
		t.Fatalf("index unusable after rollback: %v", err)
	}
}

func TestDMapRangeChecks(t *testing.T) {
	m := newTestDMap(t, 2)
	if err := m.Put(-1, pairVal{}); err == nil {
		t.Fatal("negative index accepted")
	}
	if err := m.Put(2, pairVal{}); err == nil {
		t.Fatal("out-of-range index accepted")
	}
	if m.Value(-1) != nil || m.Value(2) != nil {
		t.Fatal("out-of-range Value returned non-nil")
	}
	if m.Occupied(-1) || m.Occupied(2) {
		t.Fatal("out-of-range Occupied")
	}
}

func TestDMapForEach(t *testing.T) {
	m := newTestDMap(t, 8)
	for i := 0; i < 5; i++ {
		_ = m.Put(i, pairVal{a: tKey{v: uint64(i)}, b: tKey{v: uint64(100 + i)}, data: i})
	}
	_ = m.Erase(2)
	seen := map[int]bool{}
	m.ForEach(func(i int, v *pairVal) bool {
		seen[i] = true
		if v.data != i {
			t.Fatalf("value mismatch at %d", i)
		}
		return true
	})
	if len(seen) != 4 || seen[2] {
		t.Fatalf("ForEach visited %v", seen)
	}
}

// TestDMapChurn runs a model-checked random workload across both key
// spaces.
func TestDMapChurn(t *testing.T) {
	const cap = 16
	m := newTestDMap(t, cap)
	type entry struct{ a, b uint64 }
	model := map[int]entry{}
	nextKey := uint64(0)
	rng := uint64(99)
	rand := func(n int) int {
		rng = rng*6364136223846793005 + 1442695040888963407
		return int((rng >> 33) % uint64(n))
	}
	for step := 0; step < 20000; step++ {
		switch rand(4) {
		case 0: // put at a free index
			idx := rand(cap)
			if _, busy := model[idx]; busy {
				continue
			}
			nextKey++
			e := entry{a: nextKey, b: nextKey + 1_000_000}
			if err := m.Put(idx, pairVal{a: tKey{v: e.a}, b: tKey{v: e.b}, data: idx}); err != nil {
				t.Fatalf("step %d: put: %v", step, err)
			}
			model[idx] = e
		case 1: // erase a live index
			idx := rand(cap)
			_, busy := model[idx]
			err := m.Erase(idx)
			if busy && err != nil {
				t.Fatalf("step %d: erase live: %v", step, err)
			}
			if !busy && err == nil {
				t.Fatalf("step %d: erased free index", step)
			}
			delete(model, idx)
		case 2: // lookup by first key
			idx := rand(cap)
			e, busy := model[idx]
			if !busy {
				continue
			}
			got, ok := m.GetByFst(tKey{v: e.a})
			if !ok || got != idx {
				t.Fatalf("step %d: GetByFst %d %v want %d", step, got, ok, idx)
			}
		case 3: // lookup by second key
			idx := rand(cap)
			e, busy := model[idx]
			if !busy {
				continue
			}
			got, ok := m.GetBySnd(tKey{v: e.b})
			if !ok || got != idx {
				t.Fatalf("step %d: GetBySnd %d %v want %d", step, got, ok, idx)
			}
		}
		if m.Size() != len(model) {
			t.Fatalf("step %d: size %d model %d", step, m.Size(), len(model))
		}
	}
}

// TestDMapHashedAndPrefetchArePure: the hashed entry points agree with
// the plain ones, and the prefetch stage — home slots of a burst's keys
// and of the indices about to expire — changes nothing anyone can
// observe.
func TestDMapHashedAndPrefetchArePure(t *testing.T) {
	const cap = 32
	t.Run("hashed", func(t *testing.T) { testDMapHashedAndPrefetchArePure(t, cap, newTestDMap(t, cap)) })
	t.Run("indexed", func(t *testing.T) { testDMapHashedAndPrefetchArePure(t, cap, newIndexedTestDMap(t, cap)) })
}

func testDMapHashedAndPrefetchArePure(t *testing.T, cap int, m *DoubleMap[tKey, tKey, pairVal]) {
	chain, err := NewDChain(cap)
	if err != nil {
		t.Fatal(err)
	}
	for now := Time(1); now <= 20; now++ {
		i, err := chain.Allocate(now)
		if err != nil {
			t.Fatal(err)
		}
		v := pairVal{a: tKey{v: uint64(i), weak: i%2 == 0}, b: tKey{v: uint64(1000 + i)}, data: i}
		if i%2 == 0 {
			err = m.Put(i, v)
		} else {
			err = m.PutFstHashed(i, v, v.a.Hash())
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	snapshot := func() (vals []pairVal, order []int) {
		m.ForEach(func(_ int, v *pairVal) bool { vals = append(vals, *v); return true })
		return vals, chain.AllocatedAsc(nil)
	}
	vals0, order0 := snapshot()
	m.PrefetchExpiring(chain, 11, 4)    // fewer than would expire
	m.PrefetchExpiring(chain, 1000, 64) // more than are allocated
	m.PrefetchExpiring(chain, 0, 64)    // none due
	for h := uint64(0); h < 100; h++ {
		m.PrefetchFst(h * 0x9e3779b97f4a7c15)
		m.PrefetchSnd(tKey{v: 990 + h}, h) // below, inside and beyond the indexed range
	}
	vals1, order1 := snapshot()
	if len(vals0) != len(vals1) || len(order0) != len(order1) {
		t.Fatal("prefetch changed the population")
	}
	for i := range vals0 {
		if vals0[i] != vals1[i] || order0[i] != order1[i] {
			t.Fatalf("prefetch changed entry %d", i)
		}
	}
	if err := m.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		a, b := tKey{v: uint64(i), weak: i%2 == 0}, tKey{v: uint64(1000 + i)}
		if got, ok := m.GetByFstHashed(a, a.Hash()); !ok || got != i {
			t.Fatalf("GetByFstHashed %d: (%d, %v)", i, got, ok)
		}
		if got, ok := m.GetBySndHashed(b, b.Hash()); !ok || got != i {
			t.Fatalf("GetBySndHashed %d: (%d, %v)", i, got, ok)
		}
	}
}

// TestDMapEraseRehashesKeys: Erase finds a record's slots by rehashing
// its keys, so a key rewritten in place through Value is reported by
// CheckInvariant and makes Erase refuse — changing nothing — until it
// is put back.
func TestDMapEraseRehashesKeys(t *testing.T) {
	const cap = 8
	for _, tc := range []struct {
		name string
		m    *DoubleMap[tKey, tKey, pairVal]
	}{{"hashed", newTestDMap(t, cap)}, {"indexed", newIndexedTestDMap(t, cap)}} {
		t.Run(tc.name, func(t *testing.T) {
			m := tc.m
			if err := m.Put(3, pairVal{a: tKey{v: 7}, b: tKey{v: 1003}}); err != nil {
				t.Fatal(err)
			}
			keys := []*tKey{&m.Value(3).a}
			if m.bySnd != nil {
				keys = append(keys, &m.Value(3).b)
			}
			for _, k := range keys {
				was := *k
				k.v += 100
				if err := m.CheckInvariant(); err == nil {
					t.Fatalf("key %+v rewritten to %+v, invariant still holds", was, *k)
				}
				if err := m.Erase(3); !errors.Is(err, ErrMapNoKey) {
					t.Fatalf("erase of a record with a rewritten key: %v", err)
				}
				if m.Size() != 1 || !m.Occupied(3) {
					t.Fatalf("refused erase changed the map: size %d", m.Size())
				}
				*k = was
			}
			if err := m.CheckInvariant(); err != nil {
				t.Fatal(err)
			}
			if err := m.Erase(3); err != nil {
				t.Fatal(err)
			}
			if err := m.CheckInvariant(); err != nil {
				t.Fatal(err)
			}
			if m.Size() != 0 || m.byFst.Size() != 0 {
				t.Fatalf("size %d, first-key map %d after the erase", m.Size(), m.byFst.Size())
			}
		})
	}
}

// TestIndexedDMap: a second key derived from the index is resolved by
// arithmetic and one compare. A key that indexes an occupied slot but
// is not the one derived there misses; whatever second key a put's
// value carries, the one it is found under is its index's.
func TestIndexedDMap(t *testing.T) {
	m := newIndexedTestDMap(t, 4)
	if err := m.Put(2, pairVal{a: tKey{v: 7}, b: tKey{v: 1002}, data: 70}); err != nil {
		t.Fatal(err)
	}
	if i, ok := m.GetBySnd(tKey{v: 1002}); !ok || i != 2 {
		t.Fatalf("GetBySnd: (%d, %v)", i, ok)
	}
	for _, k := range []tKey{{v: 1002, weak: true}, {v: 1001}, {v: 999}, {v: 1004}, {v: 0}} {
		if i, ok := m.GetBySnd(k); ok {
			t.Fatalf("GetBySnd(%+v) found index %d", k, i)
		}
		if i, ok := m.GetBySndHashed(k, k.Hash()); ok {
			t.Fatalf("GetBySndHashed(%+v) found index %d", k, i)
		}
	}
	if err := m.Put(1, pairVal{a: tKey{v: 8}, b: tKey{v: 1003, weak: true}}); err != nil {
		t.Fatalf("put at a free index: %v", err)
	}
	if _, ok := m.GetBySnd(tKey{v: 1003, weak: true}); ok {
		t.Fatal("a put is found under the second key its value carries")
	}
	if i, ok := m.GetBySnd(tKey{v: 1001, weak: true}); !ok || i != 1 {
		t.Fatalf("GetBySnd of the key derived at 1: (%d, %v)", i, ok)
	}
	if err := m.Erase(1); err != nil {
		t.Fatal(err)
	}
	if err := m.Put(2, pairVal{a: tKey{v: 8}, b: tKey{v: 1002}}); !errors.Is(err, ErrDMapIndexBusy) {
		t.Fatalf("put at a busy index: %v", err)
	}
	if err := m.Put(3, pairVal{a: tKey{v: 7}, b: tKey{v: 1003}}); !errors.Is(err, ErrMapDupKey) {
		t.Fatalf("duplicate first key: %v", err)
	}
	if m.Size() != 1 || m.Occupied(1) || m.Occupied(3) {
		t.Fatalf("refused puts left a mark: size %d", m.Size())
	}
	if _, ok := m.GetByFst(tKey{v: 8}); ok {
		t.Fatal("a refused put's first key is reachable")
	}
	if err := m.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
	if err := m.Erase(2); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.GetBySnd(tKey{v: 1002}); ok {
		t.Fatal("second key survived the erase")
	}
	if err := m.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
	if _, err := NewIndexedDoubleMap[tKey, tKey, pairVal](4,
		func(v *pairVal) tKey { return v.a }, func(_ int, v *pairVal) tKey { return v.b }, nil); err == nil {
		t.Fatal("nil index function accepted")
	}
}
