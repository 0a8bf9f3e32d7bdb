package libvig

import (
	"errors"
	"strings"
	"testing"
)

// tKey is a test key with a deliberately weak hash option to force
// collisions and long probe chains. Both hashes set high bits, which a
// map drops: weak keys share their low 32 bits three ways, so they tell
// apart only by the key.
type tKey struct {
	v    uint64
	weak bool
}

func (k tKey) Hash() uint64 {
	if k.weak {
		return (k.v+1)<<40 | k.v%3 // heavy collisions
	}
	x := k.v
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	return x
}

func TestMapPutGetErase(t *testing.T) {
	m, err := NewMap[tKey](8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := m.Put(tKey{v: uint64(i)}, i*10); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	if m.Size() != 8 {
		t.Fatalf("size %d", m.Size())
	}
	for i := 0; i < 8; i++ {
		v, ok := m.Get(tKey{v: uint64(i)})
		if !ok || v != i*10 {
			t.Fatalf("get %d: %d %v", i, v, ok)
		}
	}
	if err := m.Erase(tKey{v: 3}); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Get(tKey{v: 3}); ok {
		t.Fatal("erased key still present")
	}
	if m.Size() != 7 {
		t.Fatalf("size %d after erase", m.Size())
	}
}

func TestMapFullRejects(t *testing.T) {
	m, _ := NewMap[tKey](2)
	_ = m.Put(tKey{v: 1}, 1)
	_ = m.Put(tKey{v: 2}, 2)
	if err := m.Put(tKey{v: 3}, 3); !errors.Is(err, ErrMapFull) {
		t.Fatalf("want ErrMapFull, got %v", err)
	}
}

func TestMapDuplicateRejects(t *testing.T) {
	m, _ := NewMap[tKey](4)
	_ = m.Put(tKey{v: 1}, 1)
	if err := m.Put(tKey{v: 1}, 2); !errors.Is(err, ErrMapDupKey) {
		t.Fatalf("want ErrMapDupKey, got %v", err)
	}
	if v, _ := m.Get(tKey{v: 1}); v != 1 {
		t.Fatalf("duplicate put altered value: %d", v)
	}
}

func TestMapEraseAbsentRejects(t *testing.T) {
	m, _ := NewMap[tKey](4)
	if err := m.Erase(tKey{v: 9}); !errors.Is(err, ErrMapNoKey) {
		t.Fatalf("want ErrMapNoKey, got %v", err)
	}
}

// TestMapCollisionChains drives the weak-hash keys so every operation
// probes through long collision clusters, exercising the chain-counter
// deletion algorithm.
func TestMapCollisionChains(t *testing.T) {
	const n = 48
	m, _ := NewMap[tKey](n)
	for i := 0; i < n; i++ {
		if err := m.Put(tKey{v: uint64(i), weak: true}, i); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	// Delete every third key, then verify all lookups.
	for i := 0; i < n; i += 3 {
		if err := m.Erase(tKey{v: uint64(i), weak: true}); err != nil {
			t.Fatalf("erase %d: %v", i, err)
		}
	}
	for i := 0; i < n; i++ {
		v, ok := m.Get(tKey{v: uint64(i), weak: true})
		if i%3 == 0 {
			if ok {
				t.Fatalf("key %d should be gone", i)
			}
		} else if !ok || v != i {
			t.Fatalf("key %d lost after deletions: %d %v", i, v, ok)
		}
	}
	// Reinsert into the holes; chains must still terminate lookups.
	for i := 0; i < n; i += 3 {
		if err := m.Put(tKey{v: uint64(i + 1000), weak: true}, i); err != nil {
			t.Fatalf("reinsert %d: %v", i, err)
		}
	}
	for i := 0; i < n; i += 3 {
		if _, ok := m.Get(tKey{v: uint64(i + 1000), weak: true}); !ok {
			t.Fatalf("reinserted key %d missing", i)
		}
	}
}

func TestMapForEach(t *testing.T) {
	m, _ := NewMap[tKey](8)
	want := map[uint64]int{}
	for i := 0; i < 5; i++ {
		_ = m.Put(tKey{v: uint64(i)}, i)
		want[uint64(i)] = i
	}
	got := map[uint64]int{}
	m.ForEach(func(k tKey, v int) bool {
		got[k.v] = v
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("ForEach visited %d, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("ForEach mismatch at %d", k)
		}
	}
	// Early termination.
	n := 0
	m.ForEach(func(tKey, int) bool { n++; return false })
	if n != 1 {
		t.Fatalf("ForEach ignored early stop: %d visits", n)
	}
}

func TestMapBadCapacity(t *testing.T) {
	if _, err := NewMap[tKey](0); !errors.Is(err, ErrBadCapacity) {
		t.Fatal("capacity 0 accepted")
	}
	if _, err := NewMap[tKey](-5); !errors.Is(err, ErrBadCapacity) {
		t.Fatal("negative capacity accepted")
	}
	// 16-bit values and chain counters bound a map at 65,535 keys.
	_, err := NewKeylessMap(65536, func(int) tKey { return tKey{} })
	if !errors.Is(err, ErrBadCapacity) || !strings.Contains(err.Error(), "at most 65,535 per map (per shard)") {
		t.Fatalf("capacity 65,536: %v", err)
	}
	if _, err := NewMap[tKey](65535); err != nil {
		t.Fatal(err)
	}
}

// TestMapKeylessAndEraseValue: a keyless map resolves equality through
// keyOf, and EraseValue removes by (hash, value) with no key in hand —
// under a hash so weak that every probe meets matching hashes.
func TestMapKeylessAndEraseValue(t *testing.T) {
	const n = 24
	keys := make([]tKey, n)
	m, err := NewKeylessMap(n+1, func(v int) tKey { return keys[v] })
	if err != nil {
		t.Fatal(err)
	}
	for i := range keys {
		keys[i] = tKey{v: uint64(i), weak: true}
		if err := m.Put(keys[i], i); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	if err := m.Put(keys[5], 5); !errors.Is(err, ErrMapDupKey) {
		t.Fatalf("duplicate through keyOf: %v", err)
	}
	for i := 0; i < n; i += 2 {
		if err := m.EraseValue(keys[i].Hash(), i); err != nil {
			t.Fatalf("erase value %d: %v", i, err)
		}
		if err := m.EraseValue(keys[i].Hash(), i); !errors.Is(err, ErrMapNoKey) {
			t.Fatalf("second erase of value %d: %v", i, err)
		}
	}
	for i := range keys {
		v, ok := m.Get(keys[i])
		if ok != (i%2 == 1) || (ok && v != i) {
			t.Fatalf("key %d: (%d, %v)", i, v, ok)
		}
	}
	// Right value, wrong hash: not this key.
	if err := m.EraseValue(keys[1].Hash()+1, 1); !errors.Is(err, ErrMapNoKey) {
		t.Fatalf("erase under a foreign hash: %v", err)
	}
	if err := m.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
	if m.Size() != n/2 {
		t.Fatalf("size %d", m.Size())
	}
}

func TestMapRejectsUnstorableValues(t *testing.T) {
	m, _ := NewMap[tKey](4)
	for _, v := range []int{-1, 65535} {
		if err := m.Put(tKey{v: 1}, v); !errors.Is(err, ErrMapBadValue) {
			t.Fatalf("value %d: %v", v, err)
		}
	}
	if m.Size() != 0 {
		t.Fatal("a refused put changed the map")
	}
	if err := m.Put(tKey{v: 1}, 65534); err != nil {
		t.Fatal(err)
	}
	if v, ok := m.Get(tKey{v: 1}); !ok || v != 65534 {
		t.Fatalf("largest value: (%d, %v)", v, ok)
	}
}
