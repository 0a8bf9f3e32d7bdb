package libvig

import (
	"errors"
	"testing"
)

// dmRec is a DoubleMap record of the fuzzer: two fKeys, so every key
// homes to one of four slots and shares its stored hash bits with a
// quarter of all keys.
type dmRec struct{ a, b fKey }

// dmCase is one map under the fuzzer, with the model it must match and
// a chain allocated at exactly its occupied indices, in put order.
type dmCase struct {
	name  string
	m     *DoubleMap[fKey, fKey, dmRec]
	snd   func(i int, r *dmRec) fKey // the second key of r at index i
	model map[int]dmRec
	chain *DChain
	now   Time
}

// wantPut is the error Put(i, r) must return, by the dmappingp contract.
func (c *dmCase) wantPut(i int, r dmRec) error {
	if i < 0 || i >= c.m.Capacity() {
		return ErrChainRange
	}
	if _, busy := c.model[i]; busy {
		return ErrDMapIndexBusy
	}
	for j, s := range c.model {
		if s.a == r.a || c.snd(j, &s) == c.snd(i, &r) {
			return ErrMapDupKey
		}
	}
	return nil
}

func (c *dmCase) put(t *testing.T, i int, r dmRec) {
	want := c.wantPut(i, r)
	if err := c.m.Put(i, r); !errors.Is(err, want) {
		t.Fatalf("%s: Put(%d, %v) = %v, want %v", c.name, i, r, err, want)
	}
	if want == nil {
		c.model[i] = r
		c.now++
		if err := c.chain.AllocateIndex(i, c.now); err != nil {
			t.Fatal(err)
		}
	}
}

func (c *dmCase) erase(t *testing.T, i int) {
	_, busy := c.model[i]
	if err := c.m.Erase(i); (err == nil) != busy {
		t.Fatalf("%s: Erase(%d) = %v, occupied %v", c.name, i, err, busy)
	}
	if busy {
		delete(c.model, i)
		if err := c.chain.Free(i); err != nil {
			t.Fatal(err)
		}
	}
}

func (c *dmCase) get(t *testing.T, k1, k2 fKey) {
	w1, w2 := -1, -1
	for j, s := range c.model {
		if s.a == k1 {
			w1 = j
		}
		if c.snd(j, &s) == k2 {
			w2 = j
		}
	}
	if got, ok := c.m.GetByFst(k1); ok != (w1 >= 0) || ok && got != w1 {
		t.Fatalf("%s: GetByFst(%v) = (%d, %v), model %d", c.name, k1, got, ok, w1)
	}
	if got, ok := c.m.GetBySnd(k2); ok != (w2 >= 0) || ok && got != w2 {
		t.Fatalf("%s: GetBySnd(%v) = (%d, %v), model %d", c.name, k2, got, ok, w2)
	}
}

func (c *dmCase) check(t *testing.T) {
	if err := c.m.CheckInvariant(); err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	if c.m.Size() != len(c.model) {
		t.Fatalf("%s: size %d, model %d", c.name, c.m.Size(), len(c.model))
	}
	c.m.ForEach(func(i int, v *dmRec) bool {
		if r, ok := c.model[i]; !ok || r != *v {
			t.Fatalf("%s: index %d holds %v, model (%v, %v)", c.name, i, *v, r, ok)
		}
		return true
	})
}

// FuzzDoubleMapOps drives a two-key DoubleMap and an indexed one with
// Put/Erase/GetByFst/GetBySnd sequences over keys that share their
// homes and stored hash bits, with LIFO reuse — an index erased and a
// different record put at it at once, as a flow table's chain hands the
// freed index straight back — and with PrefetchExpiring, whose kept
// hashes the erases after it use; after every operation it holds each
// map to a Go-map model and to CheckInvariant.
//
// data[0] picks the capacity (1–48, past the 32 hashes a prefetch
// keeps, so that two indices share an entry); then every four bytes are one op:
// code (mod 5: put, erase, erase and reuse, get, prefetch the oldest
// index-byte records), the index (capacity included, one past the
// range) and the two keys, each byte k read as fKey{lo: k%4,
// hi: (k>>2)·φ}. The indexed map's second key at i is fKey{lo: b's lo,
// hi: i}: the index names itself, lo is what only the compare sees.
func FuzzDoubleMapOps(f *testing.F) {
	f.Add([]byte{4, 0, 0, 1, 2, 0, 1, 5, 6, 2, 0, 9, 10, 3, 0, 9, 10, 1, 1, 0, 0})
	f.Add([]byte{2, 0, 0, 0, 4, 0, 1, 4, 0, 2, 1, 8, 12, 2, 0, 0, 4, 3, 1, 8, 12, 0, 2, 1, 1})
	// Indices 1 and 33 share a kept hash: the prefetch keeps 33's, and
	// the erase of 1 must not take it.
	f.Add([]byte{39, 0, 1, 5, 6, 0, 33, 10, 11, 4, 32, 0, 0, 1, 1, 0, 0, 1, 33, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		capacity := 1 + int(data[0]%48)
		hashed, err := NewDoubleMap(capacity,
			func(r *dmRec) fKey { return r.a }, func(r *dmRec) fKey { return r.b })
		if err != nil {
			t.Fatal(err)
		}
		indexedSnd := func(i int, r *dmRec) fKey { return fKey{lo: r.b.lo, hi: uint32(i)} }
		indexed, err := NewIndexedDoubleMap(capacity,
			func(r *dmRec) fKey { return r.a }, indexedSnd, func(k fKey) int { return int(k.hi) })
		if err != nil {
			t.Fatal(err)
		}
		cases := []*dmCase{
			{name: "two-key", m: hashed, snd: func(_ int, r *dmRec) fKey { return r.b }},
			{name: "indexed", m: indexed, snd: indexedSnd},
		}
		for _, c := range cases {
			c.model = map[int]dmRec{}
			if c.chain, err = NewDChain(capacity); err != nil {
				t.Fatal(err)
			}
		}
		key := func(b byte) fKey { return fKey{lo: b % 4, hi: uint32(b>>2) * 0x9e3779b9} }
		for ops := data[1:]; len(ops) >= 4; ops = ops[4:] {
			i := int(ops[1]) % (capacity + 1)
			r := dmRec{a: key(ops[2]), b: key(ops[3])}
			for _, c := range cases {
				switch ops[0] % 5 {
				case 0:
					c.put(t, i, r)
				case 1:
					c.erase(t, i)
				case 2:
					c.erase(t, i)
					c.check(t)
					c.put(t, i, r)
				case 3:
					k2 := r.b
					if c.m.bySnd == nil {
						k2 = indexedSnd(i, &r)
					}
					c.get(t, r.a, k2)
				case 4:
					c.m.PrefetchExpiring(c.chain, c.now+1, int(ops[1]))
				}
				c.check(t)
			}
		}
	})
}
