package libvig

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

func TestDChainAllocateAll(t *testing.T) {
	c, err := NewDChain(4)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for i := 0; i < 4; i++ {
		idx, err := c.Allocate(Time(i))
		if err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
		if idx < 0 || idx >= 4 || seen[idx] {
			t.Fatalf("bad index %d", idx)
		}
		seen[idx] = true
	}
	if _, err := c.Allocate(10); !errors.Is(err, ErrChainFull) {
		t.Fatalf("want ErrChainFull, got %v", err)
	}
	if c.Size() != 4 {
		t.Fatalf("size %d", c.Size())
	}
}

func TestDChainExpireOrder(t *testing.T) {
	c, _ := NewDChain(4)
	a, _ := c.Allocate(10)
	b, _ := c.Allocate(20)
	d, _ := c.Allocate(30)
	_ = d
	// Rejuvenate a: order becomes b(20) d(30) a(40).
	if err := c.Rejuvenate(a, 40); err != nil {
		t.Fatal(err)
	}
	idx, ok := c.ExpireOne(25)
	if !ok || idx != b {
		t.Fatalf("expire: got %d %v, want %d", idx, ok, b)
	}
	// d(30) is next-oldest; deadline 30 is not strictly greater.
	if _, ok := c.ExpireOne(30); ok {
		t.Fatal("expired entry with timestamp == deadline")
	}
	idx, ok = c.ExpireOne(31)
	if !ok || idx != d {
		t.Fatalf("expire: got %d %v, want %d", idx, ok, d)
	}
	idx, ok = c.ExpireOne(1000)
	if !ok || idx != a {
		t.Fatalf("expire: got %d %v, want %d", idx, ok, a)
	}
	if _, ok := c.ExpireOne(1000); ok {
		t.Fatal("expired from empty chain")
	}
}

func TestDChainRejuvenateDead(t *testing.T) {
	c, _ := NewDChain(2)
	if err := c.Rejuvenate(0, 5); !errors.Is(err, ErrChainNotAlloc) {
		t.Fatalf("want ErrChainNotAlloc, got %v", err)
	}
	if err := c.Rejuvenate(7, 5); !errors.Is(err, ErrChainRange) {
		t.Fatalf("want ErrChainRange, got %v", err)
	}
}

func TestDChainTimestamp(t *testing.T) {
	c, _ := NewDChain(2)
	i, _ := c.Allocate(42)
	ts, err := c.Timestamp(i)
	if err != nil || ts != 42 {
		t.Fatalf("timestamp: %d %v", ts, err)
	}
	_ = c.Rejuvenate(i, 99)
	ts, _ = c.Timestamp(i)
	if ts != 99 {
		t.Fatalf("timestamp after rejuvenate: %d", ts)
	}
	if _, err := c.Timestamp(1); !errors.Is(err, ErrChainNotAlloc) {
		t.Fatalf("want ErrChainNotAlloc, got %v", err)
	}
}

func TestDChainFreeAndReuse(t *testing.T) {
	c, _ := NewDChain(2)
	a, _ := c.Allocate(1)
	if err := c.Free(a); err != nil {
		t.Fatal(err)
	}
	if c.IsAllocated(a) {
		t.Fatal("freed index still allocated")
	}
	if err := c.Free(a); !errors.Is(err, ErrChainNotAlloc) {
		t.Fatalf("double free: want ErrChainNotAlloc, got %v", err)
	}
	// LIFO reuse: the just-freed index comes back first.
	b, _ := c.Allocate(2)
	if b != a {
		t.Fatalf("expected LIFO reuse of %d, got %d", a, b)
	}
}

func TestDChainOldest(t *testing.T) {
	c, _ := NewDChain(3)
	if _, _, ok := c.Oldest(); ok {
		t.Fatal("empty chain has an oldest")
	}
	a, _ := c.Allocate(5)
	_, _ = c.Allocate(6)
	idx, ts, ok := c.Oldest()
	if !ok || idx != a || ts != 5 {
		t.Fatalf("oldest: %d %d %v", idx, ts, ok)
	}
}

func TestDChainAllocatedAsc(t *testing.T) {
	c, _ := NewDChain(3)
	a, _ := c.Allocate(1)
	b, _ := c.Allocate(2)
	d, _ := c.Allocate(3)
	_ = c.Rejuvenate(a, 4)
	got := c.AllocatedAsc(nil)
	want := []int{b, d, a}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v want %v", got, want)
		}
	}
}

// TestDChainChurn drives a long allocate/rejuvenate/expire mix and
// checks the global invariants: sizes, uniqueness, and that expiry
// always removes the oldest.
func TestDChainChurn(t *testing.T) {
	const cap = 32
	c, _ := NewDChain(cap)
	live := map[int]Time{}
	now := Time(0)
	rng := uint64(1)
	rand := func(n int) int {
		rng = rng*6364136223846793005 + 1442695040888963407
		return int((rng >> 33) % uint64(n))
	}
	for step := 0; step < 20000; step++ {
		now++
		switch rand(3) {
		case 0:
			idx, err := c.Allocate(now)
			if len(live) == cap {
				if err == nil {
					t.Fatal("allocated past capacity")
				}
				continue
			}
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			if _, dup := live[idx]; dup {
				t.Fatalf("step %d: duplicate index %d", step, idx)
			}
			live[idx] = now
		case 1:
			if len(live) == 0 {
				continue
			}
			var pick int
			k := rand(len(live))
			for idx := range live {
				if k == 0 {
					pick = idx
					break
				}
				k--
			}
			if err := c.Rejuvenate(pick, now); err != nil {
				t.Fatalf("step %d: rejuvenate: %v", step, err)
			}
			live[pick] = now
		case 2:
			deadline := now - 5
			for {
				idx, ok := c.ExpireOne(deadline)
				if !ok {
					break
				}
				ts, present := live[idx]
				if !present {
					t.Fatalf("step %d: expired unknown index %d", step, idx)
				}
				if ts >= deadline {
					t.Fatalf("step %d: expired fresh index %d (ts %d, deadline %d)", step, idx, ts, deadline)
				}
				delete(live, idx)
			}
			// Nothing older than the deadline may remain.
			if _, ts, ok := c.Oldest(); ok && ts < deadline {
				t.Fatalf("step %d: stale entry survived expiry", step)
			}
		}
		if c.Size() != len(live) {
			t.Fatalf("step %d: size %d, model %d", step, c.Size(), len(live))
		}
	}
}

// TestDChainAfterWalksExpiryOrder: Oldest and After visit exactly what
// AllocatedAsc lists, in that order, and change nothing.
func TestDChainAfterWalksExpiryOrder(t *testing.T) {
	c, _ := NewDChain(8)
	for now := Time(1); now <= 6; now++ {
		if _, err := c.Allocate(now); err != nil {
			t.Fatal(err)
		}
	}
	_ = c.Rejuvenate(2, 7)
	_ = c.Free(4)
	want := c.AllocatedAsc(nil)
	var got []int
	last := Time(0)
	for i, ts, ok := c.Oldest(); ok; i, ts, ok = c.After(i) {
		if ts < last {
			t.Fatalf("timestamps out of order at index %d", i)
		}
		last = ts
		got = append(got, i)
	}
	if len(got) != len(want) {
		t.Fatalf("walked %v, allocated %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("walked %v, allocated %v", got, want)
		}
	}
}

// eagerChain is the reference the chain's lazy free list is held to:
// the free list built whole at construction, every cell in ascending
// order, a freed cell pushed on its head. It answers every call the
// chain answers, with the chain's errors.
type eagerChain struct {
	free  []int // head first
	live  []int // old to young
	stamp []Time
	alloc []bool
}

func newEagerChain(capacity int) *eagerChain {
	e := &eagerChain{stamp: make([]Time, capacity), alloc: make([]bool, capacity)}
	for i := 0; i < capacity; i++ {
		e.free = append(e.free, i)
	}
	return e
}

func without(s []int, i int) []int {
	for k, v := range s {
		if v == i {
			return append(s[:k:k], s[k+1:]...)
		}
	}
	panic("eagerChain: index on neither list")
}

func (e *eagerChain) check(i int, wantAlloc bool) error {
	switch {
	case i < 0 || i >= len(e.alloc):
		return ErrChainRange
	case e.alloc[i] && !wantAlloc:
		return ErrChainBusy
	case !e.alloc[i] && wantAlloc:
		return ErrChainNotAlloc
	}
	return nil
}

func (e *eagerChain) take(i int, now Time) {
	e.free = without(e.free, i)
	e.live = append(e.live, i)
	e.alloc[i], e.stamp[i] = true, now
}

func (e *eagerChain) release(i int) {
	e.live = without(e.live, i)
	e.free = append([]int{i}, e.free...)
	e.alloc[i] = false
}

func (e *eagerChain) Allocate(now Time) (int, error) {
	if len(e.free) == 0 {
		return 0, ErrChainFull
	}
	i := e.free[0]
	e.take(i, now)
	return i, nil
}

func (e *eagerChain) AllocateIndex(i int, now Time) error {
	if err := e.check(i, false); err != nil {
		return err
	}
	e.take(i, now)
	return nil
}

func (e *eagerChain) Rejuvenate(i int, now Time) error {
	if err := e.check(i, true); err != nil {
		return err
	}
	e.live = append(without(e.live, i), i)
	e.stamp[i] = now
	return nil
}

func (e *eagerChain) ExpireOne(deadline Time) (int, bool) {
	if len(e.live) == 0 || e.stamp[e.live[0]] >= deadline {
		return 0, false
	}
	i := e.live[0]
	e.release(i)
	return i, true
}

func (e *eagerChain) Free(i int) error {
	if err := e.check(i, true); err != nil {
		return err
	}
	e.release(i)
	return nil
}

// TestDChainMatchesEagerFreeList drives the chain and the eager
// reference through the same random sequences — allocations, allocations
// of chosen indices (never-used ones among them), frees, expiries,
// rejuvenations, and restores of the live set into a fresh pair in
// stamp order, as a reshard replays it — and requires the same answer,
// the same error and the same expiry order after every step: allocation
// order, and with it every index an NF hands out, is the eager list's.
func TestDChainMatchesEagerFreeList(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		capacity := 1 + rng.Intn(24)
		c, _ := NewDChain(capacity)
		e := newEagerChain(capacity)
		now := Time(0)
		for step := 0; step < 400; step++ {
			now += Time(rng.Intn(3))
			var op string
			var got, want any
			switch k := rng.Intn(12); {
			case k < 3:
				op = "Allocate"
				i, err := c.Allocate(now)
				j, werr := e.Allocate(now)
				got, want = [2]any{i, err}, [2]any{j, werr}
			case k < 6:
				i := rng.Intn(capacity+2) - 1
				op = fmt.Sprintf("AllocateIndex(%d)", i)
				got, want = c.AllocateIndex(i, now), e.AllocateIndex(i, now)
			case k < 8:
				i := rng.Intn(capacity)
				op = fmt.Sprintf("Free(%d)", i)
				got, want = c.Free(i), e.Free(i)
			case k < 10:
				d := now - Time(rng.Intn(6))
				op = fmt.Sprintf("ExpireOne(%d)", d)
				i, ok := c.ExpireOne(d)
				j, wok := e.ExpireOne(d)
				got, want = [2]any{i, ok}, [2]any{j, wok}
			case k < 11:
				i := rng.Intn(capacity)
				op = fmt.Sprintf("Rejuvenate(%d)", i)
				got, want = c.Rejuvenate(i, now), e.Rejuvenate(i, now)
			default:
				op = "restore"
				live := e.live
				c, _ = NewDChain(capacity)
				e = newEagerChain(capacity)
				for _, i := range live {
					if err := c.AllocateIndex(i, now); err != nil {
						t.Fatalf("seed %d step %d: restoring %d: %v", seed, step, i, err)
					}
					_ = e.AllocateIndex(i, now)
				}
			}
			if got != want {
				t.Fatalf("seed %d step %d: %s = %v, eager list says %v", seed, step, op, got, want)
			}
			asc := c.AllocatedAsc(nil)
			if fmt.Sprint(asc) != fmt.Sprint(e.live) || c.Size() != len(e.live) {
				t.Fatalf("seed %d step %d: after %s allocated %v (size %d), eager list %v", seed, step, op, asc, c.Size(), e.live)
			}
			for _, i := range asc {
				if i >= c.HighWater() {
					t.Fatalf("seed %d step %d: index %d allocated at high water %d", seed, step, i, c.HighWater())
				}
			}
		}
	}
}

// TestDChainHighWater: allocation and LIFO reuse leave the high water at
// the most indices ever live at once; allocating a never-used index
// moves it past that index, and the cells it skipped are handed out
// next, in order.
func TestDChainHighWater(t *testing.T) {
	c, _ := NewDChain(16)
	if hw := c.HighWater(); hw != 0 {
		t.Fatalf("new chain: high water %d", hw)
	}
	for now := Time(1); now <= 3; now++ {
		_, _ = c.Allocate(now)
	}
	_ = c.Free(1)
	_ = c.Free(0)
	for now := Time(4); now <= 5; now++ {
		_, _ = c.Allocate(now)
	}
	if hw := c.HighWater(); hw != 3 {
		t.Fatalf("3 live at most: high water %d", hw)
	}
	_ = c.Free(2)
	if err := c.AllocateIndex(6, 6); err != nil {
		t.Fatal(err)
	}
	if hw := c.HighWater(); hw != 7 {
		t.Fatalf("index 6 allocated: high water %d", hw)
	}
	var got []int
	for now := Time(7); now <= 11; now++ {
		i, _ := c.Allocate(now)
		got = append(got, i)
	}
	if fmt.Sprint(got) != "[2 3 4 5 7]" {
		t.Fatalf("after index 6, allocated %v, want [2 3 4 5 7]", got)
	}
}
