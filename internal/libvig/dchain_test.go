package libvig

import (
	"errors"
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
