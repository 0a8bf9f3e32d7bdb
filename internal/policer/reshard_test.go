package policer

import (
	"testing"
	"time"

	"vignat/internal/flow"
	"vignat/internal/libvig"
	"vignat/internal/netstack"
	"vignat/internal/nf"
	"vignat/internal/nf/nfkit/nfkittest"
)

// TestReshardPreservesBucketsAndConfig pins the policer codec: a live
// Resize rides the reshard (the cfgRecord broadcast — cores are
// otherwise rebuilt from the construction-time config and the resize
// would silently revert), every subscriber keeps its budget and
// refill clock, and the counters stay continuous.
func TestReshardPreservesBucketsAndConfig(t *testing.T) {
	const nSubs = 24
	clock := libvig.NewVirtualClock(0)
	s, err := NewSharded(Config{
		Rate: 1 << 20, Burst: 1 << 20, Capacity: 256, Timeout: time.Minute,
	}, clock, 2)
	if err != nil {
		t.Fatal(err)
	}

	subs := make([]flow.Addr, nSubs)
	for i := range subs {
		subs[i] = flow.MakeAddr(10, 0, byte(i>>8), byte(1+i))
		fs := &netstack.FrameSpec{ID: flow.ID{
			SrcIP: flow.MakeAddr(198, 51, 100, 7), SrcPort: 443,
			DstIP: subs[i], DstPort: 8080, Proto: flow.UDP,
		}, PayloadLen: 64}
		f := netstack.Craft(make([]byte, netstack.FrameLen(fs)), fs)
		clock.Advance(1_000_000)
		if v := nfkittest.Send(s, f, false); v != nf.Forward {
			t.Fatalf("subscriber %d: verdict %v", i, v)
		}
	}

	// A live resize, then a budget snapshot to compare after the move.
	if err := s.Resize(5000, 8000, clock.Now()); err != nil {
		t.Fatal(err)
	}
	budgetOf := func(addr flow.Addr) int64 {
		for _, core := range s.Cores() {
			if b, ok := core.Budget(addr, clock.Now()); ok {
				return b
			}
		}
		t.Fatalf("subscriber %v lost", addr)
		return 0
	}
	before := make([]int64, nSubs)
	for i, a := range subs {
		before[i] = budgetOf(a)
		if before[i] > 8000 {
			t.Fatalf("budget %d exceeds the resized burst", before[i])
		}
	}

	if err := s.Reshard(3); err != nil {
		t.Fatalf("reshard to 3: %v", err)
	}
	if s.Migrated() == 0 {
		t.Fatal("reshard migrated nothing")
	}
	if dropped := s.MigrationDropped(); dropped != 0 {
		t.Fatalf("%d records dropped", dropped)
	}
	if got := s.Subscribers(); got != nSubs {
		t.Fatalf("%d subscribers after reshard, want %d", got, nSubs)
	}
	st := s.Stats()
	if st.BucketsCreated != nSubs || st.BucketsExpired != 0 {
		t.Fatalf("created %d expired %d; restore must not re-create", st.BucketsCreated, st.BucketsExpired)
	}
	// The resize survived: every core runs the live config, not the
	// construction-time one.
	for i, core := range s.Cores() {
		if cfg := core.Config(); cfg.Rate != 5000 || cfg.Burst != 8000 {
			t.Fatalf("shard %d reverted to rate %d burst %d", i, cfg.Rate, cfg.Burst)
		}
	}
	// Budgets moved verbatim (same clock instant, so refill is a
	// no-op: any difference is migration loss or mint).
	for i, a := range subs {
		if got := budgetOf(a); got != before[i] {
			t.Fatalf("subscriber %d budget moved: %d → %d", i, before[i], got)
		}
	}
}
