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

func polFrame(t testing.TB, id flow.ID, payload int) []byte {
	t.Helper()
	spec := &netstack.FrameSpec{ID: id, PayloadLen: payload}
	return netstack.Craft(make([]byte, netstack.FrameLen(spec)), spec)
}

func subscriberID(i int) flow.ID {
	return flow.ID{
		SrcIP:   flow.MakeAddr(198, 51, 100, 7),
		SrcPort: 443,
		DstIP:   flow.MakeAddr(10, 0, 1, byte(1+i)),
		DstPort: uint16(50000 + i),
		Proto:   flow.UDP,
	}
}

func newPolicer(t *testing.T, cfg Config, clock libvig.Clock) *Policer {
	t.Helper()
	p, err := New(cfg, clock)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestPolicerConformingNeverDropped pins the headline spec clause: a
// sender that stays within rate·Δt + burst is never dropped, even at
// the exact budget boundary.
func TestPolicerConformingNeverDropped(t *testing.T) {
	clock := libvig.NewVirtualClock(0)
	p := newPolicer(t, Config{Rate: 1000, Burst: 2000, Capacity: 8, Timeout: time.Hour}, clock)
	frame := polFrame(t, subscriberID(0), 40) // 122-byte wire frames
	wire := libvig.Time(len(frame))
	// Interarrival exactly frame/rate seconds: the bucket refills exactly
	// what each packet costs; after the burst is consumed the budget sits
	// at a knife's edge forever — and must keep conforming.
	gap := wire * 1_000_000 // ns per frame at 1000 B/s
	for i := 0; i < 200; i++ {
		if v := p.Process(frame, false); v != VerdictConform {
			t.Fatalf("packet %d of an exactly-conforming sender: %v", i, v)
		}
		clock.Advance(gap)
	}
	if p.Stats().DroppedOverRate != 0 {
		t.Fatalf("conforming sender dropped %d times", p.Stats().DroppedOverRate)
	}
}

func TestPolicerBurstThenClip(t *testing.T) {
	clock := libvig.NewVirtualClock(0)
	p := newPolicer(t, Config{Rate: 1000, Burst: 1000, Capacity: 8, Timeout: time.Hour}, clock)
	frame := polFrame(t, subscriberID(0), 186)
	// Back-to-back: exactly ⌊burst/len⌋ frames fit the bucket depth,
	// then the next is clipped.
	fit := 1000 / len(frame)
	for i := 0; i < fit; i++ {
		if v := p.Process(frame, false); v != VerdictConform {
			t.Fatalf("burst packet %d: %v", i, v)
		}
	}
	if v := p.Process(frame, false); v != VerdictDrop {
		t.Fatalf("over-burst packet: %v", v)
	}
	st := p.Stats()
	if st.DroppedOverRate != 1 || st.Conformed != uint64(fit) {
		t.Fatalf("stats %+v", st)
	}
}

func TestPolicerEgressPassthroughUnmetered(t *testing.T) {
	clock := libvig.NewVirtualClock(0)
	p := newPolicer(t, Config{Rate: 1000, Burst: 1000, Capacity: 8, Timeout: time.Hour}, clock)
	up := polFrame(t, subscriberID(0).Reverse(), 1000) // huge upload frames
	for i := 0; i < 50; i++ {
		if v := p.Process(up, true); v != VerdictPassthrough {
			t.Fatalf("upload packet %d: %v", i, v)
		}
	}
	if p.Subscribers() != 0 {
		t.Fatal("egress traffic created subscriber state")
	}
	// The frame must cross unmodified.
	orig := polFrame(t, subscriberID(0).Reverse(), 1000)
	got := polFrame(t, subscriberID(0).Reverse(), 1000)
	p.Process(got, true)
	for i := range orig {
		if got[i] != orig[i] {
			t.Fatal("policer modified an egress frame")
		}
	}
}

func TestPolicerPerSubscriberIsolation(t *testing.T) {
	clock := libvig.NewVirtualClock(0)
	p := newPolicer(t, Config{Rate: 1000, Burst: 500, Capacity: 8, Timeout: time.Hour}, clock)
	flood := polFrame(t, subscriberID(0), 400)
	// Subscriber 0 floods until clipped…
	for p.Process(flood, false) == VerdictConform {
	}
	// …and subscriber 1's budget is untouched.
	if v := p.Process(polFrame(t, subscriberID(1), 400), false); v != VerdictConform {
		t.Fatalf("victim subscriber clipped by neighbor's flood: %v", v)
	}
}

func TestPolicerExpiryForgetsAndRefills(t *testing.T) {
	clock := libvig.NewVirtualClock(0)
	texp := 2 * time.Second
	p := newPolicer(t, Config{Rate: 10, Burst: 300, Capacity: 8, Timeout: texp}, clock)
	frame := polFrame(t, subscriberID(0), 186) // 268 B: more than one fits only via a fresh burst
	if v := p.Process(frame, false); v != VerdictConform {
		t.Fatalf("first packet: %v", v)
	}
	if v := p.Process(frame, false); v != VerdictDrop {
		t.Fatalf("immediate second packet: %v", v)
	}
	// Within Texp the trickle refill (10 B/s) is nowhere near a frame.
	clock.Advance(time.Second.Nanoseconds())
	if v := p.Process(frame, false); v != VerdictDrop {
		t.Fatalf("under-refilled packet: %v", v)
	}
	// Past Texp from the last packet the subscriber is forgotten; the
	// next packet re-admits with a full fresh burst.
	clock.Advance(3 * time.Second.Nanoseconds())
	if v := p.Process(frame, false); v != VerdictConform {
		t.Fatalf("re-admitted subscriber: %v", v)
	}
	st := p.Stats()
	if st.BucketsExpired != 1 || st.BucketsCreated != 2 {
		t.Fatalf("expiry accounting %+v", st)
	}
	if int(st.BucketsCreated-st.BucketsExpired) != p.Subscribers() {
		t.Fatal("subscriber accounting mismatch")
	}
}

func TestPolicerTableFullConservative(t *testing.T) {
	clock := libvig.NewVirtualClock(0)
	p := newPolicer(t, Config{Rate: 1000, Burst: 4096, Capacity: 2, Timeout: time.Hour}, clock)
	for i := 0; i < 2; i++ {
		if v := p.Process(polFrame(t, subscriberID(i), 8), false); v != VerdictConform {
			t.Fatalf("subscriber %d: %v", i, v)
		}
	}
	if v := p.Process(polFrame(t, subscriberID(2), 8), false); v != VerdictDrop {
		t.Fatalf("over-capacity subscriber %v (conservative policy requires drop)", v)
	}
	if p.Stats().DroppedTableFull != 1 {
		t.Fatalf("stats %+v", p.Stats())
	}
	// Tracked subscribers still pass.
	if v := p.Process(polFrame(t, subscriberID(0), 8), false); v != VerdictConform {
		t.Fatalf("existing at capacity: %v", v)
	}
}

func TestPolicerMalformedDropped(t *testing.T) {
	clock := libvig.NewVirtualClock(0)
	p := newPolicer(t, Config{Rate: 1000, Burst: 4096, Capacity: 8, Timeout: time.Hour}, clock)
	if v := p.Process(nil, false); v != VerdictDrop {
		t.Fatalf("empty frame: %v", v)
	}
	arp := make([]byte, 60)
	arp[12], arp[13] = 0x08, 0x06
	if v := p.Process(arp, false); v != VerdictDrop {
		t.Fatalf("ARP frame: %v", v)
	}
	if p.Stats().DroppedMalformed != 2 {
		t.Fatalf("stats %+v", p.Stats())
	}
	// ICMP is valid IPv4 and is metered like anything else.
	id := subscriberID(0)
	id.Proto = flow.ICMP
	if v := p.Process(polFrame(t, id, 8), false); v != VerdictConform {
		t.Fatalf("ICMP ingress: %v", v)
	}
}

func TestPolicerProcessNoAllocs(t *testing.T) {
	clock := libvig.NewVirtualClock(0)
	p := newPolicer(t, Config{Rate: 1 << 30, Burst: 1 << 30, Capacity: 64, Timeout: time.Hour}, clock)
	frame := polFrame(t, subscriberID(0), 40)
	p.Process(frame, false) // admit
	allocs := testing.AllocsPerRun(200, func() {
		if p.Process(frame, false) != VerdictConform {
			t.Fatal("drop on warmed path")
		}
		clock.Advance(1000)
	})
	if allocs != 0 {
		t.Fatalf("fast path allocates %.1f times per packet", allocs)
	}
}

func TestShardedPolicerAffinityAndStats(t *testing.T) {
	clock := libvig.NewVirtualClock(0)
	s, err := NewSharded(Config{Rate: 1 << 20, Burst: 1 << 20, Capacity: 64, Timeout: time.Hour}, clock, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		id := subscriberID(i)
		down := polFrame(t, id, 16)
		up := polFrame(t, id.Reverse(), 16)
		// Both directions of a subscriber steer to the same shard.
		if a, b := s.ShardOf(down, false), s.ShardOf(up, true); a != b {
			t.Fatalf("subscriber %d split across shards %d/%d", i, a, b)
		}
		if v := nfkittest.Send(s, down, false); v != nf.Forward {
			t.Fatalf("ingress %d: %v", i, v)
		}
		if v := nfkittest.Send(s, up, true); v != nf.Forward {
			t.Fatalf("egress %d: %v", i, v)
		}
	}
	if s.Subscribers() != 32 {
		t.Fatalf("subscribers %d", s.Subscribers())
	}
	st := s.Stats()
	if st.Conformed != 32 || st.Passthrough != 32 {
		t.Fatalf("aggregate stats %+v", st)
	}
	snap := s.NFStats()
	if snap.Processed != 64 || snap.Forwarded != 64 {
		t.Fatalf("snapshot %+v", snap)
	}
	// Each shard reports its table fill: the 32 admitted of 4×16.
	fills, admitted := s.FlowTables(), 0
	for _, f := range fills {
		if f.Capacity != 16 {
			t.Fatalf("shard %d capacity %d, want 16", f.Shard, f.Capacity)
		}
		admitted += f.HighWater
	}
	if len(fills) != 4 || admitted != 32 {
		t.Fatalf("flow tables %+v, want 32 admitted across 4 shards", fills)
	}
}

func TestShardedPolicerShardOfNoAllocs(t *testing.T) {
	clock := libvig.NewVirtualClock(0)
	s, err := NewSharded(Config{Rate: 1 << 20, Burst: 1 << 20, Capacity: 64, Timeout: time.Hour}, clock, 4)
	if err != nil {
		t.Fatal(err)
	}
	frame := polFrame(t, subscriberID(3), 16)
	allocs := testing.AllocsPerRun(200, func() {
		s.ShardOf(frame, false)
		s.ShardOf(frame, true)
	})
	if allocs != 0 {
		t.Fatalf("ShardOf allocates %.1f times per call", allocs)
	}
}
