package lb_test

import (
	"testing"
	"time"

	"vignat/internal/flow"
	"vignat/internal/lb"
	"vignat/internal/libvig"
	"vignat/internal/netstack"
	"vignat/internal/nf"
	"vignat/internal/nf/nfkit/nfkittest"
)

// TestReshardPreservesBackendsAndStickies pins the balancer codec:
// across 2 → 4 → 3 reshards the backend pool keeps its slot numbers
// (CHT permutations and sticky references name backends by index), the
// replicated pool's duplicate broadcast records are absorbed (every
// old shard snapshots the full pool), every sticky flow keeps its
// backend, and the counters stay continuous.
func TestReshardPreservesBackendsAndStickies(t *testing.T) {
	const nFlows = 24
	clock := libvig.NewVirtualClock(0)
	vip := flow.MakeAddr(198, 18, 10, 10)
	balancer, err := lb.NewSharded(lb.Config{
		VIP: vip, VIPPort: 443, Capacity: 256, Timeout: time.Minute, MaxBackends: 8,
	}, clock, 2)
	if err != nil {
		t.Fatal(err)
	}
	backends := []flow.Addr{
		flow.MakeAddr(10, 1, 0, 10),
		flow.MakeAddr(10, 1, 0, 11),
		flow.MakeAddr(10, 1, 0, 12),
	}
	for i, ip := range backends {
		idx, err := balancer.AddBackend(ip, clock.Now())
		if err != nil {
			t.Fatal(err)
		}
		if idx != i {
			t.Fatalf("backend %v landed in slot %d, want %d", ip, idx, i)
		}
	}

	mkFrame := func(id flow.ID) []byte {
		fs := &netstack.FrameSpec{ID: id, PayloadLen: 4}
		return netstack.Craft(make([]byte, netstack.FrameLen(fs)), fs)
	}
	backendOf := func(frame []byte) flow.Addr {
		var p netstack.Packet
		if err := p.Parse(frame); err != nil {
			t.Fatal(err)
		}
		return p.FlowID().DstIP
	}

	// Pin nFlows clients; remember each one's backend.
	ids := make([]flow.ID, nFlows)
	pinned := make([]flow.Addr, nFlows)
	for i := range ids {
		ids[i] = flow.ID{
			SrcIP: flow.MakeAddr(203, 0, byte(i>>8), byte(1+i)), SrcPort: uint16(20000 + i),
			DstIP: vip, DstPort: 443, Proto: flow.UDP,
		}
		clock.Advance(1_000_000)
		f := mkFrame(ids[i])
		if v := nfkittest.Send(balancer, f, false); v != nf.Forward {
			t.Fatalf("client %d: verdict %v", i, v)
		}
		pinned[i] = backendOf(f)
	}

	checkAll := func(when string) {
		if dropped := balancer.MigrationDropped(); dropped != 0 {
			t.Fatalf("%s: %d records dropped", when, dropped)
		}
		if got := balancer.Flows(); got != nFlows {
			t.Fatalf("%s: %d sticky flows, want %d", when, got, nFlows)
		}
		st := balancer.Stats()
		if st.FlowsCreated != nFlows || st.FlowsUnpinned != 0 {
			t.Fatalf("%s: created %d unpinned %d; restore must not re-create or unpin", when, st.FlowsCreated, st.FlowsUnpinned)
		}
		// Slot identity on every shard: the replicated pool restored
		// each backend into its original index exactly once.
		for s := 0; s < balancer.Shards(); s++ {
			core := balancer.ShardBalancer(s)
			if got := core.LiveBackends(); got != len(backends) {
				t.Fatalf("%s: shard %d holds %d backends, want %d", when, s, got, len(backends))
			}
			for i, ip := range backends {
				if got, ok := core.Backend(i); !ok || got != ip {
					t.Fatalf("%s: shard %d slot %d holds %v, want %v", when, s, i, got, ip)
				}
			}
		}
		// Sticky fidelity: every client still lands on its backend.
		for i, id := range ids {
			f := mkFrame(id)
			if v := nfkittest.Send(balancer, f, false); v != nf.Forward {
				t.Fatalf("%s: client %d verdict %v", when, i, v)
			}
			if got := backendOf(f); got != pinned[i] {
				t.Fatalf("%s: client %d remapped %v → %v", when, i, pinned[i], got)
			}
		}
	}

	if err := balancer.Reshard(4); err != nil {
		t.Fatalf("reshard to 4: %v", err)
	}
	if balancer.Migrated() == 0 {
		t.Fatal("reshard to 4 migrated nothing")
	}
	checkAll("after 2→4")
	if err := balancer.Reshard(3); err != nil {
		t.Fatalf("reshard to 3: %v", err)
	}
	checkAll("after 4→3")

	// A backend drained after the reshards unpins exactly its flows —
	// the chains and CHT are fully live, not just readable.
	victims := 0
	for _, b := range pinned {
		if b == backends[0] {
			victims++
		}
	}
	if err := balancer.RemoveBackend(0); err != nil {
		t.Fatal(err)
	}
	st := balancer.Stats()
	if int(st.FlowsUnpinned) != victims {
		t.Fatalf("drain unpinned %d flows, want %d", st.FlowsUnpinned, victims)
	}
	if got := balancer.Flows(); got != nFlows-victims {
		t.Fatalf("%d flows live after drain, want %d", got, nFlows-victims)
	}
}
