package nat

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"vignat/internal/flow"
	"vignat/internal/libvig"
	"vignat/internal/netstack"
	"vignat/internal/nf"
	"vignat/internal/nf/nfkit/nfkittest"
)

func shardedForTest(t *testing.T, shards int) *Sharded {
	t.Helper()
	s, err := NewSharded(Config{
		Capacity:   4096,
		Timeout:    time.Hour,
		ExternalIP: flow.MakeAddr(198, 18, 1, 1),
		PortBase:   1000,
		// InternalPort 0 / ExternalPort 1 as in the paper's setup.
		ExternalPort: 1,
	}, libvig.NewVirtualClock(0), shards)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func craftUDP(t *testing.T, buf []byte, id flow.ID) []byte {
	t.Helper()
	id.Proto = flow.UDP
	spec := &netstack.FrameSpec{ID: id}
	return netstack.Craft(buf[:netstack.FrameLen(spec)], spec)
}

func testFlowID(i int) flow.ID {
	return flow.ID{
		SrcIP:   flow.MakeAddr(10, 0, byte(i>>8), byte(i)),
		DstIP:   flow.MakeAddr(198, 51, 100, 1),
		SrcPort: uint16(10000 + i),
		DstPort: 80,
		Proto:   flow.UDP,
	}
}

// TestShardedPortRangesDisjoint: each shard allocates external ports
// only from its own slice of the range — the invariant that makes
// inbound steering by port correct.
func TestShardedPortRangesDisjoint(t *testing.T) {
	s := shardedForTest(t, 4)
	per := s.Capacity() / 4
	buf := make([]byte, 2048)
	for i := 0; i < 256; i++ {
		frame := craftUDP(t, buf, testFlowID(i))
		shard := s.ShardOf(frame, true)
		if v := nfkittest.Send(s, frame, true); v != nf.Forward {
			t.Fatalf("flow %d dropped", i)
		}
		var p netstack.Packet
		if err := p.Parse(frame); err != nil {
			t.Fatal(err)
		}
		port := int(p.SrcPort) // translated source = allocated external port
		lo := 1000 + shard*per
		if port < lo || port >= lo+per {
			t.Fatalf("shard %d allocated port %d outside its range [%d,%d)",
				shard, port, lo, lo+per)
		}
	}
}

// TestShardedReturnAffinity: the translated reply tuple steers (by
// port) to the same shard the outbound packet steered to (by hash), so
// the session's state is always on the owning shard — no locks needed.
func TestShardedReturnAffinity(t *testing.T) {
	s := shardedForTest(t, 4)
	buf := make([]byte, 2048)
	reply := make([]byte, 2048)
	for i := 0; i < 256; i++ {
		frame := craftUDP(t, buf, testFlowID(i))
		outShard := s.ShardOf(frame, true)
		if v := nfkittest.Send(s, frame, true); v != nf.Forward {
			t.Fatalf("flow %d dropped", i)
		}
		var p netstack.Packet
		if err := p.Parse(frame); err != nil {
			t.Fatal(err)
		}
		replyFrame := craftUDP(t, reply, p.FlowID().Reverse())
		inShard := s.ShardOf(replyFrame, false)
		if inShard != outShard {
			t.Fatalf("flow %d: outbound steered to shard %d, reply to %d", i, outShard, inShard)
		}
		if v := nfkittest.Send(s, replyFrame, false); v != nf.Forward {
			t.Fatalf("reply %d dropped: session not on the owning shard", i)
		}
	}
	if got := s.Flows(); got != 256 {
		t.Fatalf("%d live flows, want 256", got)
	}
}

// TestShardedSpreads: the flow hash spreads distinct flows across all
// shards (a degenerate steering function would serialize the NF).
func TestShardedSpreads(t *testing.T) {
	s := shardedForTest(t, 4)
	buf := make([]byte, 2048)
	var perShard [4]int
	for i := 0; i < 1024; i++ {
		perShard[s.ShardOf(craftUDP(t, buf, testFlowID(i)), true)]++
	}
	for i, n := range perShard {
		if n < 1024/8 {
			t.Fatalf("shard %d got %d of 1024 flows; steering badly skewed %v", i, n, perShard)
		}
	}
}

// TestShardedOneShardMatchesPlainNAT: with one shard the sharded NAT is
// behaviorally the plain verified NAT.
func TestShardedOneShardMatchesPlainNAT(t *testing.T) {
	cfg := Config{
		Capacity: 128, Timeout: time.Hour,
		ExternalIP: flow.MakeAddr(198, 18, 1, 1), PortBase: 2000, ExternalPort: 1,
	}
	clock := libvig.NewVirtualClock(0)
	plain, err := New(cfg, clock)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSharded(cfg, libvig.NewVirtualClock(0), 1)
	if err != nil {
		t.Fatal(err)
	}
	bufA := make([]byte, 2048)
	bufB := make([]byte, 2048)
	for i := 0; i < 64; i++ {
		id := testFlowID(i % 8) // revisit flows: exercise hit and miss paths
		a := craftUDP(t, bufA, id)
		b := craftUDP(t, bufB, id)
		va := verdictOf(plain.Process(a, true))
		vb := nfkittest.Send(s, b, true)
		if va != vb {
			t.Fatalf("packet %d: plain %v, sharded %v", i, va, vb)
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("packet %d: rewrites diverge at byte %d", i, j)
			}
		}
	}
}

// TestShardedExpiry: Expire drains every shard.
func TestShardedExpiry(t *testing.T) {
	cfg := Config{
		Capacity: 4096, Timeout: time.Second,
		ExternalIP: flow.MakeAddr(198, 18, 1, 1), PortBase: 1000, ExternalPort: 1,
	}
	clock := libvig.NewVirtualClock(0)
	s, err := NewSharded(cfg, clock, 4)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 2048)
	for i := 0; i < 64; i++ {
		if v := nfkittest.Send(s, craftUDP(t, buf, testFlowID(i)), true); v != nf.Forward {
			t.Fatalf("flow %d dropped", i)
		}
	}
	if s.Flows() != 64 {
		t.Fatalf("%d flows, want 64", s.Flows())
	}
	clock.Advance(2 * time.Second.Nanoseconds())
	if n := s.Expire(clock.Now()); n != 64 {
		t.Fatalf("expired %d flows, want 64", n)
	}
	if s.Flows() != 0 {
		t.Fatalf("%d flows left after expiry", s.Flows())
	}
	if st := s.Stats(); st.FlowsExpired != 64 {
		t.Fatalf("stats count %d expired, want 64", st.FlowsExpired)
	}
}

// TestShardOfConcurrent hammers ShardOf from many goroutines over the
// same Sharded instance — the per-worker steering pattern the pipeline
// uses (wire-side RSS plus every worker re-steering its burst). Run
// under -race this pins the "allocation-free and caller-local" fix:
// the old implementation parsed into a shared scratch field.
func TestShardOfConcurrent(t *testing.T) {
	s := shardedForTest(t, 4)
	const nGoroutines = 8
	const nFrames = 64
	frames := make([][]byte, nFrames)
	want := make([]int, nFrames)
	buf := make([]byte, 2048)
	for i := range frames {
		frames[i] = append([]byte(nil), craftUDP(t, buf, testFlowID(i))...)
		want[i] = s.ShardOf(frames[i], true)
	}
	var wg sync.WaitGroup
	errs := make([]error, nGoroutines)
	for g := 0; g < nGoroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 500; iter++ {
				i := (g + iter) % nFrames
				if got := s.ShardOf(frames[i], true); got != want[i] {
					errs[g] = fmt.Errorf("frame %d steered to %d, want %d", i, got, want[i])
					return
				}
				// Inbound steering shares the same parse path.
				s.ShardOf(frames[i], false)
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestShardOfAllocationFree: steering must not allocate — it runs for
// every frame on the wire side and again on the worker side.
func TestShardOfAllocationFree(t *testing.T) {
	s := shardedForTest(t, 4)
	buf := make([]byte, 2048)
	frame := craftUDP(t, buf, testFlowID(1))
	allocs := testing.AllocsPerRun(200, func() {
		s.ShardOf(frame, true)
		s.ShardOf(frame, false)
	})
	if allocs != 0 {
		t.Fatalf("ShardOf allocates %.1f times per call pair", allocs)
	}
}

// TestShardedValidation rejects impossible shapes.
func TestShardedValidation(t *testing.T) {
	cfg := Config{Capacity: 4, Timeout: time.Second,
		ExternalIP: flow.MakeAddr(1, 2, 3, 4), PortBase: 1, ExternalPort: 1}
	if _, err := NewSharded(cfg, libvig.NewVirtualClock(0), 0); err == nil {
		t.Fatal("0 shards accepted")
	}
	if _, err := NewSharded(cfg, libvig.NewVirtualClock(0), 8); err == nil {
		t.Fatal("more shards than capacity accepted")
	}
}

// TestShardedStatsSnapshot pins the per-shard stats surface: the
// published blocks agree with the NATs' own counters once processing
// returns, per shard and in aggregate.
func TestShardedStatsSnapshot(t *testing.T) {
	s := shardedForTest(t, 4)
	buf := make([]byte, 128)
	for i := 0; i < 256; i++ {
		frame := craftUDP(t, buf, testFlowID(i))
		if nfkittest.Send(s, frame, true) != nf.Forward {
			t.Fatal("outbound dropped")
		}
	}
	// A junk frame that every shard would drop.
	junk := make([]byte, 60)
	if nfkittest.Send(s, junk, true) != nf.Drop {
		t.Fatal("junk forwarded")
	}

	agg := s.NFStats()
	if agg.Processed != 257 || agg.Forwarded != 256 || agg.Dropped != 1 {
		t.Fatalf("aggregate snapshot %+v", agg)
	}
	var perShard nf.Stats
	for i := 0; i < s.Shards(); i++ {
		shard := s.ShardScrape(i).Stats
		perShard.Add(shard)
		natStats := s.ShardNAT(i).Stats()
		if shard.Processed != natStats.Processed {
			t.Fatalf("shard %d snapshot processed %d, NAT says %d",
				i, shard.Processed, natStats.Processed)
		}
		if shard.Forwarded != natStats.ForwardedOut+natStats.ForwardedIn {
			t.Fatalf("shard %d snapshot forwarded %d, NAT says %d",
				i, shard.Forwarded, natStats.ForwardedOut+natStats.ForwardedIn)
		}
	}
	if perShard != agg {
		t.Fatalf("per-shard sum %+v != aggregate %+v", perShard, agg)
	}
	if view := s.Stats(); view.Processed != agg.Processed || view.ForwardedOut+view.ForwardedIn != agg.Forwarded {
		t.Fatalf("NAT-level view %+v != aggregate %+v", view, agg)
	}
}

// TestShardedStatsConcurrentScrape is the metrics-endpoint pattern the
// ROADMAP item asks for: one goroutine per shard drives traffic through
// its Shard(i) NF, publishing after every burst as the engine would,
// while a scraper loops NFStats and the NAT-level Stats view. Run under
// -race (CI does) this pins that neither touches shard state
// non-atomically.
func TestShardedStatsConcurrentScrape(t *testing.T) {
	const shards = 4
	const perShard = 2000
	s := shardedForTest(t, shards)

	// Pre-steer: craft frames per shard so each worker goroutine stays
	// on its own shard, as the pipeline's RSS guarantees.
	frames := make([][][]byte, shards)
	buf := make([]byte, 128)
	for i, need := 0, shards; need > 0; i++ {
		frame := craftUDP(t, buf, testFlowID(i))
		sh := s.ShardOf(frame, true)
		if len(frames[sh]) < 64 {
			frames[sh] = append(frames[sh], append([]byte(nil), frame...))
			if len(frames[sh]) == 64 {
				need--
			}
		}
	}

	stop := make(chan struct{})
	scraped := make(chan uint64, 1)
	go func() {
		var last uint64
		for {
			select {
			case <-stop:
				scraped <- last
				return
			default:
				last = s.NFStats().Processed
				_ = s.Stats()
			}
		}
	}()

	var wg sync.WaitGroup
	for sh := 0; sh < shards; sh++ {
		wg.Add(1)
		go func(sh int) {
			defer wg.Done()
			snf := s.Shard(sh)
			pkts := make([]nf.Pkt, 0, 64)
			verd := make([]nf.Verdict, 64)
			scratch := make([][]byte, 64)
			for j := range scratch {
				scratch[j] = make([]byte, 128)
			}
			for done := 0; done < perShard; done += len(pkts) {
				pkts = pkts[:0]
				for j := 0; j < 64 && done+j < perShard; j++ {
					src := frames[sh][j%len(frames[sh])]
					n := copy(scratch[j], src)
					pkts = append(pkts, nf.Pkt{Frame: scratch[j][:n], FromInternal: true})
				}
				snf.ProcessBatch(pkts, verd)
				snf.(nf.Publisher).Publish(nf.FlowCache{})
			}
		}(sh)
	}
	wg.Wait()
	close(stop)
	<-scraped

	if got := s.NFStats().Processed; got != shards*perShard {
		t.Fatalf("processed %d want %d", got, shards*perShard)
	}
}
