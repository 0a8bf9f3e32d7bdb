// Conformance of the kit-derived Sharded composition, table-driven
// over all four stateful NFs: wire-side RSS steering agrees with the
// declared ShardOf (a frame delivered through the port's RSS hash
// lands on — and creates state in — exactly the shard the declaration
// names), both directions of a session steer to the same shard (the
// reply is looked up, not re-admitted), shards are isolated (state
// totals decompose exactly by steering), and the counted stats surface
// aggregates per-shard cells while being scraped concurrently with
// traffic. Run under -race in CI: the workers poll from their own
// goroutines while a scraper hammers the snapshots.
package nfkit_test

import (
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"vignat/internal/dpdk"
	"vignat/internal/firewall"
	"vignat/internal/flow"
	"vignat/internal/lb"
	"vignat/internal/libvig"
	"vignat/internal/nat"
	"vignat/internal/netstack"
	"vignat/internal/nf"
	"vignat/internal/nf/nfkit"
	"vignat/internal/policer"
)

const (
	confShards   = 4
	confSessions = 64
	confTimeout  = time.Minute
)

// shardedNF is what every kit-derived sharded NF exposes (promoted
// from nfkit.Sharded and nf.CountedShards).
type shardedNF interface {
	nf.Sharder
	StatsSnapshot() nf.Stats
	ShardStatsSnapshot(i int) nf.Stats
}

type shardCase struct {
	name string
	// build constructs the 4-shard NF and a per-shard live-state drill.
	build func(t *testing.T, clock libvig.Clock) (shardedNF, func(shard int) int)
	// one constructs a single unsharded core of the same declaration.
	one func(t *testing.T, clock libvig.Clock) declared
	// frame crafts session i's client-side frame.
	frame func(i int) []byte
	// fromInternal is the side the client-side frames enter on.
	fromInternal bool
}

func craft(id flow.ID) []byte {
	s := &netstack.FrameSpec{ID: id}
	return netstack.Craft(make([]byte, netstack.FrameLen(s)), s)
}

var confVIP = flow.MakeAddr(198, 18, 10, 10)

// declared is one core behind its adapter, with the state its
// declaration's codec sees in it.
type declared struct {
	nf   nf.NF
	dump func() ([]nfkit.StateRecord, []uint64)
}

func declare[C any](t *testing.T, d nfkit.Decl[C]) (declared, C) {
	t.Helper()
	core, err := d.New(0, 1, d.Capacity)
	if err != nil {
		t.Fatal(err)
	}
	return declared{nf: d.Adapt(core), dump: func() ([]nfkit.StateRecord, []uint64) {
		return d.Codec.Snapshot(core), d.Codec.Counters(core)
	}}, core
}

func shardCases() []shardCase {
	natCfg := nat.Config{
		Capacity: 4 * confSessions, Timeout: confTimeout,
		ExternalIP: flow.MakeAddr(198, 18, 1, 1), PortBase: 1000,
		InternalPort: 0, ExternalPort: 1,
	}
	lbCfg := lb.Config{
		VIP: confVIP, VIPPort: 443, Capacity: 4 * confSessions,
		Timeout: confTimeout, MaxBackends: 4,
	}
	lbBackend := func(i int) flow.Addr { return flow.MakeAddr(10, 1, 0, byte(10+i)) }
	polCfg := policer.Config{
		Rate: 1 << 20, Burst: 1 << 20, Capacity: 4 * confSessions, Timeout: confTimeout,
	}
	return []shardCase{
		{
			name: "vignat",
			build: func(t *testing.T, clock libvig.Clock) (shardedNF, func(int) int) {
				n, err := nat.NewSharded(natCfg, clock, confShards)
				if err != nil {
					t.Fatal(err)
				}
				return n, func(i int) int { return n.ShardNAT(i).Table().Size() }
			},
			one: func(t *testing.T, clock libvig.Clock) declared {
				d, _ := declare(t, nat.Kit(natCfg, clock))
				return d
			},
			frame: func(i int) []byte {
				return craft(flow.ID{
					SrcIP: flow.MakeAddr(10, 0, byte(i>>8), byte(1+i)), SrcPort: uint16(20000 + i),
					DstIP: flow.MakeAddr(93, 184, 216, 34), DstPort: 80, Proto: flow.UDP,
				})
			},
			fromInternal: true,
		},
		{
			name: "firewall",
			build: func(t *testing.T, clock libvig.Clock) (shardedNF, func(int) int) {
				fw, err := firewall.NewSharded(4*confSessions, confTimeout, clock, confShards)
				if err != nil {
					t.Fatal(err)
				}
				return fw, func(i int) int { return fw.ShardFirewall(i).Sessions() }
			},
			one: func(t *testing.T, clock libvig.Clock) declared {
				d, _ := declare(t, firewall.Kit(4*confSessions, confTimeout, clock))
				return d
			},
			frame: func(i int) []byte {
				return craft(flow.ID{
					SrcIP: flow.MakeAddr(10, 0, byte(i>>8), byte(1+i)), SrcPort: uint16(20000 + i),
					DstIP: flow.MakeAddr(93, 184, 216, 34), DstPort: 80, Proto: flow.TCP,
				})
			},
			fromInternal: true,
		},
		{
			name: "viglb",
			build: func(t *testing.T, clock libvig.Clock) (shardedNF, func(int) int) {
				balancer, err := lb.NewSharded(lbCfg, clock, confShards)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 4; i++ {
					if _, err := balancer.AddBackend(lbBackend(i), clock.Now()); err != nil {
						t.Fatal(err)
					}
				}
				return balancer, func(i int) int { return balancer.ShardBalancer(i).Flows() }
			},
			one: func(t *testing.T, clock libvig.Clock) declared {
				d, b := declare(t, lb.Kit(lbCfg, clock))
				for i := 0; i < 4; i++ {
					if _, err := b.AddBackend(lbBackend(i), clock.Now()); err != nil {
						t.Fatal(err)
					}
				}
				return d
			},
			frame: func(i int) []byte {
				return craft(flow.ID{
					SrcIP: flow.MakeAddr(203, 0, byte(i>>8), byte(1+i)), SrcPort: uint16(20000 + i),
					DstIP: confVIP, DstPort: 443, Proto: flow.UDP,
				})
			},
			fromInternal: false, // clients face the external port
		},
		{
			name: "vigpol",
			build: func(t *testing.T, clock libvig.Clock) (shardedNF, func(int) int) {
				pol, err := policer.NewSharded(polCfg, clock, confShards)
				if err != nil {
					t.Fatal(err)
				}
				return pol, func(i int) int { return pol.ShardPolicer(i).Subscribers() }
			},
			one: func(t *testing.T, clock libvig.Clock) declared {
				d, _ := declare(t, policer.Kit(polCfg, clock))
				return d
			},
			frame: func(i int) []byte {
				return craft(flow.ID{
					SrcIP: flow.MakeAddr(198, 51, 100, 7), SrcPort: 443,
					DstIP: flow.MakeAddr(10, byte(1+i>>8), byte(i), byte(1+i)), DstPort: 8080, Proto: flow.UDP,
				})
			},
			fromInternal: false, // downstream traffic enters upstream-side
		},
	}
}

// confRig is the 4-worker multi-queue pipeline stand.
type confRig struct {
	intPort, extPort *dpdk.Port
	pools            []*dpdk.Mempool
	pipe             *nf.Pipeline
}

func buildConfRig(t *testing.T, s shardedNF, clock libvig.Clock) *confRig {
	t.Helper()
	r := &confRig{}
	mkPort := func(id uint16) *dpdk.Port {
		ps := make([]*dpdk.Mempool, confShards)
		for q := range ps {
			p, err := dpdk.NewMempool(256)
			if err != nil {
				t.Fatal(err)
			}
			ps[q] = p
			r.pools = append(r.pools, p)
		}
		port, err := dpdk.NewMultiQueuePort(id, confShards, dpdk.DefaultRxQueue, dpdk.DefaultTxQueue, ps)
		if err != nil {
			t.Fatal(err)
		}
		return port
	}
	r.intPort, r.extPort = mkPort(0), mkPort(1)
	var err error
	r.pipe, err = nf.NewPipeline(s, nf.Config{
		Internal: r.intPort, External: r.extPort, Workers: confShards, Clock: clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// pollAllWorkers runs every worker from its own goroutine — the
// deployment shape — while the caller may scrape concurrently.
func (r *confRig) pollAllWorkers(t *testing.T) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make([]error, confShards)
	for w := 0; w < confShards; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				if _, err := r.pipe.PollWorker(w); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// drainAll empties a port's TX queues, returning the frames.
func drainAll(t *testing.T, port *dpdk.Port) [][]byte {
	t.Helper()
	drain := make([]*dpdk.Mbuf, 64)
	var out [][]byte
	for {
		k := port.DrainTx(drain)
		if k == 0 {
			break
		}
		for i := 0; i < k; i++ {
			out = append(out, append([]byte(nil), drain[i].Data...))
			if err := drain[i].Pool().Free(drain[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	return out
}

// reverseFrame crafts the return-direction frame of an output frame:
// the reverse tuple, as the far end would answer.
func reverseFrame(t *testing.T, out []byte) []byte {
	t.Helper()
	var p netstack.Packet
	if err := p.Parse(out); err != nil {
		t.Fatal(err)
	}
	return craft(p.FlowID().Reverse())
}

func TestShardedConformanceAllNFs(t *testing.T) {
	for _, tc := range shardCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			clock := libvig.NewVirtualClock(0)
			s, state := tc.build(t, clock)
			rig := buildConfRig(t, s, clock)
			rxPort, txPort := rig.extPort, rig.intPort
			if tc.fromInternal {
				rxPort, txPort = rig.intPort, rig.extPort
			}

			// A concurrent scraper races the workers on the counted
			// stats surface for the whole test (the -race guarantee).
			stop := make(chan struct{})
			var scraper sync.WaitGroup
			scraper.Add(1)
			go func() {
				defer scraper.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					_ = s.StatsSnapshot()
					for i := 0; i < confShards; i++ {
						_ = s.ShardStatsSnapshot(i)
					}
				}
			}()
			defer scraper.Wait()
			defer close(stop)

			// Client-side pass: deliver through the wire's RSS hash (the
			// one the pipeline installed from the NF's own ShardOf).
			frames := make([][]byte, confSessions)
			perShard := make([]int, confShards)
			for i := range frames {
				frames[i] = tc.frame(i)
				shard := s.ShardOf(frames[i], tc.fromInternal)
				if shard < 0 || shard >= confShards {
					t.Fatalf("session %d steers out of range: %d", i, shard)
				}
				perShard[shard]++
				clock.Advance(1000)
				if !rxPort.DeliverRx(frames[i], clock.Now()) {
					t.Fatal("RX queue rejected a frame")
				}
			}
			rig.pollAllWorkers(t)
			outputs := drainAll(t, txPort)
			if len(outputs) != confSessions {
				t.Fatalf("forwarded %d of %d client-side frames", len(outputs), confSessions)
			}

			// Steering agreement + isolation: state decomposes exactly
			// by the declared steering — a frame RSS placed on the wrong
			// worker would have been processed (and admitted) by that
			// worker's first shard instead.
			busy := 0
			total := 0
			for i := 0; i < confShards; i++ {
				if got := state(i); got != perShard[i] {
					t.Fatalf("shard %d holds %d sessions, steering sent it %d", i, got, perShard[i])
				} else if got > 0 {
					busy++
					total += got
				}
			}
			if total != confSessions {
				t.Fatalf("state total %d, want %d", total, confSessions)
			}
			if busy < 2 {
				t.Fatalf("only %d shards busy; steering degenerate", busy)
			}

			// Return-direction pass: the reverse of every output must
			// steer to the same shard (no state may be created) and be
			// recognized there.
			before := make([]int, confShards)
			for i := range before {
				before[i] = state(i)
			}
			replyPerShard := make([]int, confShards)
			for _, out := range outputs {
				reply := reverseFrame(t, out)
				replyPerShard[s.ShardOf(reply, !tc.fromInternal)]++
				clock.Advance(1000)
				if !txPort.DeliverRx(reply, clock.Now()) {
					t.Fatal("RX queue rejected a reply")
				}
			}
			// Both directions of the session population steer alike:
			// the replies must land on the shards in exactly the
			// forward direction's counts (and each reply being
			// *recognized* below pins the per-session agreement — a
			// reply on the wrong shard would miss its state there).
			for i := 0; i < confShards; i++ {
				if replyPerShard[i] != perShard[i] {
					t.Fatalf("shard %d: %d replies steered, %d sessions live there",
						i, replyPerShard[i], perShard[i])
				}
			}
			rig.pollAllWorkers(t)
			replies := drainAll(t, rxPort)
			if len(replies) != confSessions {
				t.Fatalf("forwarded %d of %d replies", len(replies), confSessions)
			}
			for i := 0; i < confShards; i++ {
				if state(i) != before[i] {
					t.Fatalf("shard %d state changed on the return direction: %d → %d (reply missed its session)",
						i, before[i], state(i))
				}
			}

			// Stats aggregation: the snapshot is exactly the sum of the
			// per-shard cells, and counts every processed packet.
			var sum nf.Stats
			for i := 0; i < confShards; i++ {
				sum.Add(s.ShardStatsSnapshot(i))
			}
			snap := s.StatsSnapshot()
			if snap != sum {
				t.Fatalf("aggregate %+v ≠ per-shard sum %+v", snap, sum)
			}
			if snap.Processed != 2*confSessions || snap.Forwarded != 2*confSessions {
				t.Fatalf("snapshot %+v, want processed=forwarded=%d", snap, 2*confSessions)
			}

			// Conservation: every mbuf back in its pool.
			for _, p := range rig.pools {
				if p.InUse() != 0 {
					t.Fatalf("mbuf leak: %d in use", p.InUse())
				}
			}
		})
	}
}

// TestRepeatExpireAtSameNowIsNoOp pins the fact the engine's
// once-per-burst expiry replay rests on (processShardFast runs a
// shard's sweep once for a whole burst): on every stateful NF a second
// Expire at an unchanged now frees nothing and leaves the migratable
// records and the counter vector exactly as the first left them. Half
// the sessions are stale at the sweep and half are not, so the
// comparison is over a table that is neither full nor empty.
func TestRepeatExpireAtSameNowIsNoOp(t *testing.T) {
	for _, tc := range shardCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			clock := libvig.NewVirtualClock(0)
			d := tc.one(t, clock)
			for i := 0; i < confSessions; i++ {
				if i == confSessions/2 {
					clock.Advance(libvig.Time(confTimeout.Nanoseconds() * 2 / 3))
				}
				clock.Advance(1000)
				if v := d.nf.Process(tc.frame(i), tc.fromInternal); v != nf.Forward {
					t.Fatalf("session %d not admitted: %v", i, v)
				}
			}
			clock.Advance(libvig.Time(confTimeout.Nanoseconds() / 2))
			now := clock.Now()

			if freed := d.nf.Expire(now); freed != confSessions/2 {
				t.Fatalf("first sweep freed %d, want the stale half (%d)", freed, confSessions/2)
			}
			recs, counters := d.dump()
			if len(recs) == 0 {
				t.Fatal("nothing survived the sweep; the comparison would be vacuous")
			}
			if freed := d.nf.Expire(now); freed != 0 {
				t.Fatalf("repeat sweep at the same now freed %d", freed)
			}
			recs2, counters2 := d.dump()
			if !reflect.DeepEqual(recs, recs2) {
				t.Fatalf("repeat sweep changed the records:\n%+v\n%+v", recs, recs2)
			}
			if !reflect.DeepEqual(counters, counters2) {
				t.Fatalf("repeat sweep changed the counters:\n%v\n%v", counters, counters2)
			}
		})
	}
}

// TestReshardRefusesMisdeclaredCodec: a codec that places a record on
// shard n of n has no home for it under the new steering, so the whole
// reshard is refused — naming the NF and the record type — and
// copy-then-switch leaves the composition as it was.
func TestReshardRefusesMisdeclaredCodec(t *testing.T) {
	clock := libvig.NewVirtualClock(0)
	d := firewall.Kit(4*confSessions, confTimeout, clock)
	codec := *d.Codec
	codec.Shard = func(_ nfkit.StateRecord, shards int) int { return shards }
	d.Codec = &codec
	s, err := nfkit.NewSharded(d, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < confSessions; i++ {
		clock.Advance(1000)
		frame := craft(flow.ID{
			SrcIP: flow.MakeAddr(10, 0, 0, byte(1+i)), SrcPort: uint16(20000 + i),
			DstIP: flow.MakeAddr(93, 184, 216, 34), DstPort: 80, Proto: flow.TCP,
		})
		if v := s.Process(frame, true); v != nf.Forward {
			t.Fatalf("session %d not admitted: %v", i, v)
		}
	}
	cores := s.Cores()
	sessions := func() (n int) {
		for _, c := range s.Cores() {
			n += c.Sessions()
		}
		return n
	}

	err = s.Reshard(3)
	if err == nil {
		t.Fatal("reshard accepted a record placed on shard 3 of 3")
	}
	if msg := err.Error(); !strings.Contains(msg, "nfkit: "+d.Name+" ") || !strings.Contains(msg, "a firewall.") {
		t.Fatalf("refusal does not name both the NF and the record type: %v", err)
	}
	if s.Shards() != 2 || s.Core(0) != cores[0] || s.Core(1) != cores[1] {
		t.Fatalf("refused reshard changed the composition: %d shards", s.Shards())
	}
	if got := sessions(); got != confSessions {
		t.Fatalf("%d sessions after the refusal, want %d", got, confSessions)
	}
	if s.Migrated() != 0 || s.MigrationDropped() != 0 {
		t.Fatalf("refused reshard moved the books: migrated %d, dropped %d", s.Migrated(), s.MigrationDropped())
	}
}
