// Conformance of the kit-derived Sharded composition, table-driven
// over all four stateful NFs: wire-side RSS steering agrees with the
// declared ShardOf (a frame delivered through the port's RSS hash
// lands on — and creates state in — exactly the shard the declaration
// names), both directions of a session steer to the same shard (the
// reply is looked up, not re-admitted), shards are isolated (state
// totals decompose exactly by steering), and the published stats
// surface aggregates per-shard blocks while being scraped concurrently
// with traffic. Run under -race in CI: the workers poll from their own
// goroutines while a scraper hammers every reader-side surface,
// drill-downs included. A last leg per NF (countedOnce) checks that
// every shard's published block is its core's declared counter array
// plus the engine's flow-cache cells after every poll, and that every
// counting surface — the per-NF Stats view, the scrape, the Prometheus
// text — is the same read of it, with the flow cache on and off and
// across a 2→4→3 reshard that the aggregate never dips over.
package nfkit_test

import (
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"vignat/internal/discard"
	"vignat/internal/dpdk"
	"vignat/internal/fastpath"
	"vignat/internal/firewall"
	"vignat/internal/flow"
	"vignat/internal/lb"
	"vignat/internal/libvig"
	"vignat/internal/nat"
	"vignat/internal/netstack"
	"vignat/internal/nf"
	"vignat/internal/nf/nfkit"
	"vignat/internal/nf/nfkit/nfkittest"
	"vignat/internal/policer"
)

const (
	confShards   = 4
	confSessions = 64
	confTimeout  = time.Minute
)

// shardedNF is what every kit-derived sharded NF exposes (promoted
// from nfkit.Sharded).
type shardedNF interface {
	nf.Sharder
	nf.Scraper
	ShardScrape(i int) nf.Scrape
	Counters() []uint64
}

type shardCase struct {
	name string
	// build constructs the 4-shard NF, a per-shard live-state drill, and
	// the NF's own Stats() drill-down (nil when it has none).
	build func(t *testing.T, clock libvig.Clock) (shardedNF, func(shard int) int, func())
	// one constructs a single unsharded core of the same declaration.
	one func(t *testing.T, clock libvig.Clock) declared
	// frame crafts session i's client-side frame.
	frame func(i int) []byte
	// fromInternal is the side the client-side frames enter on.
	fromInternal bool
	// counted constructs the NF for the counted-once leg: two shards,
	// cntCap state entries in all, tight enough that the trace fills it.
	counted func(t *testing.T, clock libvig.Clock) counted
	// wantReasons are the outcomes the counted-once trace must reach.
	wantReasons []string
}

// counted is one NF under the counted-once leg.
type counted struct {
	s shardedNF
	// vectors copies every shard's full Decl.Counters array.
	vectors func() [][]uint64
	// view collapses the NF's own exported Stats() view onto the four
	// engine-visible fields.
	view func() nf.Stats
}

// cntCap divides by every shard count on the leg's schedule (2, 4, 3).
const cntCap = 12

func vectorsOf[C any](s *nfkit.Sharded[C], d nfkit.Decl[C]) func() [][]uint64 {
	return func() [][]uint64 {
		var out [][]uint64
		for _, core := range s.Cores() {
			out = append(out, append([]uint64(nil), d.Counters(core)...))
		}
		return out
	}
}

func craft(id flow.ID) []byte {
	s := &netstack.FrameSpec{ID: id}
	return netstack.Craft(make([]byte, netstack.FrameLen(s)), s)
}

var confVIP = flow.MakeAddr(198, 18, 10, 10)

// declared is one core behind its adapter, with the state its
// declaration's record families see in it.
type declared struct {
	nf   nf.NF
	dump func() ([]string, []uint64)
}

func declare[C any](t *testing.T, d nfkit.Decl[C]) (declared, C) {
	t.Helper()
	core, err := d.New(0, 1, d.Capacity)
	if err != nil {
		t.Fatal(err)
	}
	return declared{nf: d.Adapt(core), dump: func() ([]string, []uint64) {
		// Counters is the live array; the comparison needs a copy.
		return d.Snapshot(core), append([]uint64(nil), d.Counters(core)...)
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
			build: func(t *testing.T, clock libvig.Clock) (shardedNF, func(int) int, func()) {
				n, err := nat.NewSharded(natCfg, clock, confShards)
				if err != nil {
					t.Fatal(err)
				}
				return n, func(i int) int { return n.ShardNAT(i).Table().Size() }, func() { _ = n.Stats() }
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
			counted: func(t *testing.T, clock libvig.Clock) counted {
				cfg := natCfg
				cfg.Capacity = cntCap
				n, err := nat.NewSharded(cfg, clock, 2)
				if err != nil {
					t.Fatal(err)
				}
				return counted{s: n, vectors: vectorsOf(n.Sharded, nat.Kit(cfg, clock)), view: func() nf.Stats {
					st := n.Stats()
					return nf.Stats{Processed: st.Processed, Forwarded: st.ForwardedOut + st.ForwardedIn,
						Dropped: st.Dropped, Expired: st.FlowsExpired}
				}}
			},
			wantReasons: []string{"fwd_out", "fwd_in", "drop_parse", "drop_table_full", "drop_unsolicited"},
		},
		{
			name: "firewall",
			build: func(t *testing.T, clock libvig.Clock) (shardedNF, func(int) int, func()) {
				fw, err := firewall.NewSharded(4*confSessions, confTimeout, clock, confShards)
				if err != nil {
					t.Fatal(err)
				}
				return fw, func(i int) int { return fw.ShardFirewall(i).Table().Size() }, nil
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
			counted: func(t *testing.T, clock libvig.Clock) counted {
				fw, err := firewall.NewSharded(cntCap, confTimeout, clock, 2)
				if err != nil {
					t.Fatal(err)
				}
				d := firewall.Kit(cntCap, confTimeout, clock)
				return counted{s: fw, vectors: vectorsOf(fw.Sharded, d), view: func() (st nf.Stats) {
					for _, core := range fw.Cores() {
						processed, dropped := core.Stats()
						st.Add(nf.Stats{Processed: processed, Forwarded: processed - dropped,
							Dropped: dropped, Expired: core.Expired()})
					}
					return st
				}}
			},
			wantReasons: []string{"fwd_out", "fwd_in", "drop_parse", "drop_table_full", "drop_unsolicited"},
		},
		{
			name: "viglb",
			build: func(t *testing.T, clock libvig.Clock) (shardedNF, func(int) int, func()) {
				balancer, err := lb.NewSharded(lbCfg, clock, confShards)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 4; i++ {
					if _, err := balancer.AddBackend(lbBackend(i), clock.Now()); err != nil {
						t.Fatal(err)
					}
				}
				return balancer, func(i int) int { return balancer.ShardBalancer(i).Table().Size() }, func() { _ = balancer.Stats() }
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
			counted: func(t *testing.T, clock libvig.Clock) counted {
				cfg := lbCfg
				cfg.Capacity = cntCap
				b, err := lb.NewSharded(cfg, clock, 2)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 4; i++ {
					if _, err := b.AddBackend(lbBackend(i), clock.Now()); err != nil {
						t.Fatal(err)
					}
				}
				return counted{s: b, vectors: vectorsOf(b.Sharded, lb.Kit(cfg, clock)), view: func() nf.Stats {
					st := b.Stats()
					return nf.Stats{Processed: st.Processed, Forwarded: st.ToBackend + st.ToClient + st.Passthrough,
						Dropped: st.Dropped, Expired: st.FlowsExpired}
				}}
			},
			// Standalone (Passthrough off): not-owned traffic drops.
			wantReasons: []string{"fwd_backend", "fwd_client", "drop_no_session", "drop_parse", "drop_table_full"},
		},
		{
			name: "vigpol",
			build: func(t *testing.T, clock libvig.Clock) (shardedNF, func(int) int, func()) {
				pol, err := policer.NewSharded(polCfg, clock, confShards)
				if err != nil {
					t.Fatal(err)
				}
				return pol, func(i int) int { return pol.ShardPolicer(i).Subscribers() }, func() { _ = pol.Stats() }
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
			counted: func(t *testing.T, clock libvig.Clock) counted {
				// Two frames of budget and next to no refill: a
				// subscriber's third packet is over rate.
				cfg := policer.Config{Rate: 1, Burst: 100, Capacity: cntCap, Timeout: confTimeout}
				pol, err := policer.NewSharded(cfg, clock, 2)
				if err != nil {
					t.Fatal(err)
				}
				return counted{s: pol, vectors: vectorsOf(pol.Sharded, policer.Kit(cfg, clock)), view: func() nf.Stats {
					st := pol.Stats()
					return nf.Stats{Processed: st.Processed, Forwarded: st.Conformed + st.Passthrough,
						Dropped: st.Dropped(), Expired: st.BucketsExpired}
				}}
			},
			wantReasons: []string{"passthrough", "conform", "drop_malformed", "drop_table_full", "drop_over_rate"},
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
	return buildConfRigWith(t, s, clock, confShards, 0)
}

// buildConfRigWith is buildConfRig at a given worker count (the ports
// keep confShards queue pairs, the headroom a live reshard grows into)
// and flow-cache setting (nf.Config.FastPath).
func buildConfRigWith(t *testing.T, s shardedNF, clock libvig.Clock, workers, fastPath int) *confRig {
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
		Internal: r.intPort, External: r.extPort, Workers: workers, Clock: clock, FastPath: fastPath,
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
			s, state, drillDown := tc.build(t, clock)
			rig := buildConfRig(t, s, clock)
			rxPort, txPort := rig.extPort, rig.intPort
			if tc.fromInternal {
				rxPort, txPort = rig.intPort, rig.extPort
			}

			// A concurrent scraper races the workers on every
			// reader-side surface, the Counters and per-NF Stats
			// drill-downs included, for the whole test (the -race
			// guarantee).
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
					_, _ = s.NFStats(), s.Counters()
					if drillDown != nil {
						drillDown()
					}
					for i := 0; i < confShards; i++ {
						_ = s.ShardScrape(i)
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
			// per-shard blocks, and counts every processed packet.
			var sum nf.Stats
			for i := 0; i < confShards; i++ {
				sum.Add(s.ShardScrape(i).Stats)
			}
			snap := s.NFStats()
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

			t.Run("counted once", func(t *testing.T) { countedOnce(t, tc) })
		})
	}
}

// cntRig is one side of the counted-once leg: the NF on its pipeline,
// with its metrics endpoint.
type cntRig struct {
	counted
	*confRig
	name    string
	metrics *nf.Metrics
	// last is the aggregate checkSurfaces read last: the summed counter
	// array, then the four flow-cache cells.
	last []uint64
}

// countedOnce is the counted-once leg: one mixed trace — both forward
// directions, a parse failure, table-full refusals, an unsolicited (or
// over-rate) drop, an expiry — through two rigs in lock step, flow
// cache on and off, resharded 2→4→3 with their tables full. After every
// poll the two rigs' full per-shard counter arrays are identical, and
// on each rig every shard's published block is its core's array plus
// the engine's flow-cache cells, every counting surface is the same
// read of the blocks, and no aggregate cell is below its last reading.
func countedOnce(t *testing.T, tc shardCase) {
	clock := libvig.NewVirtualClock(0)
	rigs := make([]*cntRig, 2)
	for i, fastPath := range []int{64, 0} {
		c := tc.counted(t, clock)
		r := &cntRig{counted: c, confRig: buildConfRigWith(t, c.s, clock, 2, fastPath),
			name: fmt.Sprintf("%s-cnt%d", tc.name, i)}
		var err error
		if r.metrics, err = nf.ServeMetrics("127.0.0.1:0", nf.SourceOf(r.name, c.s, nil)); err != nil {
			t.Fatal(err)
		}
		defer r.metrics.Close()
		rigs[i] = r
	}
	on, off := rigs[0], rigs[1]

	check := func(step string) {
		t.Helper()
		if va, vb := on.vectors(), off.vectors(); !reflect.DeepEqual(va, vb) {
			t.Fatalf("%s: counter arrays diverged, cache on vs off:\n%v\n%v", step, va, vb)
		}
		for _, r := range rigs {
			r.checkSurfaces(t, step)
		}
	}
	// burst delivers the frames to both rigs, polls each once, and
	// returns what the cache-off rig forwarded.
	burst := func(step string, fromInternal bool, frames ...[]byte) [][]byte {
		t.Helper()
		clock.Advance(1000)
		var out [][]byte
		for _, r := range rigs {
			rx, tx := r.extPort, r.intPort
			if fromInternal {
				rx, tx = r.intPort, r.extPort
			}
			for _, f := range frames {
				if !rx.DeliverRx(append([]byte(nil), f...), clock.Now()) {
					t.Fatalf("%s: RX queue rejected a frame", step)
				}
			}
			if _, err := r.pipe.Poll(); err != nil {
				t.Fatal(err)
			}
			out = drainAll(t, tx)
		}
		check(step)
		return out
	}

	arp := craft(flow.ID{SrcIP: 1, DstIP: 2, Proto: flow.UDP})
	arp[12], arp[13] = 0x08, 0x06 // not IPv4
	round := func(shards int) {
		step := func(s string) string { return fmt.Sprintf("%d shards, %s", shards, s) }
		base := shards * 100
		sessions := [][]byte{tc.frame(base), tc.frame(base + 1), tc.frame(base + 2), tc.frame(base + 3)}
		// Forward direction, three sightings each: slow path, cache
		// install, cache hit (the stingy policer's third is over rate).
		var outputs [][]byte
		for i := 0; i < 3; i++ {
			if out := burst(step("client side"), tc.fromInternal, sessions...); i == 0 {
				outputs = out
			}
		}
		// Return direction of whatever got through.
		var replies [][]byte
		for _, out := range outputs {
			replies = append(replies, reverseFrame(t, out))
		}
		for i := 0; i < 3 && len(replies) > 0; i++ {
			burst(step("return side"), !tc.fromInternal, replies...)
		}
		// Parse failures: a runt and a non-IPv4 frame.
		burst(step("junk"), tc.fromInternal, arp[:10], arp)
		// More new sessions than the whole NF can hold.
		var flood [][]byte
		for i := 0; i < 2*cntCap; i++ {
			flood = append(flood, tc.frame(base+10+i))
		}
		burst(step("table full"), tc.fromInternal, flood...)
		// Return-side traffic of no session.
		burst(step("unsolicited"), !tc.fromInternal, reverseFrame(t, tc.frame(base+90)))
	}
	for _, shards := range []int{2, 4, 3} {
		if shards != 2 {
			for _, r := range rigs {
				if err := r.pipe.SetWorkers(shards); err != nil {
					t.Fatalf("reshard to %d: %v", shards, err)
				}
			}
			check(fmt.Sprintf("reshard to %d", shards))
		}
		round(shards)
		for _, r := range rigs {
			r.checkProm(t, fmt.Sprintf("%d shards", shards))
		}
	}
	// Expiry: everything idles out under the next packet's sweep.
	clock.Advance(libvig.Time(2 * confTimeout.Nanoseconds()))
	burst("expiry", tc.fromInternal, tc.frame(999))

	snap := on.s.NFStats()
	if snap.FastPathHits == 0 {
		t.Fatal("the cache-on rig never took a cache hit; the on/off comparison would be vacuous")
	}
	if snap.Expired == 0 {
		t.Fatal("nothing expired")
	}
	set, cells := on.s.Scrape().Reasons, on.s.Counters()
	for _, name := range tc.wantReasons {
		if r, ok := set.ByName(name); !ok || cells[r.ID] == 0 {
			t.Fatalf("the trace never reached outcome %q (declared: %v): %v", name, ok, cells)
		}
	}
	for _, r := range rigs {
		for _, p := range r.pools {
			if p.InUse() != 0 {
				t.Fatalf("mbuf leak: %d in use", p.InUse())
			}
		}
	}
}

// checkSurfaces demands that every shard's published block is its
// core's declared counter array, that the blocks' flow-cache cells are
// the engine's own, that every in-process counting surface of the
// rig's NF is a read of the blocks, and that no aggregate cell dipped
// since the last check.
func (r *cntRig) checkSurfaces(t *testing.T, step string) {
	t.Helper()
	scrape := r.s.Scrape()
	set := scrape.Reasons
	sum := make([]uint64, len(scrape.Counters))
	var fc nf.FlowCache
	for i, v := range r.vectors() {
		shard := r.s.ShardScrape(i)
		if !reflect.DeepEqual(shard.Counters, v) {
			t.Fatalf("%s: shard %d published %v, its core counts %v", step, i, shard.Counters, v)
		}
		fc.Add(flowCacheOf(shard.Stats))
		for j, n := range v {
			sum[j] += n
		}
	}
	ps := r.pipe.Stats()
	if want := (nf.FlowCache{ps.FastPathHits, ps.FastPathMisses, ps.FastPathEvictions, ps.FastPathBypassed}); fc != want {
		t.Fatalf("%s: the blocks' flow-cache cells sum to %v, the engine counted %v", step, fc, want)
	}
	if !reflect.DeepEqual(scrape.Counters, sum) || !reflect.DeepEqual(r.s.Counters(), sum) {
		t.Fatalf("%s: Scrape %v / Counters %v, the shards' arrays sum to %v", step, scrape.Counters, r.s.Counters(), sum)
	}
	cells := sum[:set.Len()]
	processed := sumU64(cells)
	snap := scrape.Stats
	if snap.Processed != processed || snap.Dropped != set.SumDrops(cells) || snap.Forwarded != processed-snap.Dropped {
		t.Fatalf("%s: snapshot %+v, reason cells %v (drops %d)", step, snap, cells, set.SumDrops(cells))
	}
	want := nf.Stats{Processed: snap.Processed, Forwarded: snap.Forwarded, Dropped: snap.Dropped, Expired: snap.Expired}
	if view := r.view(); view != want {
		t.Fatalf("%s: Stats() view %+v, published snapshot %+v", step, view, want)
	}
	if got := r.s.NFStats(); got != want.With(fc) {
		t.Fatalf("%s: NFStats %+v, the blocks say %+v", step, got, want.With(fc))
	}
	now := append(sum, fc[:]...)
	for i := range r.last {
		if now[i] < r.last[i] {
			t.Fatalf("%s: aggregate cell %d dipped %d → %d", step, i, r.last[i], now[i])
		}
	}
	r.last = now
}

// flowCacheOf is the flow-cache part of a Stats view, in block order.
func flowCacheOf(s nf.Stats) nf.FlowCache {
	return nf.FlowCache{s.FastPathHits, s.FastPathMisses, s.FastPathEvictions, s.FastPathBypassed}
}

// checkProm demands the same of the Prometheus text: one nf_reason_total
// series per declared reason, valued by its cell and classed by the set,
// under totals that are the cells' sums.
func (r *cntRig) checkProm(t *testing.T, step string) {
	t.Helper()
	req, err := http.NewRequest("GET", "http://"+r.metrics.Addr()+"/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/plain")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	doc := "\n" + string(body)
	set, cells := r.s.Scrape().Reasons, r.s.Counters()
	processed := sumU64(cells[:set.Len()])
	for _, reason := range set.Reasons() {
		class := "forward"
		if reason.Drop {
			class = "drop"
		}
		line := fmt.Sprintf("\nnf_reason_total{nf=%q,reason=%q,class=%q} %d\n", r.name, reason.Name, class, cells[reason.ID])
		if !strings.Contains(doc, line) {
			t.Fatalf("%s: exposition lacks %q", step, line[1:])
		}
	}
	for metric, want := range map[string]uint64{
		"nf_processed_total": processed,
		"nf_dropped_total":   set.SumDrops(cells),
		"nf_forwarded_total": processed - set.SumDrops(cells),
	} {
		if line := fmt.Sprintf("\n%s{nf=%q} %d\n", metric, r.name, want); !strings.Contains(doc, line) {
			t.Fatalf("%s: exposition lacks %q", step, line[1:])
		}
	}
}

// TestDiscardPublishedBlocks is countedOnce's block check for the fifth
// NF, which keeps no state and declares no codec and so sits outside
// shardCases: sharded two ways on the pipeline, after every poll each
// shard's published block is its core's counter array, and the scrape
// is their sum.
func TestDiscardPublishedBlocks(t *testing.T) {
	d := discard.Kit()
	s, err := nfkit.NewSharded(d, 2)
	if err != nil {
		t.Fatal(err)
	}
	rig := buildConfRigWith(t, s, nil, 2, 0)
	for round := 0; round < 4; round++ {
		for i := 0; i < 16; i++ {
			frame := craft(flow.ID{
				SrcIP: flow.MakeAddr(10, 0, byte(round), byte(1+i)), SrcPort: uint16(4000 + i),
				DstIP: flow.MakeAddr(198, 51, 100, 1), DstPort: uint16(9 + 71*(i%2)), Proto: flow.UDP,
			})
			if !rig.intPort.DeliverRx(frame, 0) {
				t.Fatal("RX queue rejected a frame")
			}
		}
		if _, err := rig.pipe.Poll(); err != nil {
			t.Fatal(err)
		}
		drainAll(t, rig.extPort)
		for i, core := range s.Cores() {
			if got, want := s.ShardScrape(i).Counters, d.Counters(core); !reflect.DeepEqual(got, want) || sumU64(want) == 0 {
				t.Fatalf("round %d: shard %d published %v, its core counts %v", round, i, got, want)
			}
		}
		n := uint64(16 * (round + 1))
		if want := (nf.Stats{Processed: n, Forwarded: n / 2, Dropped: n / 2}); s.NFStats() != want {
			t.Fatalf("round %d: scrape %+v, want %+v", round, s.NFStats(), want)
		}
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
				if v := nfkittest.Send(d.nf, tc.frame(i), tc.fromInternal); v != nf.Forward {
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

// TestBatchesAllocateNothing: a burst through each NF's adapter — its
// Prefetch hook, then its generated instance over every packet — and a
// burst through the firewall→policer→balancer→NAT chain, each packet
// parsed once and that parse handed to all four, allocate nothing in
// the steady state. Every burst restores its frames (the NAT and the
// balancer rewrite them) and carries both sides, and every eighth comes
// after a quiet spell past the timeout, so that state is created, found
// and expired.
func TestBatchesAllocateNothing(t *testing.T) {
	const burst = 32
	run := func(t *testing.T, n nf.NF, clock *libvig.VirtualClock, frame func(i int) []byte, fromInternal bool) {
		t.Helper()
		fresh := make([][]byte, burst)
		pkts := make([]nf.Pkt, burst)
		for i := range pkts {
			fresh[i] = frame(i)
			pkts[i] = nf.Pkt{Frame: make([]byte, len(fresh[i])), FromInternal: fromInternal == (i%4 != 3)}
		}
		verdicts := make([]nf.Verdict, burst)
		runs := 0
		allocs := testing.AllocsPerRun(100, func() {
			for i := range pkts {
				copy(pkts[i].Frame, fresh[i])
			}
			if runs++; clock != nil && runs%8 == 0 {
				clock.Advance(libvig.Time(2 * confTimeout.Nanoseconds()))
			} else if clock != nil {
				clock.Advance(1000)
			}
			n.ProcessBatch(pkts, verdicts)
		})
		if allocs != 0 {
			t.Fatalf("%s: a burst allocates %.1f times", n.Name(), allocs)
		}
	}
	for _, tc := range shardCases() {
		t.Run(tc.name, func(t *testing.T) {
			clock := libvig.NewVirtualClock(0)
			run(t, tc.one(t, clock).nf, clock, tc.frame, tc.fromInternal)
		})
	}
	t.Run("discard", func(t *testing.T) {
		run(t, discard.NewFrameNF(), nil, func(i int) []byte {
			return craft(flow.ID{
				SrcIP: flow.MakeAddr(10, 0, 0, byte(1+i)), SrcPort: uint16(4000 + i),
				DstIP: flow.MakeAddr(198, 51, 100, 1), DstPort: uint16(9 + 71*(i%2)), Proto: flow.UDP,
			})
		}, true)
	})
	t.Run("chain", func(t *testing.T) {
		clock := libvig.NewVirtualClock(0)
		c, gw := gatewayChain(t, clock)
		run(t, c, clock, gatewayFrame, true)
		if st := gw.Stats(); st.ForwardedOut == 0 || st.FlowsExpired == 0 {
			t.Fatalf("the chain's bursts never reached the NAT's flow churn: %+v", st)
		}
	})
}

// gatewayChain is the firewall→policer→balancer→NAT chain the
// allocation tests drive, and its NAT.
func gatewayChain(t *testing.T, clock libvig.Clock) (*nf.Chain, *nat.NAT) {
	t.Helper()
	fw, err := firewall.New(4*confSessions, confTimeout, clock)
	if err != nil {
		t.Fatal(err)
	}
	pol, err := policer.New(policer.Config{Rate: 1 << 20, Burst: 1 << 20, Capacity: 4 * confSessions, Timeout: confTimeout}, clock)
	if err != nil {
		t.Fatal(err)
	}
	bal, err := lb.New(lb.Config{
		VIP: confVIP, VIPPort: 443, Capacity: 4 * confSessions, Timeout: confTimeout,
		MaxBackends: 4, ClientsInternal: true, Passthrough: true,
	}, clock)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bal.AddBackend(flow.MakeAddr(10, 1, 0, 10), 0); err != nil {
		t.Fatal(err)
	}
	gw, err := nat.New(nat.Config{
		Capacity: 4 * confSessions, Timeout: confTimeout, ExternalIP: flow.MakeAddr(198, 18, 1, 1),
		PortBase: 1000, InternalPort: 0, ExternalPort: 1,
	}, clock)
	if err != nil {
		t.Fatal(err)
	}
	c, err := nf.NewChain("gateway", firewall.AsNF(fw), policer.AsNF(pol), lb.AsNF(bal), nat.AsNF(gw))
	if err != nil {
		t.Fatal(err)
	}
	return c, gw
}

// gatewayFrame is client i's frame into the gateway: every third one
// for the balancer's VIP, the rest for a host outside.
func gatewayFrame(i int) []byte {
	dst, port := flow.MakeAddr(93, 184, 216, 34), uint16(80)
	if i%3 == 0 {
		dst, port = confVIP, 443
	}
	return craft(flow.ID{
		SrcIP: flow.MakeAddr(10, 0, 0, byte(1+i)), SrcPort: uint16(20000 + i),
		DstIP: dst, DstPort: port, Proto: flow.UDP,
	})
}

// TestPollWorkerAllocatesNothing: the engine's whole poll — RX bursts
// on both ports, steering, the flow cache, the NF's batch, TX batching
// — allocates nothing in the steady state on the in-memory transport.
// Four cases: the sharded NAT with the flow cache on and off, the
// gateway chain, and an idle poll whose expiry sweep frees every flow
// the busy poll before it opened. Every busy poll carries a burst of
// client frames and the replies to the first poll's translations.
func TestPollWorkerAllocatesNothing(t *testing.T) {
	const clients = 32
	natCfg := nat.Config{
		Capacity: 4 * confSessions, Timeout: confTimeout,
		ExternalIP: flow.MakeAddr(198, 18, 1, 1), PortBase: 1000,
		InternalPort: 0, ExternalPort: 1,
	}
	run := func(t *testing.T, n nf.NF, clock *libvig.VirtualClock, fastPath int, sweep bool) nf.PipelineStats {
		t.Helper()
		mkPort := func(id uint16) *dpdk.Port {
			pool, err := dpdk.NewMempool(4 * clients)
			if err != nil {
				t.Fatal(err)
			}
			port, err := dpdk.NewPort(id, dpdk.DefaultRxQueue, dpdk.DefaultTxQueue, pool)
			if err != nil {
				t.Fatal(err)
			}
			return port
		}
		intPort, extPort := mkPort(0), mkPort(1)
		pipe, err := nf.NewPipeline(n, nf.Config{Internal: intPort, External: extPort, Clock: clock, FastPath: fastPath})
		if err != nil {
			t.Fatal(err)
		}
		frames := make([][]byte, clients)
		for i := range frames {
			frames[i] = gatewayFrame(i)
		}
		var replies [][]byte
		drain := make([]*dpdk.Mbuf, 2*clients)
		busy := func(keepReplies bool) {
			clock.Advance(1000)
			for _, f := range frames {
				intPort.DeliverRx(f, clock.Now())
			}
			for _, f := range replies {
				extPort.DeliverRx(f, clock.Now())
			}
			if got, err := pipe.PollWorker(0); err != nil || got != clients+len(replies) {
				t.Fatalf("poll took %d frames (%v), want %d", got, err, clients+len(replies))
			}
			for _, port := range []*dpdk.Port{intPort, extPort} {
				for _, m := range drain[:port.DrainTx(drain)] {
					if keepReplies && port == extPort {
						replies = append(replies, reverseFrame(t, m.Data))
					}
					if err := m.Pool().Free(m); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		busy(true)
		if len(replies) == 0 {
			t.Fatal("the first poll translated nothing")
		}
		allocs := testing.AllocsPerRun(100, func() {
			busy(false)
			if sweep {
				clock.Advance(libvig.Time(2 * confTimeout.Nanoseconds()))
				if got, err := pipe.PollWorker(0); err != nil || got != 0 {
					t.Fatalf("idle poll took %d frames (%v)", got, err)
				}
			}
		})
		if allocs != 0 {
			t.Fatalf("a poll allocates %.1f times", allocs)
		}
		return pipe.Stats()
	}
	shardedNAT := func(t *testing.T, clock libvig.Clock) *nat.Sharded {
		s, err := nat.NewSharded(natCfg, clock, confShards)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	for _, tc := range []struct {
		name     string
		fastPath int
	}{{"nat_cache_on", nf.DefaultFastPathEntries}, {"nat_cache_off", 0}} {
		t.Run(tc.name, func(t *testing.T) {
			clock := libvig.NewVirtualClock(0)
			ps := run(t, shardedNAT(t, clock), clock, tc.fastPath, false)
			if hit := ps.FastPathHits > 0; hit != (tc.fastPath > 0) {
				t.Fatalf("flow cache hits %d with the cache set to %d", ps.FastPathHits, tc.fastPath)
			}
		})
	}
	t.Run("chain", func(t *testing.T) {
		clock := libvig.NewVirtualClock(0)
		c, gw := gatewayChain(t, clock)
		run(t, c, clock, 0, false)
		if st := gw.Stats(); st.ForwardedIn == 0 {
			t.Fatalf("no reply came back through the chain's NAT: %+v", st)
		}
	})
	t.Run("idle_sweep", func(t *testing.T) {
		clock := libvig.NewVirtualClock(0)
		s := shardedNAT(t, clock)
		run(t, s, clock, nf.DefaultFastPathEntries, true)
		if st := s.Stats(); st.FlowsExpired < 100*clients {
			t.Fatalf("the idle sweeps expired %d flows, want every poll's %d", st.FlowsExpired, clients)
		}
	})
}

// TestEachPacketCountedOnce: on every stateful NF, N packets of an
// established session move exactly one cell of the declared counter
// array by exactly N — through the slow path and again through the
// flow-cache hit hook — and no other cell at all: there is no second
// tally for a packet to land in.
func TestEachPacketCountedOnce(t *testing.T) {
	const n = 100
	for _, tc := range shardCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			clock := libvig.NewVirtualClock(0)
			d := tc.one(t, clock)
			frame := tc.frame(0)
			var p netstack.Packet
			if err := p.Parse(frame); err != nil {
				t.Fatal(err)
			}
			key := fastpath.Key{ID: p.FlowID(), FromInternal: tc.fromInternal}
			if v := nfkittest.Send(d.nf, append([]byte(nil), frame...), tc.fromInternal); v != nf.Forward {
				t.Fatalf("session not admitted: %v", v)
			}
			fp := d.nf.(nf.FastPather)
			aux, _, ok := fp.FastOffer(key)
			if !ok {
				t.Fatal("established session not offered to the flow cache")
			}
			moved := -1
			for path, one := range map[string]func(){
				"slow path": func() { nfkittest.Send(d.nf, append([]byte(nil), frame...), tc.fromInternal) },
				"cache hit": func() { fp.FastHit(aux, len(frame), clock.Now()) },
			} {
				_, before := d.dump()
				for i := 0; i < n; i++ {
					one()
				}
				_, after := d.dump()
				for i := range after {
					switch after[i] - before[i] {
					case 0:
					case n:
						if moved >= 0 && moved != i {
							t.Fatalf("%s: cell %d moved, the other path moved cell %d", path, i, moved)
						}
						moved = i
					default:
						t.Fatalf("%s: cell %d moved by %d under %d packets:\n%v\n%v", path, i, after[i]-before[i], n, before, after)
					}
				}
				if got := sumU64(after) - sumU64(before); got != n {
					t.Fatalf("%s: the array's sum rose by %d under %d packets:\n%v\n%v", path, got, n, before, after)
				}
			}
			if st := d.nf.NFStats(); st.Processed != 2*n+1 || st.Forwarded != 2*n+1 {
				t.Fatalf("stats view %+v after %d forwarded packets", st, 2*n+1)
			}
		})
	}
}

func sumU64(vs []uint64) (sum uint64) {
	for _, v := range vs {
		sum += v
	}
	return sum
}

// TestReshardRefusesMismatchedCounters: a Counters closure whose arrays
// differ in length between cores leaves some cell with nowhere to fold
// to. The reshard is refused before anything is built — naming the NF
// and both lengths — not truncated to the shorter array.
func TestReshardRefusesMismatchedCounters(t *testing.T) {
	clock := libvig.NewVirtualClock(0)
	d := firewall.Kit(4*confSessions, confTimeout, clock)
	full := d.Counters
	var short *firewall.Firewall
	d.Counters = func(fw *firewall.Firewall) []uint64 {
		if fw == short {
			return full(fw)[:len(full(fw))-1]
		}
		return full(fw)
	}
	built := 0
	newCore := d.New
	d.New = func(shard, shards, perShard int) (*firewall.Firewall, error) {
		built++
		return newCore(shard, shards, perShard)
	}
	s, err := nfkit.NewSharded(d, 2)
	if err != nil {
		t.Fatal(err)
	}
	short = s.Core(1)
	built = 0
	cores := s.Cores()

	err = s.Reshard(3)
	if err == nil {
		t.Fatal("reshard folded counter arrays of different lengths")
	}
	long := len(full(short))
	for _, want := range []string{"nfkit: " + d.Name + " ", fmt.Sprintf("keeps %d counters", long-1), fmt.Sprintf("keeps %d", long)} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("refusal does not say %q: %v", want, err)
		}
	}
	if built != 0 {
		t.Fatalf("%d cores were built before the refusal", built)
	}
	if s.Shards() != 2 || s.Core(0) != cores[0] || s.Core(1) != cores[1] {
		t.Fatalf("refused reshard changed the composition: %d shards", s.Shards())
	}
}

// misplaced is the record of TestReshardRefusesMisdeclaredCodec's
// family.
type misplaced struct{}

// TestReshardRefusesMisdeclaredCodec: a family that places a record on
// shard n of n has no home for it under the new steering, so the whole
// reshard is refused — naming the NF and the record type — and
// copy-then-switch leaves the composition as it was.
func TestReshardRefusesMisdeclaredCodec(t *testing.T) {
	clock := libvig.NewVirtualClock(0)
	d := firewall.Kit(4*confSessions, confTimeout, clock)
	d.Families = append(d.Families[:len(d.Families):len(d.Families)],
		nfkit.Records[*firewall.Firewall, misplaced]{
			Name:    "misplaced",
			Each:    func(_ *firewall.Firewall, emit func(misplaced, libvig.Time)) { emit(misplaced{}, 0) },
			Restore: func(*firewall.Firewall, misplaced, libvig.Time) error { return nil },
			ShardOf: func(_ *misplaced, shards int) int { return shards },
		})
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
		if v := nfkittest.Send(s, frame, true); v != nf.Forward {
			t.Fatalf("session %d not admitted: %v", i, v)
		}
	}
	cores := s.Cores()
	sessions := func() (n int) {
		for _, c := range s.Cores() {
			n += c.Table().Size()
		}
		return n
	}

	err = s.Reshard(3)
	if err == nil {
		t.Fatal("reshard accepted a record placed on shard 3 of 3")
	}
	if msg := err.Error(); !strings.Contains(msg, "nfkit: "+d.Name+" ") || !strings.Contains(msg, "a nfkit_test.misplaced record") {
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
