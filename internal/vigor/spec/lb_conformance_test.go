// Differential LB spec conformance: the sharded Maglev-style balancer
// is driven on the engine — multi-queue RSS ports, one worker per
// shard, burst processing — with long randomized traces (fresh flows,
// sticky hits, replies, junk, backend add/remove, expiry churn) while
// the executable LB oracle checks every observable action. This is the
// implementation-facing complement of the NAT's RFC 3022 conformance,
// for the repository's second stateful NF.
package spec_test

import (
	"math/rand"
	"testing"
	"time"

	"vignat/internal/flow"
	"vignat/internal/lb"
	"vignat/internal/libvig"
	"vignat/internal/nf"
	"vignat/internal/nf/nfkit/nfkittest"
	"vignat/internal/vigor/spec"
)

const (
	lbVIPPort = 443
	lbTexp    = 500 * time.Millisecond
)

var lbVIP = flow.MakeAddr(198, 18, 10, 10)

// lbClients is a universe of n client tuples from a.b.c.0/24 (spilling
// into the next /24s) to the VIP's port, TCP and UDP alternating.
func lbClients(n int, a, b, c byte) []flow.ID {
	ids := make([]flow.ID, n)
	for i := range ids {
		ids[i] = flow.ID{
			SrcIP: flow.MakeAddr(a, b, c+byte(i/250), byte(1+i%250)), SrcPort: uint16(20000 + i),
			DstIP: lbVIP, DstPort: lbVIPPort, Proto: flow.UDP,
		}
		if i%2 == 0 {
			ids[i].Proto = flow.TCP
		}
	}
	return ids
}

// backends keeps balancers' membership and the oracle's in step.
type backends struct {
	clock libvig.Clock
	lbs   []*lb.Sharded
	o     *spec.LBOracle
	ips   []flow.Addr
	idx   map[flow.Addr]int
	live  map[flow.Addr]bool
}

// backendSet offers n backend addresses from 10.1.0.10 to lbs and o,
// and adds the first live of them.
func backendSet(t *testing.T, clock libvig.Clock, lbs []*lb.Sharded, o *spec.LBOracle, n, live int) *backends {
	b := &backends{clock: clock, lbs: lbs, o: o, idx: map[flow.Addr]int{}, live: map[flow.Addr]bool{}}
	for i := range n {
		b.ips = append(b.ips, flow.MakeAddr(10, 1, 0, byte(10+i)))
	}
	for _, ip := range b.ips[:live] {
		b.add(t, ip)
	}
	return b
}

func (b *backends) add(t *testing.T, ip flow.Addr) {
	t.Helper()
	for _, s := range b.lbs {
		idx, err := s.AddBackend(ip, b.clock.Now())
		if err != nil {
			t.Fatal(err)
		}
		b.idx[ip] = idx
	}
	if err := b.o.AddBackend(ip); err != nil {
		t.Fatal(err)
	}
	b.live[ip] = true
}

func (b *backends) remove(t *testing.T, ip flow.Addr) {
	t.Helper()
	for _, s := range b.lbs {
		if err := s.RemoveBackend(b.idx[ip]); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.o.RemoveBackend(ip); err != nil {
		t.Fatal(err)
	}
	b.live[ip] = false
}

// TestLBConformanceOnPipeline is the acceptance-criterion test: over
// 10k packets through the sharded balancer on four workers, 96 clients
// against 6 of 8 backends, with a backend's membership flipped every 37
// bursts and flows expiring between touches. The balancer's capacity is
// far above the flow universe, so the oracle runs unbounded: a shard
// filling would be a divergence by construction (checked at the end).
func TestLBConformanceOnPipeline(t *testing.T) {
	cacheLegs(t, func(t *testing.T, fastPath int) {
		const shards = 4
		clock := libvig.NewVirtualClock(0)
		balancer, err := lb.NewSharded(lb.Config{VIP: lbVIP, VIPPort: lbVIPPort, Capacity: 4096, Timeout: lbTexp, MaxBackends: 8}, clock, shards)
		if err != nil {
			t.Fatal(err)
		}
		o := spec.NewLBOracle(lbVIP, lbVIPPort, 0, lbTexp.Nanoseconds(), false)
		b := backendSet(t, clock, []*lb.Sharded{balancer}, o, 8, 6)
		r := newRig(t, balancer, clock, nf.Config{Workers: shards, FastPath: fastPath})
		rng := rand.New(rand.NewSource(7))
		tr := nfkittest.Trace{
			Seed: 7, Steps: 1500, Burst: 16, Clients: lbClients(96, 203, 0, 113), Texp: lbTexp, Tick: 8,
			Mix: nfkittest.Mix{Client: 4, Reply: 3, Stray: 1, Junk: 1, ICMP: 1},
		}
		play(t, clock, tr, []*nfkittest.Rig{r}, lbJudge(o), func(step int) {
			// Control-plane churn between bursts, keeping one backend live.
			if step%37 != 36 {
				return
			}
			switch ip := b.ips[rng.Intn(len(b.ips))]; {
			case !b.live[ip]:
				b.add(t, ip)
			case balancer.LiveBackends() > 1:
				b.remove(t, ip)
			}
		})
		if impl, specN := balancer.Flows(), o.Size(); impl != specN {
			t.Fatalf("balancer tracks %d sticky flows, oracle %d", impl, specN)
		}
		for s := range shards {
			if c := balancer.ShardBalancer(s); c.Table().Size() >= c.Config().Capacity {
				t.Fatalf("shard %d filled (%d flows); capacity pressure invalidates the unbounded oracle", s, c.Table().Size())
			}
		}
		st := balancer.Stats()
		if st.Processed < 10000 || st.ToBackend == 0 || st.ToClient == 0 || st.FlowsExpired == 0 || st.Dropped == 0 {
			t.Fatalf("churn too weak to mean anything: %+v", st)
		}
		t.Logf("conformance: %+v", st)
	})
}

// TestLBConformanceAnyPort drives the VIPPort == 0 configuration
// (every destination port on the VIP is balanced, each a distinct
// flow) against the oracle, including replies — the reply key carries
// the per-flow port, so a reconstruction slip shows as a divergence
// here.
func TestLBConformanceAnyPort(t *testing.T) {
	clock := libvig.NewVirtualClock(0)
	balancer, err := lb.NewSharded(lb.Config{VIP: lbVIP, Capacity: 64, Timeout: lbTexp, MaxBackends: 4}, clock, 1)
	if err != nil {
		t.Fatal(err)
	}
	o := spec.NewLBOracle(lbVIP, 0, 64, lbTexp.Nanoseconds(), false)
	backendSet(t, clock, []*lb.Sharded{balancer}, o, 3, 3)
	pool := lbClients(48, 203, 0, 113)
	for i := range pool { // eight clients, each to six ports on the VIP
		pool[i].SrcIP, pool[i].SrcPort, pool[i].DstPort, pool[i].Proto = flow.MakeAddr(203, 0, 113, byte(i%8)), 20000, uint16(1+i/8), flow.UDP
	}
	tr := nfkittest.Trace{Seed: 23, Steps: 3000, Clients: pool, Texp: lbTexp, Tick: 6, Mix: nfkittest.Mix{Client: 2, Reply: 1}}
	play(t, clock, tr, []*nfkittest.Rig{newRig(t, balancer, clock, nf.Config{})}, lbJudge(o), nil)
	if impl, specN := balancer.Flows(), o.Size(); impl != specN {
		t.Fatalf("balancer tracks %d sticky flows, oracle %d", impl, specN)
	}
}

// TestLBConformanceCapacityStrict drives a one-shard balancer with an
// exactly-sized oracle (cap enforced), pinning the
// table-full-drops-fresh-flows clause the pipeline test's unbounded
// oracle cannot see: twice the capacity's worth of client flows keep
// the table under constant pressure, with expiry freeing room.
func TestLBConformanceCapacityStrict(t *testing.T) {
	const capacity = 8
	clock := libvig.NewVirtualClock(0)
	balancer, err := lb.NewSharded(lb.Config{VIP: lbVIP, VIPPort: lbVIPPort, Capacity: capacity, Timeout: lbTexp, MaxBackends: 4}, clock, 1)
	if err != nil {
		t.Fatal(err)
	}
	o := spec.NewLBOracle(lbVIP, lbVIPPort, capacity, lbTexp.Nanoseconds(), false)
	backendSet(t, clock, []*lb.Sharded{balancer}, o, 3, 3)
	tr := nfkittest.Trace{Seed: 11, Steps: 4000, Clients: lbClients(2*capacity, 203, 0, 113), Texp: lbTexp, Tick: 6, Mix: nfkittest.Mix{Client: 1}}
	play(t, clock, tr, []*nfkittest.Rig{newRig(t, balancer, clock, nf.Config{})}, lbJudge(o), nil)
	if impl, specN := balancer.Flows(), o.Size(); impl != specN {
		t.Fatalf("balancer tracks %d sticky flows, oracle %d", impl, specN)
	}
	if balancer.Flows() != capacity {
		t.Fatalf("expected sustained capacity pressure, table holds %d/%d", balancer.Flows(), capacity)
	}
}
