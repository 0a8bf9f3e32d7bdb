// Prefetch purity on the sharded NAT: N rigs run the same randomized
// conformance trace on N pipelines under lock-step virtual clocks;
// every output (port and rewritten tuple) must match bit-for-bit, every
// run must satisfy the RFC 3022 oracle, and the final state and
// counters must agree.
package spec_test

import (
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"vignat/internal/dpdk"
	"vignat/internal/flow"
	"vignat/internal/libvig"
	"vignat/internal/nat"
	"vignat/internal/nat/stateless"
	"vignat/internal/netstack"
	"vignat/internal/nf"
	"vignat/internal/nf/nfkit"
	"vignat/internal/vigor/spec"
)

const (
	amoShards  = 2
	amoCap     = 64
	amoTimeout = 300 * time.Millisecond
)

// amoRig is one configuration's complete test stand.
type amoRig struct {
	name    string
	clock   *libvig.VirtualClock
	decl    nfkit.Decl[*nat.NAT]
	nat     *nfkit.Sharded[*nat.NAT]
	pipe    *nf.Pipeline
	intPort *dpdk.Port
	extPort *dpdk.Port
	pools   []*dpdk.Mempool
	oracle  *spec.Oracle
}

// buildAmoRig builds a sharded NAT on a pipeline, from the NAT's
// declaration as shipped or with its Prefetch hook stripped.
func buildAmoRig(t *testing.T, prefetch bool) *amoRig {
	t.Helper()
	clock := libvig.NewVirtualClock(0)
	decl := nat.Kit(nat.Config{
		Capacity: amoCap, Timeout: amoTimeout, ExternalIP: extIP,
		PortBase: confPortBase, InternalPort: 0, ExternalPort: 1,
	}, clock)
	if decl.Prefetch == nil {
		t.Fatal("the NAT declares no Prefetch hook")
	}
	if !prefetch {
		decl.Prefetch = nil
	}
	n, err := nfkit.NewSharded(decl, amoShards)
	if err != nil {
		t.Fatal(err)
	}
	r := &amoRig{name: rigName(prefetch), clock: clock, decl: decl, nat: n}
	mkPort := func(id uint16) *dpdk.Port {
		ps := make([]*dpdk.Mempool, amoShards)
		for q := range ps {
			p, err := dpdk.NewMempool(256)
			if err != nil {
				t.Fatal(err)
			}
			ps[q] = p
			r.pools = append(r.pools, p)
		}
		port, err := dpdk.NewMultiQueuePort(id, amoShards, dpdk.DefaultRxQueue, dpdk.DefaultTxQueue, ps)
		if err != nil {
			t.Fatal(err)
		}
		return port
	}
	r.intPort, r.extPort = mkPort(0), mkPort(1)
	r.pipe, err = nf.NewPipeline(n, nf.Config{
		Internal: r.intPort,
		External: r.extPort,
		Workers:  amoShards,
		Clock:    clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.oracle = spec.NewOracle(amoCap, amoTimeout.Nanoseconds(), extIP, confPortBase, amoCap)
	return r
}

func rigName(prefetch bool) string {
	if !prefetch {
		return "no prefetch"
	}
	return "prefetch"
}

// sameFinalState demands that two cores of one declaration ended a
// trace in the same state: the same migratable records (every table
// entry with its DChain stamp, in index order) and the same counter
// array (per-reason counts and lifecycle counters — everything every
// stats view is computed from).
func sameFinalState[C any](t *testing.T, what string, d nfkit.Decl[C], a, b C) {
	t.Helper()
	if ra, rb := d.Snapshot(a), d.Snapshot(b); !reflect.DeepEqual(ra, rb) {
		t.Fatalf("%s: final table contents diverged:\n%+v\n%+v", what, ra, rb)
	}
	if ca, cb := d.Counters(a), d.Counters(b); !reflect.DeepEqual(ca, cb) {
		t.Fatalf("%s: counters and reason counts diverged:\n%v\n%v", what, ca, cb)
	}
}

// natTotals sums the shards' NAT counters and live flows.
func (r *amoRig) natTotals() (st nat.Stats, flows int) {
	for _, n := range r.nat.Cores() {
		flows += n.Table().Size()
		one := n.Stats()
		st.Processed += one.Processed
		st.Dropped += one.Dropped
		st.ForwardedOut += one.ForwardedOut
		st.ForwardedIn += one.ForwardedIn
		st.FlowsCreated += one.FlowsCreated
		st.FlowsExpired += one.FlowsExpired
		st.ParseFailures += one.ParseFailures
	}
	return st, flows
}

type amoObserved struct {
	toExternal bool
	tuple      flow.ID
}

// pollAndDrain polls the rig once and indexes its outputs by sequence
// tag.
func (r *amoRig) pollAndDrain(t *testing.T, drain []*dpdk.Mbuf) map[uint32]amoObserved {
	t.Helper()
	if _, err := r.pipe.Poll(); err != nil {
		t.Fatal(err)
	}
	out := map[uint32]amoObserved{}
	for _, port := range []*dpdk.Port{r.intPort, r.extPort} {
		for {
			k := port.DrainTx(drain)
			if k == 0 {
				break
			}
			for i := 0; i < k; i++ {
				var p netstack.Packet
				if err := p.Parse(drain[i].Data); err != nil {
					t.Fatal(err)
				}
				out[lbReadSeq(t, drain[i].Data)] = amoObserved{
					toExternal: port == r.extPort,
					tuple:      p.FlowID(),
				}
				if err := drain[i].Pool().Free(drain[i]); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return out
}

// TestPrefetchObservationallyPureNAT: the burst-wide prefetch stage is
// reads and scratch only. The same randomized trace through the NAT as
// declared and with the hook stripped from its Decl must give
// bit-identical outputs, final table contents, counters and reason
// counts. Bursts are wide here so that each shard's run has packets to
// prefetch for.
func TestPrefetchObservationallyPureNAT(t *testing.T) {
	runAmoTrace(t, []*amoRig{buildAmoRig(t, true), buildAmoRig(t, false)}, 24)
}

// runAmoTrace drives every rig through one randomized conformance trace
// of at most maxBurst packets a poll under lock-step virtual clocks.
// Every rig must match rigs[0] output for output and in its final state,
// and each must satisfy the RFC 3022 oracle on its own.
func runAmoTrace(t *testing.T, rigs []*amoRig, maxBurst int) {
	ref := rigs[0]

	intIDs := make([]flow.ID, 32)
	for i := range intIDs {
		proto := flow.UDP
		if i%2 == 0 {
			proto = flow.TCP
		}
		intIDs[i] = flow.ID{
			SrcIP:   flow.MakeAddr(10, 0, 0, byte(1+i)),
			SrcPort: uint16(20000 + i),
			DstIP:   flow.MakeAddr(93, 184, 216, byte(1+i%5)),
			DstPort: uint16(80 + i%3),
			Proto:   proto,
		}
	}
	// lastExt[i] is flow i's translated tuple as last observed on the
	// reference rig; all rigs must agree on it, so replies crafted
	// against it are valid (or raced by expiry — also checked) on both.
	lastExt := map[int]flow.ID{}

	type delivery struct {
		id           flow.ID
		fromInternal bool
		natable      bool
		seq          uint32
	}
	rng := rand.New(rand.NewSource(97))
	buf := make([]byte, 2048)
	drain := make([]*dpdk.Mbuf, 64)
	var seq uint32
	var payload [4]byte
	total := 0

	for iter := 0; iter < 1500; iter++ {
		if rng.Intn(31) == 0 {
			// Expiry churn: a quiet spell past Texp ages everyone out.
			for _, r := range rigs {
				r.clock.Advance(libvig.Time(2 * amoTimeout.Nanoseconds()))
			}
		} else {
			d := libvig.Time(rng.Intn(int(amoTimeout.Nanoseconds() / 6)))
			for _, r := range rigs {
				r.clock.Advance(d)
			}
		}
		for _, r := range rigs {
			if r.clock.Now() != ref.clock.Now() {
				t.Fatal("virtual clocks diverged")
			}
		}

		// Build one burst of distinct flows (a flow appears at most once
		// per poll, so per-flow ordering is unambiguous; everything else
		// the oracle adopts).
		var deliveries []delivery
		used := map[int]bool{}
		burst := 1 + rng.Intn(maxBurst)
		if iter%97 == 96 {
			burst = 0 // idle poll: only the expiry sweeps run
		}
		for p := 0; p < burst; p++ {
			i := rng.Intn(len(intIDs))
			if used[i] {
				continue
			}
			used[i] = true
			seq++
			d := delivery{seq: seq, natable: true}
			switch rng.Intn(8) {
			case 0, 1, 2, 3: // outbound
				d.id, d.fromInternal = intIDs[i], true
			case 4, 5: // reply against the last observed translation
				ext, ok := lastExt[i]
				if !ok {
					d.id, d.fromInternal = intIDs[i], true
					break
				}
				d.id = ext.Reverse()
			case 6: // unsolicited external junk
				d.id = flow.ID{
					SrcIP:   flow.MakeAddr(203, 0, 113, byte(rng.Intn(250))),
					SrcPort: uint16(1024 + rng.Intn(60000)),
					DstIP:   extIP,
					DstPort: uint16(confPortBase - 5 + rng.Intn(amoCap+15)), // live ports, free ones, and both sides of the range
					Proto:   flow.UDP,
				}
			case 7: // non-NATable
				d.id, d.fromInternal = intIDs[i], true
				d.id.Proto = flow.ICMP
				d.natable = false
			}
			binary.BigEndian.PutUint32(payload[:], d.seq)
			s := &netstack.FrameSpec{ID: d.id, PayloadLen: 4, Payload: payload[:]}
			frame := netstack.Craft(buf[:netstack.FrameLen(s)], s)
			for _, r := range rigs {
				port := r.intPort
				if !d.fromInternal {
					port = r.extPort
				}
				if !port.DeliverRx(frame, r.clock.Now()) {
					t.Fatal("RX queue rejected a frame")
				}
			}
			deliveries = append(deliveries, d)
		}

		outs := make([]map[uint32]amoObserved, len(rigs))
		for ri, r := range rigs {
			outs[ri] = r.pollAndDrain(t, drain)
		}
		outRef := outs[0]

		// Every rig's observable behavior is identical, packet for
		// packet.
		for ri, out := range outs[1:] {
			if len(outRef) != len(out) {
				t.Fatalf("iter %d: %s forwarded %d, %s %d", iter, ref.name, len(outRef), rigs[ri+1].name, len(out))
			}
			for s, o := range outRef {
				if out[s] != o {
					t.Fatalf("iter %d seq %d: %s %+v, %s %+v", iter, s, ref.name, o, rigs[ri+1].name, out[s])
				}
			}
		}

		// Every run must also satisfy RFC 3022 on its own.
		for _, d := range deliveries {
			for ri, r := range rigs {
				obs := spec.Observed{Verdict: stateless.VerdictDrop}
				if o, ok := outs[ri][d.seq]; ok {
					obs.Tuple = o.tuple
					if o.toExternal {
						obs.Verdict = stateless.VerdictToExternal
					} else {
						obs.Verdict = stateless.VerdictToInternal
					}
				}
				if err := r.oracle.Step(d.id, d.fromInternal, d.natable, r.clock.Now(), obs); err != nil {
					t.Fatalf("iter %d seq %d rig %d: %v", iter, d.seq, ri, err)
				}
			}
			if o, ok := outRef[d.seq]; ok && d.fromInternal && d.natable && o.toExternal {
				for i := range intIDs {
					if intIDs[i] == d.id {
						lastExt[i] = o.tuple
					}
				}
			}
			total++
		}
	}

	if total < 4000 {
		t.Fatalf("only %d packets driven", total)
	}
	// Final state and counters agree across rigs, shard by shard.
	sa, flows := ref.natTotals()
	for _, r := range rigs[1:] {
		if sb, fb := r.natTotals(); sa != sb || flows != fb {
			t.Fatalf("NAT totals diverged:\n%s %+v, %d flows\n%s %+v, %d flows", ref.name, sa, flows, r.name, sb, fb)
		}
		for shard, core := range r.nat.Cores() {
			sameFinalState(t, ref.name+" vs "+r.name, r.decl, ref.nat.Core(shard), core)
		}
	}
	if sa.FlowsExpired == 0 || sa.FlowsCreated == 0 {
		t.Fatalf("churn too weak to mean anything: %+v", sa)
	}
	for _, r := range rigs {
		for _, p := range r.pools {
			if p.InUse() != 0 {
				t.Fatalf("mbuf leak: %d in use", p.InUse())
			}
		}
	}
	t.Logf("equivalence: %d packets, stats %+v", total, sa)
}
