// Reshard conformance: the randomized differential test of
// conformance_test.go, run through the full pipeline (multi-queue
// ports, RSS steering, flow cache) with two live worker-count changes
// in the middle — 2 → 4 → 3 — while the RFC 3022 oracle keeps
// checking every observable action. The oracle has no idea a reshard
// happened; if the quiesce-copy-switch migration drops a session,
// loses a timestamp, breaks a translation, or mis-steers a direction,
// the very next packets of that session diverge from the spec and the
// test names the violation.
package spec_test

import (
	"math/rand"
	"testing"

	"vignat/internal/dpdk"
	"vignat/internal/flow"
	"vignat/internal/libvig"
	"vignat/internal/nat"
	"vignat/internal/nat/stateless"
	"vignat/internal/netstack"
	"vignat/internal/nf"
	"vignat/internal/vigor/spec"
)

// Capacity divisible by every worker count on the schedule (2, 4, 3),
// and a flow universe small enough that no shard can ever fill: the
// oracle models one global table, so per-shard table-full (a shard
// refusing a flow while global room remains) would be a divergence by
// construction, not a migration bug. 24 flows against 96/4 = 24 slots
// per shard keeps shard-full unreachable.
const (
	reshardCap     = 96
	reshardFlows   = 24
	reshardQueues  = 4 // max worker count on the schedule
	reshardSteps   = 15000
	reshardFirstAt = 5000  // 2 → 4
	reshardNextAt  = 10000 // 4 → 3
)

// reshardRig is the pipeline stand the differential loop drives in
// lock-step: deliver one frame, Poll, drain both ports.
type reshardRig struct {
	t       *testing.T
	n       *nat.Sharded
	pipe    *nf.Pipeline
	intPort *dpdk.Port
	extPort *dpdk.Port
	pools   []*dpdk.Mempool
	drain   []*dpdk.Mbuf
}

func buildReshardRig(t *testing.T, clock libvig.Clock) *reshardRig {
	t.Helper()
	r := &reshardRig{t: t, drain: make([]*dpdk.Mbuf, 64)}
	n, err := nat.NewSharded(nat.Config{
		Capacity: reshardCap, Timeout: confTimeout, ExternalIP: extIP,
		PortBase: confPortBase, InternalPort: 0, ExternalPort: 1,
	}, clock, 2)
	if err != nil {
		t.Fatal(err)
	}
	r.n = n
	mkPort := func(id uint16) *dpdk.Port {
		ps := make([]*dpdk.Mempool, reshardQueues)
		for q := range ps {
			p, err := dpdk.NewMempool(256)
			if err != nil {
				t.Fatal(err)
			}
			ps[q] = p
			r.pools = append(r.pools, p)
		}
		port, err := dpdk.NewMultiQueuePort(id, reshardQueues, dpdk.DefaultRxQueue, dpdk.DefaultTxQueue, ps)
		if err != nil {
			t.Fatal(err)
		}
		return port
	}
	r.intPort, r.extPort = mkPort(0), mkPort(1)
	r.pipe, err = nf.NewPipeline(n, nf.Config{
		Internal: r.intPort, External: r.extPort, Workers: 2, Clock: clock,
		FastPath: 1024, // migration must also survive the flow cache's reseed
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// process runs one frame through the pipeline and reports what came
// out the far side: the wire-level equivalent of a one-packet burst.
func (r *reshardRig) process(frame []byte, fromInternal bool, now libvig.Time) (stateless.Verdict, []byte) {
	r.t.Helper()
	rxPort, txPort, fwd := r.intPort, r.extPort, stateless.VerdictToExternal
	if !fromInternal {
		rxPort, txPort, fwd = r.extPort, r.intPort, stateless.VerdictToInternal
	}
	if !rxPort.DeliverRx(frame, now) {
		r.t.Fatal("RX queue rejected a frame")
	}
	if _, err := r.pipe.Poll(); err != nil {
		r.t.Fatal(err)
	}
	var out []byte
	for _, port := range []*dpdk.Port{r.intPort, r.extPort} {
		for {
			k := port.DrainTx(r.drain)
			if k == 0 {
				break
			}
			for i := 0; i < k; i++ {
				if port != txPort || out != nil {
					r.t.Fatalf("unexpected extra output on port %v", port)
				}
				out = append([]byte(nil), r.drain[i].Data...)
				if err := r.drain[i].Pool().Free(r.drain[i]); err != nil {
					r.t.Fatal(err)
				}
			}
		}
	}
	if out == nil {
		return stateless.VerdictDrop, nil
	}
	return fwd, out
}

// stepWire crafts the packet for id, runs it through the pipeline, and
// reports the observation to the oracle — step() from
// conformance_test.go with the wire in the middle.
func (r *reshardRig) stepWire(o *spec.Oracle, id flow.ID, fromInternal bool, now libvig.Time) error {
	r.t.Helper()
	fs := &netstack.FrameSpec{ID: id, PayloadLen: 4}
	frame := netstack.Craft(make([]byte, netstack.FrameLen(fs)), fs)
	v, out := r.process(frame, fromInternal, now)
	var got spec.Observed
	got.Verdict = v
	if v != stateless.VerdictDrop {
		var p netstack.Packet
		if err := p.Parse(out); err != nil {
			r.t.Fatalf("forwarded frame unparseable: %v", err)
		}
		got.Tuple = p.FlowID()
	}
	natable := id.Proto == flow.TCP || id.Proto == flow.UDP
	return o.Step(id, fromInternal, natable, now, got)
}

// translationWire is currentTranslation over the wire: must follow a
// successful outbound step so the probe only rejuvenates.
func (r *reshardRig) translationWire(id flow.ID, now libvig.Time) (flow.ID, bool) {
	r.t.Helper()
	fs := &netstack.FrameSpec{ID: id, PayloadLen: 4}
	frame := netstack.Craft(make([]byte, netstack.FrameLen(fs)), fs)
	v, out := r.process(frame, true, now)
	if v != stateless.VerdictToExternal {
		return flow.ID{}, false
	}
	var p netstack.Packet
	if err := p.Parse(out); err != nil {
		return flow.ID{}, false
	}
	return p.FlowID(), true
}

// reshardTo changes the worker count mid-run and asserts the move was
// hitless: every live session arrived (none dropped, none lost), with
// the records actually carried counted.
func (r *reshardRig) reshardTo(workers int) {
	r.t.Helper()
	liveBefore := r.n.Flows()
	migratedBefore := r.n.Migrated()
	if err := r.pipe.SetWorkers(workers); err != nil {
		r.t.Fatalf("SetWorkers(%d): %v", workers, err)
	}
	if got := r.pipe.Workers(); got != workers {
		r.t.Fatalf("Workers() = %d after SetWorkers(%d)", got, workers)
	}
	if got := r.n.Shards(); got != workers {
		r.t.Fatalf("Shards() = %d after SetWorkers(%d)", got, workers)
	}
	if dropped := r.n.MigrationDropped(); dropped != 0 {
		r.t.Fatalf("reshard to %d dropped %d state records", workers, dropped)
	}
	if live := r.n.Flows(); live != liveBefore {
		r.t.Fatalf("reshard to %d: %d live sessions before, %d after", workers, liveBefore, live)
	}
	if liveBefore > 0 && r.n.Migrated() == migratedBefore {
		r.t.Fatalf("reshard to %d with %d live sessions migrated no records", workers, liveBefore)
	}
}

// TestReshardConformanceUnderTraffic is the acceptance test of the
// live control plane's worker-count verb: the randomized RFC 3022
// differential loop with a 2 → 4 → 3 reshard schedule in the middle.
func TestReshardConformanceUnderTraffic(t *testing.T) {
	clock := libvig.NewVirtualClock(0)
	r := buildReshardRig(t, clock)
	o := spec.NewOracle(reshardCap, confTimeout.Nanoseconds(), extIP, confPortBase, reshardCap)
	rng := rand.New(rand.NewSource(43))

	intIDs := make([]flow.ID, reshardFlows)
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
	lastExt := map[int]flow.ID{}

	for stepN := 0; stepN < reshardSteps; stepN++ {
		switch stepN {
		case reshardFirstAt:
			r.reshardTo(4)
		case reshardNextAt:
			r.reshardTo(3)
		}
		clock.Advance(libvig.Time(rng.Intn(40_000_000))) // ≤40ms
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4: // outbound packet
			i := rng.Intn(len(intIDs))
			id := intIDs[i]
			if err := r.stepWire(o, id, true, clock.Now()); err != nil {
				t.Fatalf("step %d (outbound %v): %v", stepN, id, err)
			}
			lastExt[i] = id
		case 5, 6, 7: // reply to some previously active flow
			if len(lastExt) == 0 {
				continue
			}
			var i int
			k := rng.Intn(len(lastExt))
			for key := range lastExt {
				if k == 0 {
					i = key
					break
				}
				k--
			}
			id := intIDs[i]
			if err := r.stepWire(o, id, true, clock.Now()); err != nil {
				t.Fatalf("step %d (pre-reply outbound): %v", stepN, err)
			}
			ext, ok := r.translationWire(id, clock.Now())
			if !ok {
				continue
			}
			if err := r.stepWire(o, ext.Reverse(), false, clock.Now()); err != nil {
				t.Fatalf("step %d (reply %v): %v", stepN, ext.Reverse(), err)
			}
		case 8: // unsolicited external junk
			id := flow.ID{
				SrcIP:   flow.MakeAddr(203, 0, 113, byte(rng.Intn(250))),
				SrcPort: uint16(1024 + rng.Intn(60000)),
				DstIP:   extIP,
				DstPort: uint16(confPortBase + rng.Intn(reshardCap+10)),
				Proto:   flow.UDP,
			}
			if err := r.stepWire(o, id, false, clock.Now()); err != nil {
				t.Fatalf("step %d (junk): %v", stepN, err)
			}
		case 9: // non-NATable packet
			id := intIDs[rng.Intn(len(intIDs))]
			id.Proto = flow.ICMP
			if err := r.stepWire(o, id, true, clock.Now()); err != nil {
				t.Fatalf("step %d (icmp): %v", stepN, err)
			}
		}
	}

	// The final composition still satisfies the NAT's own conservation
	// law, and agrees with the oracle on the live population.
	st := r.n.Stats()
	if int(st.FlowsCreated-st.FlowsExpired) != r.n.Flows() {
		t.Fatalf("flow accounting broken across reshards: created %d − expired %d ≠ live %d",
			st.FlowsCreated, st.FlowsExpired, r.n.Flows())
	}
	if r.n.Flows() != o.Size() {
		t.Fatalf("NAT holds %d sessions, oracle %d", r.n.Flows(), o.Size())
	}
	if dropped := r.n.MigrationDropped(); dropped != 0 {
		t.Fatalf("migration dropped %d records", dropped)
	}
	// Every mbuf back in its pool.
	for _, p := range r.pools {
		if p.InUse() != 0 {
			t.Fatalf("mbuf leak: %d in use", p.InUse())
		}
	}
}
