// Fast-path conformance: the established-flow cache must be invisible
// to every observer except the cycle counter. Each test here drives the
// same randomized trace through a cached and an uncached pipeline in
// lock-step and demands bit-identical emissions — and, where the
// executable spec oracles apply, steps the oracle against the cached
// rig's observations directly, so "cache on" is pinned to the paper's
// semantics and not merely to "cache off". Traces deliberately include
// the two invalidation families: expiry churn (quiet spells past Texp)
// and control-plane drains (backend removal mid-run).
package spec_test

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"vignat/internal/dpdk"
	"vignat/internal/firewall"
	"vignat/internal/flow"
	"vignat/internal/lb"
	"vignat/internal/libvig"
	"vignat/internal/nat"
	"vignat/internal/nat/stateless"
	"vignat/internal/netstack"
	"vignat/internal/nf"
	"vignat/internal/policer"
	"vignat/internal/vigor/spec"
)

// fpPipeRig is one single-shard NF-on-pipeline stand, generic over the
// NF behind it.
type fpPipeRig struct {
	pipe    *nf.Pipeline
	pool    *dpdk.Mempool
	intPort *dpdk.Port
	extPort *dpdk.Port
}

func buildFPRig(t *testing.T, n nf.NF, clock libvig.Clock, fastPath int) *fpPipeRig {
	t.Helper()
	pool, err := dpdk.NewMempool(512)
	if err != nil {
		t.Fatal(err)
	}
	intPort, err := dpdk.NewPort(0, dpdk.DefaultRxQueue, dpdk.DefaultTxQueue, pool)
	if err != nil {
		t.Fatal(err)
	}
	extPort, err := dpdk.NewPort(1, dpdk.DefaultRxQueue, dpdk.DefaultTxQueue, pool)
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := nf.NewPipeline(n, nf.Config{
		Internal: intPort, External: extPort, Clock: clock,
		FastPath: fastPath,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &fpPipeRig{pipe: pipe, pool: pool, intPort: intPort, extPort: extPort}
}

// fpDrainOne empties both TX queues after a one-packet poll, returning
// the single output (copied) and which side it left on — or ok=false
// when the packet was dropped.
func (r *fpPipeRig) fpDrainOne(t *testing.T, drain []*dpdk.Mbuf) (frame []byte, toExternal, ok bool) {
	t.Helper()
	for _, port := range []*dpdk.Port{r.intPort, r.extPort} {
		for {
			k := port.DrainTx(drain)
			if k == 0 {
				break
			}
			for i := 0; i < k; i++ {
				if ok {
					t.Fatal("one-packet poll produced two outputs")
				}
				frame, toExternal, ok = append([]byte(nil), drain[i].Data...), port == r.extPort, true
				if err := drain[i].Pool().Free(drain[i]); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return frame, toExternal, ok
}

// fpDrainAll empties both TX queues, returning outputs keyed by their
// sequence tag: which side they left on and their exact bytes.
func (r *fpPipeRig) fpDrainAll(t *testing.T, drain []*dpdk.Mbuf) map[uint32]chainObserved {
	t.Helper()
	out := map[uint32]chainObserved{}
	for _, port := range []*dpdk.Port{r.intPort, r.extPort} {
		for {
			k := port.DrainTx(drain)
			if k == 0 {
				break
			}
			for i := 0; i < k; i++ {
				out[polReadSeq(t, drain[i].Data)] = chainObserved{
					toExternal: port == r.extPort,
					frame:      string(drain[i].Data),
				}
				if err := drain[i].Pool().Free(drain[i]); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return out
}

func fpCompareOutputs(t *testing.T, iter int, on, off map[uint32]chainObserved) {
	t.Helper()
	if len(on) != len(off) {
		t.Fatalf("iter %d: cached rig forwarded %d, uncached %d", iter, len(on), len(off))
	}
	for s, o := range on {
		oo, ok := off[s]
		if !ok {
			t.Fatalf("iter %d seq %d: forwarded cached, dropped uncached", iter, s)
		}
		if o.toExternal != oo.toExternal || o.frame != oo.frame {
			t.Fatalf("iter %d seq %d: outputs diverged\ncached   ext=%v % x\nuncached ext=%v % x",
				iter, s, o.toExternal, o.frame, oo.toExternal, oo.frame)
		}
	}
}

// TestFastPathNATConformanceOracle is the NAT leg of the acceptance
// criterion: a long randomized trace — session creation, steady
// repeats (cache hits), replies, expiry churn, junk — through a cached
// and an uncached VigNAT pipeline, one packet per poll so the RFC 3022
// oracle's per-step expiry matches the engine's. Every packet demands
// (a) byte-identical behavior across rigs and (b) oracle agreement on
// the cached rig's observation.
func TestFastPathNATConformanceOracle(t *testing.T) {
	natCfg := nat.Config{
		Capacity: confCap, Timeout: confTimeout, ExternalIP: extIP,
		PortBase: confPortBase, InternalPort: 0, ExternalPort: 1,
	}
	clock := libvig.NewVirtualClock(0)
	mkNAT := func() *nat.Sharded {
		n, err := nat.NewSharded(natCfg, clock, 1)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	onNAT, offNAT := mkNAT(), mkNAT()
	on := buildFPRig(t, onNAT, clock, 1024)
	off := buildFPRig(t, offNAT, clock, nf.FastPathDisabled)
	if on.pipe.FastPathEntries() == 0 || off.pipe.FastPathEntries() != 0 {
		t.Fatal("rig fast-path resolution wrong")
	}
	oracle := spec.NewOracle(confCap, confTimeout.Nanoseconds(), extIP, confPortBase, confCap)

	intIDs := make([]flow.ID, 48)
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
	rng := rand.New(rand.NewSource(97))
	buf := make([]byte, 2048)
	drain := make([]*dpdk.Mbuf, 8)

	// step sends one packet through both rigs and the oracle.
	step := func(stepN int, id flow.ID, fromInternal bool) (flow.ID, bool) {
		spec2 := &netstack.FrameSpec{ID: id, PayloadLen: 4}
		frame := netstack.Craft(buf[:netstack.FrameLen(spec2)], spec2)
		for _, r := range []*fpPipeRig{on, off} {
			port := r.intPort
			if !fromInternal {
				port = r.extPort
			}
			if !port.DeliverRx(frame, clock.Now()) {
				t.Fatal("rx rejected")
			}
			if _, err := r.pipe.Poll(); err != nil {
				t.Fatal(err)
			}
		}
		onFrame, onExt, onOK := on.fpDrainOne(t, drain)
		offFrame, offExt, offOK := off.fpDrainOne(t, drain)
		if onOK != offOK || (onOK && (onExt != offExt || !bytes.Equal(onFrame, offFrame))) {
			t.Fatalf("step %d (%v fromInternal=%v): rigs diverged", stepN, id, fromInternal)
		}
		var got spec.Observed
		got.Verdict = stateless.VerdictDrop
		var out flow.ID
		if onOK {
			var p netstack.Packet
			if err := p.Parse(onFrame); err != nil {
				t.Fatalf("forwarded frame unparseable: %v", err)
			}
			out = p.FlowID()
			got.Tuple = out
			got.Verdict = stateless.VerdictToInternal
			if onExt {
				got.Verdict = stateless.VerdictToExternal
			}
		}
		natable := id.Proto == flow.TCP || id.Proto == flow.UDP
		if err := oracle.Step(id, fromInternal, natable, clock.Now(), got); err != nil {
			t.Fatalf("step %d (cached rig vs oracle): %v", stepN, err)
		}
		return out, onOK
	}

	for stepN := 0; stepN < 4000; stepN++ {
		if rng.Intn(31) == 0 {
			// Expiry churn: everything ages out, cached entries die.
			clock.Advance(libvig.Time(2 * confTimeout.Nanoseconds()))
		} else {
			clock.Advance(libvig.Time(rng.Intn(40_000_000)))
		}
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4: // outbound (repeats are the hit traffic)
			i := rng.Intn(len(intIDs))
			if out, ok := step(stepN, intIDs[i], true); ok {
				lastExt[i] = out
			}
		case 5, 6, 7: // reply against the last observed translation
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
			step(stepN, lastExt[i].Reverse(), false)
		case 8: // unsolicited external junk
			step(stepN, flow.ID{
				SrcIP:   flow.MakeAddr(203, 0, 113, byte(rng.Intn(250))),
				SrcPort: uint16(1024 + rng.Intn(60000)),
				DstIP:   extIP,
				DstPort: uint16(confPortBase + rng.Intn(confCap+10)),
				Proto:   flow.UDP,
			}, false)
		case 9: // non-NATable
			id := intIDs[rng.Intn(len(intIDs))]
			id.Proto = flow.ICMP
			step(stepN, id, true)
		}
	}

	if a, b := onNAT.Stats(), offNAT.Stats(); a != b {
		t.Fatalf("NAT counters diverged\ncached   %+v\nuncached %+v", a, b)
	}
	ps := on.pipe.Stats()
	if ps.FastPathHits == 0 || ps.FastPathEvictions == 0 {
		t.Fatalf("trace never exercised the cache: %+v", ps)
	}
	if onNAT.Stats().FlowsExpired == 0 {
		t.Fatal("trace never exercised expiry")
	}
	for _, r := range []*fpPipeRig{on, off} {
		if r.pool.InUse() != 0 {
			t.Fatalf("mbuf leak: %d in use", r.pool.InUse())
		}
	}
	t.Logf("NAT fast-path conformance: %+v; nat %+v", ps, onNAT.Stats())
}

// TestFastPathPolicerConformanceOracle is the policer leg: bursty
// ingress against a tight per-subscriber budget, so over-rate clips
// land on cache hits too (a fast-path hit re-runs the real charge —
// rate limiting is never bypassed), plus egress passthrough, junk, and
// expiry churn. Cached and uncached rigs must agree byte for byte, the
// cached rig must agree with the token-bucket oracle, and the final
// policer counters must be identical.
func TestFastPathPolicerConformanceOracle(t *testing.T) {
	const (
		fpPolRate  = int64(2000) // bytes/second: floods clip fast
		fpPolBurst = int64(1600)
		fpPolTexp  = 300 * time.Millisecond
	)
	clock := libvig.NewVirtualClock(0)
	mkPol := func() *policer.Sharded {
		p, err := policer.NewSharded(policer.Config{
			Rate: fpPolRate, Burst: fpPolBurst, Capacity: 1024, Timeout: fpPolTexp,
		}, clock, 1)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	onPol, offPol := mkPol(), mkPol()
	on := buildFPRig(t, onPol, clock, 1024)
	off := buildFPRig(t, offPol, clock, nf.FastPathDisabled)
	oracle := spec.NewPolicerOracle(fpPolRate, fpPolBurst, 0, fpPolTexp.Nanoseconds())

	subscribers := make([]flow.Addr, 24)
	for i := range subscribers {
		subscribers[i] = flow.MakeAddr(10, 0, 1, byte(10+i))
	}
	remote := flow.MakeAddr(198, 51, 100, 7)
	ingressID := func(sub flow.Addr, i int) flow.ID {
		proto := flow.UDP
		if i%2 == 0 {
			proto = flow.TCP
		}
		return flow.ID{
			SrcIP: remote, SrcPort: 443,
			DstIP: sub, DstPort: uint16(50000 + i),
			Proto: proto,
		}
	}

	type delivery struct {
		client     flow.Addr
		wire       int
		ingress    bool
		policeable bool
		seq        uint32
	}
	rng := rand.New(rand.NewSource(53))
	buf := make([]byte, 2048)
	drain := make([]*dpdk.Mbuf, 64)
	var seq uint32
	total := 0

	for iter := 0; iter < 900; iter++ {
		if rng.Intn(29) == 0 {
			clock.Advance(libvig.Time(2 * fpPolTexp.Nanoseconds()))
		} else {
			clock.Advance(libvig.Time(rng.Intn(int(fpPolTexp.Nanoseconds() / 8))))
		}

		var internalSide, externalSide []delivery
		deliver := func(d delivery, frame []byte) {
			for _, r := range []*fpPipeRig{on, off} {
				port := r.extPort
				if !d.ingress {
					port = r.intPort
				}
				if !port.DeliverRx(frame, clock.Now()) {
					t.Fatal("rx rejected")
				}
			}
			if d.ingress {
				externalSide = append(externalSide, d)
			} else {
				internalSide = append(internalSide, d)
			}
		}
		burst := 4 + rng.Intn(6)
		for p := 0; p < burst; p++ {
			seq++
			si := rng.Intn(len(subscribers))
			sub := subscribers[si]
			switch rng.Intn(10) {
			case 0, 1, 2, 3, 4: // steady ingress on a repeating tuple: hit traffic
				frame := polCraft(buf, ingressID(sub, si), 4+rng.Intn(120), seq)
				deliver(delivery{sub, len(frame), true, true, seq}, frame)
			case 5, 6: // flooder train on the SAME tuple: later packets hit the
				// cache and must still clip over-rate
				train := 2 + rng.Intn(4)
				for k := 0; k < train; k++ {
					if k > 0 {
						seq++
					}
					frame := polCraft(buf, ingressID(sub, si), 600+rng.Intn(600), seq)
					deliver(delivery{sub, len(frame), true, true, seq}, frame)
				}
			case 7: // egress passthrough
				frame := polCraft(buf, ingressID(sub, si).Reverse(), rng.Intn(900), seq)
				deliver(delivery{sub, len(frame), false, true, seq}, frame)
			case 8: // ARP junk: not IPv4
				junk := make([]byte, 60)
				junk[12], junk[13] = 0x08, 0x06
				deliver(delivery{0, len(junk), true, false, seq}, junk)
			case 9: // truncated runt
				deliver(delivery{0, 8, false, false, seq}, make([]byte, 8))
			}
		}

		for _, r := range []*fpPipeRig{on, off} {
			if _, err := r.pipe.Poll(); err != nil {
				t.Fatal(err)
			}
		}
		outOn := on.fpDrainAll(t, drain)
		outOff := off.fpDrainAll(t, drain)
		fpCompareOutputs(t, iter, outOn, outOff)

		// Step the oracle with the cached rig's observations, in the
		// engine's order (internal side first; egress is stateless).
		now := clock.Now()
		for _, list := range [][]delivery{internalSide, externalSide} {
			for _, d := range list {
				var got policer.Verdict
				o, forwarded := outOn[d.seq]
				switch {
				case !forwarded:
					got = policer.VerdictDrop
				case !o.toExternal && d.ingress:
					got = policer.VerdictConform
				case o.toExternal && !d.ingress:
					got = policer.VerdictPassthrough
				default:
					t.Fatalf("iter %d seq %d left on the wrong port", iter, d.seq)
				}
				if err := oracle.Step(d.client, d.wire, d.ingress, d.policeable, now, got); err != nil {
					t.Fatalf("iter %d seq %d (cached rig vs oracle): %v", iter, d.seq, err)
				}
				total++
			}
		}
	}

	if a, b := onPol.Stats(), offPol.Stats(); a != b {
		t.Fatalf("policer counters diverged\ncached   %+v\nuncached %+v", a, b)
	}
	ps := on.pipe.Stats()
	st := onPol.Stats()
	if ps.FastPathHits == 0 {
		t.Fatal("trace never hit the cache")
	}
	if st.DroppedOverRate == 0 || st.BucketsExpired == 0 {
		t.Fatalf("trace too gentle: %+v", st)
	}
	t.Logf("policer fast-path conformance: %d packets; %+v; pol %+v", total, ps, st)
}

// TestFastPathPolicerOverRateOnHit pins the non-negotiable property in
// isolation: once a subscriber's flow is cached, an over-budget packet
// of that very flow is a cache HIT that still DROPS — the fast path
// re-charges the real bucket, it never short-circuits the meter.
func TestFastPathPolicerOverRateOnHit(t *testing.T) {
	clock := libvig.NewVirtualClock(0)
	pol, err := policer.NewSharded(policer.Config{
		Rate: 1000, Burst: 2000, Capacity: 64, Timeout: time.Hour,
	}, clock, 1)
	if err != nil {
		t.Fatal(err)
	}
	rig := buildFPRig(t, pol, clock, 256)
	sub := flow.MakeAddr(10, 0, 1, 10)
	id := flow.ID{
		SrcIP: flow.MakeAddr(198, 51, 100, 7), SrcPort: 443,
		DstIP: sub, DstPort: 50000, Proto: flow.UDP,
	}
	buf := make([]byte, 2048)
	drain := make([]*dpdk.Mbuf, 8)
	var seq uint32
	send := func(payload int) (forwarded bool) {
		seq++
		frame := polCraft(buf, id, payload, seq)
		if !rig.extPort.DeliverRx(frame, clock.Now()) {
			t.Fatal("rx rejected")
		}
		if _, err := rig.pipe.Poll(); err != nil {
			t.Fatal(err)
		}
		_, _, ok := rig.fpDrainOne(t, drain)
		return ok
	}

	// Two small packets admit + install; the third is a hit.
	for i := 0; i < 3; i++ {
		if !send(4) {
			t.Fatal("small packet clipped unexpectedly")
		}
	}
	hitsBefore := rig.pipe.Stats().FastPathHits
	if hitsBefore == 0 {
		t.Fatal("flow never entered the cache")
	}
	// Exhaust the bucket with fat packets on the SAME tuple: each is a
	// cache hit; once the budget is gone they must drop.
	var dropped, droppedOnHit int
	for i := 0; i < 8; i++ {
		forwarded := send(1000)
		hits := rig.pipe.Stats().FastPathHits
		if !forwarded {
			dropped++
			if hits > hitsBefore {
				droppedOnHit++
			}
		}
		hitsBefore = hits
	}
	if dropped == 0 {
		t.Fatal("budget never clipped")
	}
	if droppedOnHit == 0 {
		t.Fatal("no over-rate drop landed on a cache hit")
	}
	if st := pol.Stats(); st.DroppedOverRate != uint64(dropped) {
		t.Fatalf("DroppedOverRate=%d, observed %d drops", st.DroppedOverRate, dropped)
	}
}

// TestFastPathLBConformanceDrain is the drain-invalidation leg: VIP
// traffic from a client universe over a cached and an uncached
// balancer pipeline, with backends removed and re-added mid-run and
// expiry spells between. The uncached pipeline is itself pinned to the
// LB oracle by TestLBConformanceOnPipeline; byte-identity here extends
// that pin to the cached rig, and the direct assertions check that the
// drain actually traveled the generation table (unpinned flows, cache
// evictions, no stale rewrite to a dead backend).
func TestFastPathLBConformanceDrain(t *testing.T) {
	const fpLBTexp = 400 * time.Millisecond
	clock := libvig.NewVirtualClock(0)
	lbCfg := lb.Config{
		VIP: lbVIP, VIPPort: lbVIPPort, Capacity: 256,
		Timeout: fpLBTexp, MaxBackends: 8,
		// Passthrough on: client-side non-VIP traffic is forwarded by
		// configuration alone, the one outcome the cache may hold
		// guard-free — this trace exercises that path too.
		Passthrough: true,
	}
	mkLB := func() *lb.Sharded {
		b, err := lb.NewSharded(lbCfg, clock, 1)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	onLB, offLB := mkLB(), mkLB()
	on := buildFPRig(t, onLB, clock, 1024)
	off := buildFPRig(t, offLB, clock, nf.FastPathDisabled)

	backendIPs := make([]flow.Addr, 6)
	backendIdx := map[flow.Addr]int{}
	for i := range backendIPs {
		backendIPs[i] = flow.MakeAddr(10, 1, 0, byte(10+i))
		for _, b := range []*lb.Sharded{onLB, offLB} {
			idx, err := b.AddBackend(backendIPs[i], clock.Now())
			if err != nil {
				t.Fatal(err)
			}
			backendIdx[backendIPs[i]] = idx
		}
	}

	clients := make([]flow.ID, 32)
	for i := range clients {
		proto := flow.UDP
		if i%2 == 0 {
			proto = flow.TCP
		}
		clients[i] = flow.ID{
			SrcIP:   flow.MakeAddr(172, 16, 0, byte(1+i)),
			SrcPort: uint16(40000 + i),
			DstIP:   lbVIP, DstPort: lbVIPPort, Proto: proto,
		}
	}
	// lastToBackend[i] is client i's last observed rewritten tuple, for
	// crafting backend replies (identical across rigs — checked).
	lastToBackend := map[int]flow.ID{}
	rng := rand.New(rand.NewSource(71))
	buf := make([]byte, 2048)
	drain := make([]*dpdk.Mbuf, 64)
	var seq uint32

	for iter := 0; iter < 900; iter++ {
		switch iter {
		case 300, 600:
			// Mid-run drain: remove a backend on both rigs. Every sticky
			// flow pinned to it is erased — cached rewrites must die.
			victim := backendIPs[(iter/300)-1]
			for _, b := range []*lb.Sharded{onLB, offLB} {
				if err := b.RemoveBackend(backendIdx[victim]); err != nil {
					t.Fatal(err)
				}
			}
		case 450:
			// And one comes back (same slot policy as the oracle test).
			for _, b := range []*lb.Sharded{onLB, offLB} {
				idx, err := b.AddBackend(backendIPs[0], clock.Now())
				if err != nil {
					t.Fatal(err)
				}
				backendIdx[backendIPs[0]] = idx
			}
		}
		if rng.Intn(37) == 0 {
			clock.Advance(libvig.Time(2 * fpLBTexp.Nanoseconds()))
		} else {
			clock.Advance(libvig.Time(rng.Intn(int(fpLBTexp.Nanoseconds() / 8))))
		}

		type sent struct {
			client int
			seq    uint32
		}
		var vipSends []sent
		burst := 3 + rng.Intn(5)
		for p := 0; p < burst; p++ {
			seq++
			i := rng.Intn(len(clients))
			switch rng.Intn(5) {
			case 0, 1, 2: // client → VIP (repeats hit the cache)
				frame := polCraft(buf, clients[i], 4, seq)
				for _, r := range []*fpPipeRig{on, off} {
					if !r.extPort.DeliverRx(frame, clock.Now()) {
						t.Fatal("rx rejected")
					}
				}
				vipSends = append(vipSends, sent{i, seq})
			case 3: // backend reply for an established flow
				tb, ok := lastToBackend[i]
				if !ok {
					continue
				}
				frame := polCraft(buf, tb.Reverse(), 4, seq)
				for _, r := range []*fpPipeRig{on, off} {
					if !r.intPort.DeliverRx(frame, clock.Now()) {
						t.Fatal("rx rejected")
					}
				}
			case 4: // client-side junk: not for the VIP, passthrough
				junk := clients[i]
				junk.DstIP = flow.MakeAddr(192, 0, 2, 200)
				frame := polCraft(buf, junk, 4, seq)
				for _, r := range []*fpPipeRig{on, off} {
					if !r.extPort.DeliverRx(frame, clock.Now()) {
						t.Fatal("rx rejected")
					}
				}
			}
		}

		for _, r := range []*fpPipeRig{on, off} {
			if _, err := r.pipe.Poll(); err != nil {
				t.Fatal(err)
			}
		}
		outOn := on.fpDrainAll(t, drain)
		outOff := off.fpDrainAll(t, drain)
		fpCompareOutputs(t, iter, outOn, outOff)

		for _, s := range vipSends {
			if o, ok := outOn[s.seq]; ok && !o.toExternal {
				var p netstack.Packet
				if err := p.Parse([]byte(o.frame)); err != nil {
					t.Fatal(err)
				}
				tb := p.FlowID()
				// No rewrite may ever target a drained backend.
				if live, ok := onLB.Backend(backendIdx[tb.DstIP]); !ok || live != tb.DstIP {
					t.Fatalf("iter %d: rewrite targets dead backend %v", iter, tb.DstIP)
				}
				lastToBackend[s.client] = tb
			}
		}
	}

	if a, b := onLB.Stats(), offLB.Stats(); a != b {
		t.Fatalf("LB counters diverged\ncached   %+v\nuncached %+v", a, b)
	}
	ps := on.pipe.Stats()
	st := onLB.Stats()
	if ps.FastPathHits == 0 || ps.FastPathEvictions == 0 {
		t.Fatalf("trace never exercised the cache: %+v", ps)
	}
	if st.FlowsUnpinned == 0 || st.FlowsExpired == 0 {
		t.Fatalf("trace never exercised drain+expiry: %+v", st)
	}
	t.Logf("LB fast-path conformance: %+v; lb %+v", ps, st)
}

// TestFastPathFirewallConformance is the firewall leg: the membership
// NF whose fast path caches an identity rewrite, where the property
// that matters most is negative — once a session expires, a cached
// inbound verdict MUST miss (the fpGens guard), or the firewall
// forwards unsolicited external traffic forever. The trace mixes
// steady outbound repeats (hit traffic), inbound replies cached in
// their own right, full-table drops (24 flows against 16 sessions),
// unsolicited junk, and expiry spells; cached and uncached rigs must
// stay byte-identical and end on identical counters.
func TestFastPathFirewallConformance(t *testing.T) {
	const (
		fwCap  = 16
		fwTexp = 300 * time.Millisecond
	)
	clock := libvig.NewVirtualClock(0)
	mkFW := func() *firewall.Sharded {
		fw, err := firewall.NewSharded(fwCap, fwTexp, clock, 1)
		if err != nil {
			t.Fatal(err)
		}
		return fw
	}
	onFW, offFW := mkFW(), mkFW()
	on := buildFPRig(t, onFW, clock, 1024)
	off := buildFPRig(t, offFW, clock, nf.FastPathDisabled)
	if on.pipe.FastPathEntries() == 0 || off.pipe.FastPathEntries() != 0 {
		t.Fatal("rig fast-path resolution wrong")
	}

	intIDs := make([]flow.ID, 24) // over capacity: full-table drops occur
	for i := range intIDs {
		proto := flow.UDP
		if i%2 == 0 {
			proto = flow.TCP
		}
		intIDs[i] = flow.ID{
			SrcIP:   flow.MakeAddr(10, 0, 0, byte(1+i)),
			SrcPort: uint16(20000 + i),
			DstIP:   flow.MakeAddr(93, 184, 216, byte(1+i%3)),
			DstPort: uint16(80 + i%2),
			Proto:   proto,
		}
	}
	rigs := []*fpPipeRig{on, off}
	rng := rand.New(rand.NewSource(31))
	buf := make([]byte, 2048)
	drain := make([]*dpdk.Mbuf, 64)
	var seq uint32

	for iter := 0; iter < 900; iter++ {
		if rng.Intn(29) == 0 {
			// Expiry spell: sessions die, cached inbound entries with them.
			clock.Advance(libvig.Time(2 * fwTexp.Nanoseconds()))
		} else {
			clock.Advance(libvig.Time(rng.Intn(int(fwTexp.Nanoseconds() / 8))))
		}
		burst := 3 + rng.Intn(6)
		for p := 0; p < burst; p++ {
			seq++
			i := rng.Intn(len(intIDs))
			id := intIDs[i]
			fromInternal := true
			switch rng.Intn(6) {
			case 0, 1, 2: // outbound; repeats are the hit traffic
			case 3, 4: // reply: forwarded iff the session is live
				id = intIDs[i].Reverse()
				fromInternal = false
			case 5: // unsolicited external probe at an internal host
				id = flow.ID{
					SrcIP:   flow.MakeAddr(203, 0, 113, byte(1+rng.Intn(250))),
					SrcPort: uint16(1024 + rng.Intn(60000)),
					DstIP:   flow.MakeAddr(10, 0, 0, byte(1+rng.Intn(len(intIDs)))),
					DstPort: uint16(20000 + rng.Intn(len(intIDs))),
					Proto:   flow.UDP,
				}
				fromInternal = false
			}
			frame := polCraft(buf, id, 4, seq)
			for _, r := range rigs {
				port := r.intPort
				if !fromInternal {
					port = r.extPort
				}
				if !port.DeliverRx(frame, clock.Now()) {
					t.Fatal("rx rejected")
				}
			}
		}
		for _, r := range rigs {
			if _, err := r.pipe.Poll(); err != nil {
				t.Fatal(err)
			}
		}
		fpCompareOutputs(t, iter, on.fpDrainAll(t, drain), off.fpDrainAll(t, drain))
	}

	onCore, offCore := onFW.ShardFirewall(0), offFW.ShardFirewall(0)
	onProc, onDrop := onCore.Stats()
	offProc, offDrop := offCore.Stats()
	if onProc != offProc || onDrop != offDrop || onCore.Expired() != offCore.Expired() {
		t.Fatalf("firewall counters diverged\ncached   proc=%d drop=%d exp=%d\nuncached proc=%d drop=%d exp=%d",
			onProc, onDrop, onCore.Expired(), offProc, offDrop, offCore.Expired())
	}
	onLive, _ := onFW.Occupancy("sessions")
	if offLive, _ := offFW.Occupancy("sessions"); onLive != offLive {
		t.Fatalf("session counts diverged: cached %d, uncached %d", onLive, offLive)
	}
	ps := on.pipe.Stats()
	if ps.FastPathHits == 0 || ps.FastPathEvictions == 0 {
		t.Fatalf("trace never exercised the cache: %+v", ps)
	}
	if onCore.Expired() == 0 || onDrop == 0 {
		t.Fatalf("trace too gentle: drops=%d expired=%d", onDrop, onCore.Expired())
	}
	for _, r := range rigs {
		if r.pool.InUse() != 0 {
			t.Fatalf("mbuf leak: %d in use", r.pool.InUse())
		}
	}
	t.Logf("firewall fast-path conformance: %+v; fw proc=%d drop=%d expired=%d",
		ps, onProc, onDrop, onCore.Expired())
}

// TestFastPathGatewayChainConformance covers the composite case: the
// firewall→policer→LB→NAT home-gateway chain. An nf.Chain does not
// implement the fast-path contract (one cached verdict cannot carry
// the per-element guards a four-NF walk depends on), so the engine
// must resolve a requested cache down to none — declining is the
// conservative, correct posture — and the trace, including a mid-run
// backend drain and expiry spells, must stay bit-identical with an
// explicitly disabled rig.
func TestFastPathGatewayChainConformance(t *testing.T) {
	onRig := buildChainRig(t, 4096, true)
	offRig := buildChainRig(t, nf.FastPathDisabled, true)
	if onRig.pipe.FastPathEntries() != 0 {
		t.Fatalf("composite chain must decline the cache, resolved %d entries",
			onRig.pipe.FastPathEntries())
	}
	rigs := []*chainRig{onRig, offRig}

	rng := rand.New(rand.NewSource(23))
	buf := make([]byte, 2048)
	drain := make([]*dpdk.Mbuf, 64)
	var seq uint32
	var payload [4]byte
	total := 0

	for iter := 0; iter < 500; iter++ {
		if iter == 250 {
			// Mid-run drain through the chain's balancer.
			for _, r := range rigs {
				if err := r.lb.RemoveBackend(0); err != nil {
					t.Fatal(err)
				}
			}
		}
		if rng.Intn(29) == 0 {
			for _, r := range rigs {
				r.clock.Advance(libvig.Time(2 * chainTimeout.Nanoseconds()))
			}
		} else {
			d := libvig.Time(rng.Intn(int(chainTimeout.Nanoseconds() / 6)))
			for _, r := range rigs {
				r.clock.Advance(d)
			}
		}
		burst := 1 + rng.Intn(5)
		for p := 0; p < burst; p++ {
			seq++
			h := rng.Intn(8)
			var id flow.ID
			fromInternal := true
			if rng.Intn(3) == 0 {
				id = flow.ID{
					SrcIP:   flow.MakeAddr(10, 0, 0, byte(1+h)),
					SrcPort: uint16(30000 + h),
					DstIP:   chainVIP, DstPort: chainDNSPort, Proto: flow.UDP,
				}
			} else {
				id = flow.ID{
					SrcIP:   flow.MakeAddr(10, 0, 0, byte(1+h)),
					SrcPort: uint16(20000 + h),
					DstIP:   flow.MakeAddr(93, 184, 216, byte(1+h%3)),
					DstPort: 80, Proto: flow.UDP,
				}
			}
			for k := range payload {
				payload[k] = 0
			}
			payload[0], payload[1], payload[2], payload[3] = byte(seq>>24), byte(seq>>16), byte(seq>>8), byte(seq)
			s := &netstack.FrameSpec{ID: id, PayloadLen: 4, Payload: payload[:]}
			frame := netstack.Craft(buf[:netstack.FrameLen(s)], s)
			for _, r := range rigs {
				port := r.intPort
				if !fromInternal {
					port = r.extPort
				}
				if !port.DeliverRx(frame, r.clock.Now()) {
					t.Fatal("rx rejected")
				}
			}
			total++
		}
		outOn := onRig.pollAndDrain(t, drain)
		outOff := offRig.pollAndDrain(t, drain)
		if len(outOn) != len(outOff) {
			t.Fatalf("iter %d: cached chain forwarded %d, uncached %d", iter, len(outOn), len(outOff))
		}
		for s, o := range outOn {
			oo, ok := outOff[s]
			if !ok || o.toExternal != oo.toExternal || o.frame != oo.frame {
				t.Fatalf("iter %d seq %d: chain outputs diverged", iter, s)
			}
		}
	}
	if total < 1000 {
		t.Fatalf("only %d packets driven", total)
	}
	if a, b := onRig.nat.Stats(), offRig.nat.Stats(); a != b {
		t.Fatalf("chain NAT counters diverged\ncached   %+v\nuncached %+v", a, b)
	}
	if a, b := onRig.lb.Stats(), offRig.lb.Stats(); a != b {
		t.Fatalf("chain LB counters diverged\ncached   %+v\nuncached %+v", a, b)
	}
	if onRig.pipe.Stats().FastPathHits != 0 {
		t.Fatal("a declined cache must never record hits")
	}
}
