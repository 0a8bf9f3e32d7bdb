// Differential policer spec conformance: the sharded per-subscriber
// token-bucket policer is driven on the real nf.Pipeline — multi-queue
// RSS ports, one worker per shard, burst processing — with long
// randomized packet sequences (steady subscribers, bursty senders,
// over-rate flooders, egress passthrough, junk, and expiry churn) while
// the executable policer oracle checks every observable action. The
// oracle's refill law is exact integer arithmetic, so verdict agreement
// is demanded bit-for-bit with no tolerance window. This is the
// implementation-facing complement of the NAT's RFC 3022 conformance,
// for the repository's fourth stateful NF.
package spec_test

import (
	"encoding/binary"
	"math/rand"
	"testing"
	"time"

	"vignat/internal/dpdk"
	"vignat/internal/flow"
	"vignat/internal/libvig"
	"vignat/internal/netstack"
	"vignat/internal/nf"
	"vignat/internal/nf/nfkit/nfkittest"
	"vignat/internal/policer"
	"vignat/internal/vigor/spec"
)

const (
	polShards = 4
	polRate   = int64(50_000) // bytes/second per subscriber
	polBurst  = int64(2_000)  // bytes of depth
	polTexp   = 500 * time.Millisecond
)

// polCraft tags every crafted frame with a sequence number in the first
// four payload bytes, so drained outputs can be matched to inputs
// regardless of queue interleaving.
func polCraft(buf []byte, id flow.ID, payload int, seq uint32) []byte {
	if payload < 4 {
		payload = 4
	}
	var tag [4]byte
	binary.BigEndian.PutUint32(tag[:], seq)
	s := &netstack.FrameSpec{ID: id, PayloadLen: payload, Payload: tag[:]}
	return netstack.Craft(buf[:netstack.FrameLen(s)], s)
}

// polReadSeq recovers the sequence tag from an output frame. The
// policer rewrites nothing, so the tag sits exactly where it was
// crafted, one L4 header past the IP header.
func polReadSeq(t *testing.T, frame []byte) uint32 {
	t.Helper()
	var p netstack.Packet
	if err := p.Parse(frame); err != nil {
		t.Fatalf("output frame unparseable: %v", err)
	}
	off := netstack.EthHeaderLen + netstack.IPv4MinLen
	switch p.Proto {
	case flow.TCP:
		off += netstack.TCPMinLen
	case flow.UDP:
		off += netstack.UDPHeaderLen
	case flow.ICMP:
		off += netstack.ICMPHeaderLen
	default:
		t.Fatalf("output frame has protocol %v", p.Proto)
	}
	return binary.BigEndian.Uint32(frame[off : off+4])
}

// TestPolicerConformanceOnPipeline is the acceptance-criterion test:
// ≥10k packets through the sharded policer on the multi-queue pipeline,
// including bursty senders, over-rate flooders, and expiry churn, with
// zero policer-oracle divergences — plus the closing long-run budget
// law over the whole trace.
func TestPolicerConformanceOnPipeline(t *testing.T) {
	clock := libvig.NewVirtualClock(0)
	pol, err := policer.NewSharded(policer.Config{
		Rate:     polRate,
		Burst:    polBurst,
		Capacity: 4096, // comfortably above the subscriber universe: per-shard fill is not spec-visible
		Timeout:  polTexp,
	}, clock, polShards)
	if err != nil {
		t.Fatal(err)
	}
	// cap 0: the oracle does not model per-shard fill, and the test is
	// sized so no shard ever fills (checked at the end).
	oracle := spec.NewPolicerOracle(polRate, polBurst, 0, polTexp.Nanoseconds())

	// Multi-queue ports, one queue pair + mempool per worker.
	var pools []*dpdk.Mempool
	mkPort := func(id uint16) *dpdk.Port {
		ps := make([]*dpdk.Mempool, polShards)
		for q := range ps {
			p, err := dpdk.NewMempool(256)
			if err != nil {
				t.Fatal(err)
			}
			ps[q] = p
			pools = append(pools, p)
		}
		port, err := dpdk.NewMultiQueuePort(id, polShards, dpdk.DefaultRxQueue, dpdk.DefaultTxQueue, ps)
		if err != nil {
			t.Fatal(err)
		}
		return port
	}
	intPort, extPort := mkPort(0), mkPort(1)
	pipe, err := nf.NewPipeline(pol, nf.Config{
		Internal: intPort,
		External: extPort,
		Workers:  polShards,
		Clock:    clock,
	})
	if err != nil {
		t.Fatal(err)
	}

	// The subscriber universe: enough that every shard sees steady
	// subscribers, flooders, and expiry, small enough that no shard's
	// table fills.
	subscribers := make([]flow.Addr, 48)
	for i := range subscribers {
		subscribers[i] = flow.MakeAddr(10, 0, byte(1+i/200), byte(10+i))
	}
	remote := flow.MakeAddr(198, 51, 100, 7)
	ingressID := func(sub flow.Addr, i int) flow.ID {
		proto := flow.UDP
		switch i % 3 {
		case 1:
			proto = flow.TCP
		case 2:
			proto = flow.ICMP
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
	rng := rand.New(rand.NewSource(31))
	buf := make([]byte, 2048)
	drain := make([]*dpdk.Mbuf, 64)
	var seq uint32
	total, conformedBytes := 0, int64(0)

	for iter := 0; iter < 1200; iter++ {
		if rng.Intn(29) == 0 {
			// Expiry churn: a quiet spell longer than Texp forgets
			// everyone; re-admissions restart with fresh bursts.
			clock.Advance(libvig.Time(2 * polTexp.Nanoseconds()))
		} else {
			clock.Advance(libvig.Time(rng.Intn(int(polTexp.Nanoseconds() / 8))))
		}

		var internalSide, externalSide []delivery
		deliver := func(d delivery, frame []byte) {
			port := extPort
			if !d.ingress {
				port = intPort
			}
			if !port.DeliverRx(frame, clock.Now()) {
				t.Fatal("RX queue rejected a frame")
			}
			if d.ingress {
				externalSide = append(externalSide, d)
			} else {
				internalSide = append(internalSide, d)
			}
		}
		burst := 5 + rng.Intn(7)
		for p := 0; p < burst; p++ {
			seq++
			si := rng.Intn(len(subscribers))
			sub := subscribers[si]
			switch rng.Intn(10) {
			case 0, 1, 2, 3, 4: // steady ingress: small-to-medium frames
				frame := polCraft(buf, ingressID(sub, si), 4+rng.Intn(200), seq)
				deliver(delivery{sub, len(frame), true, true, seq}, frame)
			case 5, 6: // bursty/over-rate sender: a back-to-back train of large frames
				train := 2 + rng.Intn(5)
				for k := 0; k < train; k++ {
					if k > 0 {
						seq++
					}
					frame := polCraft(buf, ingressID(sub, si), 600+rng.Intn(600), seq)
					deliver(delivery{sub, len(frame), true, true, seq}, frame)
				}
			case 7: // egress: the subscriber uploads, any size, never metered
				frame := polCraft(buf, ingressID(sub, si).Reverse(), rng.Intn(1200), seq)
				deliver(delivery{sub, len(frame), false, true, seq}, frame)
			case 8: // junk: ARP ingress frame — not IPv4, must drop
				junk := make([]byte, 60)
				junk[12], junk[13] = 0x08, 0x06
				deliver(delivery{0, len(junk), true, false, seq}, junk)
			case 9: // junk: truncated runt on the internal side
				deliver(delivery{0, 8, false, false, seq}, make([]byte, 8))
			}
		}

		if _, err := pipe.Poll(); err != nil {
			t.Fatal(err)
		}

		// Drain both ports and index outputs by sequence tag.
		outputs := make(map[uint32]bool, burst) // seq → left on the internal port
		for _, port := range []*dpdk.Port{intPort, extPort} {
			for {
				k := port.DrainTx(drain)
				if k == 0 {
					break
				}
				for i := 0; i < k; i++ {
					outputs[polReadSeq(t, drain[i].Data)] = port == intPort
					if err := drain[i].Pool().Free(drain[i]); err != nil {
						t.Fatal(err)
					}
				}
			}
		}

		// Step the oracle in the engine's processing order: each shard
		// processes its internal-side packets before its external-side
		// ones; egress is stateless, so stepping all egress first is
		// order-equivalent.
		now := clock.Now()
		for _, list := range [][]delivery{internalSide, externalSide} {
			for _, d := range list {
				var got policer.Verdict
				toInternal, forwarded := outputs[d.seq]
				switch {
				case !forwarded:
					got = policer.VerdictDrop
				case toInternal && d.ingress:
					got = policer.VerdictConform
				case !toInternal && !d.ingress:
					got = policer.VerdictPassthrough
				default:
					t.Fatalf("iter %d seq %d left on the wrong port", iter, d.seq)
				}
				if err := oracle.Step(d.client, d.wire, d.ingress, d.policeable, now, got); err != nil {
					t.Fatalf("iter %d seq %d (client %v, %d B, ingress=%v): %v",
						iter, d.seq, d.client, d.wire, d.ingress, err)
				}
				if got == policer.VerdictConform {
					conformedBytes += int64(d.wire)
				}
				total++
			}
		}
	}

	if total < 10000 {
		t.Fatalf("only %d packets driven, acceptance needs ≥10k", total)
	}
	// The oracle and the implementation agree on tracked subscribers.
	if impl, specN := pol.Subscribers(), oracle.Size(); impl != specN {
		t.Fatalf("policer tracks %d subscribers, oracle %d", impl, specN)
	}
	for s := 0; s < polShards; s++ {
		if p := pol.ShardPolicer(s); p.Subscribers() >= p.Config().Capacity {
			t.Fatalf("shard %d filled (%d subscribers); capacity pressure invalidates the unbounded oracle",
				s, p.Subscribers())
		}
	}
	for _, p := range pools {
		if p.InUse() != 0 {
			t.Fatalf("mbuf leak: %d in use", p.InUse())
		}
	}
	st := pol.Stats()
	// The long-run budget law over the whole trace: every conformed byte
	// was paid from a bucket filled at admission (Burst each) or
	// refilled (≤ rate·elapsed per concurrently tracked subscriber).
	elapsed := clock.Now()
	budget := int64(st.BucketsCreated)*polBurst +
		(elapsed/1_000_000_000+1)*polRate*int64(len(subscribers))
	if conformedBytes > budget {
		t.Fatalf("long-run rate violated: %d conformed bytes > budget %d", conformedBytes, budget)
	}
	if st.Conformed == 0 || st.DroppedOverRate == 0 || st.DroppedMalformed == 0 ||
		st.Passthrough == 0 || st.BucketsExpired == 0 {
		t.Fatalf("churn too weak to mean anything: %+v", st)
	}
	if int(st.BucketsCreated-st.BucketsExpired) != pol.Subscribers() {
		t.Fatalf("subscriber accounting mismatch: created %d − expired %d ≠ tracked %d",
			st.BucketsCreated, st.BucketsExpired, pol.Subscribers())
	}
	t.Logf("conformance: %d packets, %d shards, %d conformed bytes: %+v", total, polShards, conformedBytes, st)
}

// policerVerdict reads v, a policer adapter's verdict on the packet it
// just ran, back as the policer's own verdict: the reason cell the
// packet moved tells a conforming forward from a passthrough.
func policerVerdict(t *testing.T, a nf.NF, v nf.Verdict) policer.Verdict {
	t.Helper()
	if v == nf.Drop {
		return policer.VerdictDrop
	}
	switch r := a.(interface{ LastReasonName() string }).LastReasonName(); r {
	case "conform":
		return policer.VerdictConform
	case "passthrough":
		return policer.VerdictPassthrough
	default:
		t.Fatalf("forwarded under reason %q", r)
		return policer.VerdictDrop
	}
}

// TestPolicerOracleClockRegression drives implementation and oracle in
// lockstep through a non-monotonic timestamp sequence: a regression
// must mint tokens on neither side, and — the divergence this pins —
// the oracle's refill clock must hold its high-water mark exactly like
// TokenBucket's, so the regressed interval is never paid out twice
// when time recovers.
func TestPolicerOracleClockRegression(t *testing.T) {
	clock := libvig.NewVirtualClock(0)
	sub := flow.MakeAddr(10, 4, 0, 1)
	id := flow.ID{
		SrcIP: flow.MakeAddr(198, 51, 100, 7), SrcPort: 443,
		DstIP: sub, DstPort: 8080, Proto: flow.UDP,
	}
	buf := make([]byte, 2048)
	frame := polCraft(buf, id, 40, 0)
	L := int64(len(frame))
	p, err := policer.New(policer.Config{
		Rate: 1000, Burst: 2 * L, Capacity: 4, Timeout: time.Hour,
	}, clock)
	if err != nil {
		t.Fatal(err)
	}
	oracle := spec.NewPolicerOracle(1000, 2*L, 4, time.Hour.Nanoseconds())
	a := policer.AsNF(p)
	pkts, verdicts := []nf.Pkt{{Frame: frame}}, make([]nf.Verdict, 1)
	step := func(now libvig.Time) {
		t.Helper()
		a.(nf.FastPather).ProcessBatchAt(pkts, verdicts, now)
		got := policerVerdict(t, a, verdicts[0])
		if err := oracle.Step(sub, int(L), true, true, now, got); err != nil {
			t.Fatalf("t=%d: %v", now, err)
		}
	}
	step(1_000_000_000) // admit: full burst 2L, charge → L left
	step(1_000_000_000) // drain to zero
	step(500_000_000)   // regression: no refill, must drop on both sides
	step(1_000_000_000) // back at the mark: still no elapsed time, must drop
	// 1 ms past the mark at 1000 B/s refills exactly 1 byte — nowhere
	// near a frame; a double-paid regression interval would conform.
	step(1_001_000_000)
	if st := p.Stats(); st.Conformed != 2 || st.DroppedOverRate != 3 {
		t.Fatalf("stats %+v, want 2 conformed / 3 over-rate", st)
	}
}

// TestPolicerConformanceCapacityStrict drives a single unsharded
// policer with an exactly-sized oracle (cap enforced), pinning the
// table-full-drops-fresh-subscribers clause the pipeline test's
// unbounded oracle cannot see.
func TestPolicerConformanceCapacityStrict(t *testing.T) {
	const cap = 8
	clock := libvig.NewVirtualClock(0)
	p, err := policer.New(policer.Config{
		Rate: polRate, Burst: polBurst, Capacity: cap, Timeout: polTexp,
	}, clock)
	if err != nil {
		t.Fatal(err)
	}
	oracle := spec.NewPolicerOracle(polRate, polBurst, cap, polTexp.Nanoseconds())
	rng := rand.New(rand.NewSource(5))
	buf := make([]byte, 2048)
	a := policer.AsNF(p)
	sawFull := false
	for i := 0; i < 4000; i++ {
		clock.Advance(libvig.Time(rng.Intn(int(polTexp.Nanoseconds() / 6))))
		// Twice the capacity's worth of subscribers: constant capacity
		// pressure, with expiry freeing room.
		sub := flow.MakeAddr(10, 9, 0, byte(rng.Intn(2*cap)))
		id := flow.ID{
			SrcIP: flow.MakeAddr(198, 51, 100, 7), SrcPort: 443,
			DstIP: sub, DstPort: 8080, Proto: flow.UDP,
		}
		frame := polCraft(buf, id, 4+rng.Intn(400), uint32(i))
		got := policerVerdict(t, a, nfkittest.Send(a, frame, false))
		if err := oracle.Step(sub, len(frame), true, true, clock.Now(), got); err != nil {
			t.Fatalf("packet %d (client %v): %v", i, sub, err)
		}
		if p.Subscribers() == cap {
			sawFull = true
		}
	}
	if impl, specN := p.Subscribers(), oracle.Size(); impl != specN {
		t.Fatalf("policer tracks %d subscribers, oracle %d", impl, specN)
	}
	if !sawFull || p.Stats().DroppedTableFull == 0 {
		t.Fatalf("no sustained capacity pressure (full=%v, stats %+v)", sawFull, p.Stats())
	}
}
