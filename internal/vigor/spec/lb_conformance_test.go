// Differential LB spec conformance: the sharded Maglev-style balancer
// is driven on the real nf.Pipeline — multi-queue RSS ports, one worker
// per shard, burst processing — with long randomized packet sequences
// (fresh flows, sticky hits, replies, junk, backend add/remove,
// expiry churn) while the executable LB oracle checks every observable
// action. This is the implementation-facing complement of the NAT's
// RFC 3022 conformance, for the repository's second stateful NF.
package spec_test

import (
	"encoding/binary"
	"math/rand"
	"testing"
	"time"

	"vignat/internal/dpdk"
	"vignat/internal/flow"
	"vignat/internal/lb"
	"vignat/internal/libvig"
	"vignat/internal/netstack"
	"vignat/internal/nf"
	"vignat/internal/nf/nfkit/nfkittest"
	"vignat/internal/vigor/spec"
)

const (
	lbShards  = 4
	lbVIPPort = 443
	lbTexp    = 500 * time.Millisecond
)

var lbVIP = flow.MakeAddr(198, 18, 10, 10)

// lbSeqPayload tags every crafted frame with a sequence number in the
// first four payload bytes, so drained outputs can be matched to inputs
// regardless of queue interleaving.
func lbCraft(buf []byte, id flow.ID, seq uint32) []byte {
	var payload [4]byte
	binary.BigEndian.PutUint32(payload[:], seq)
	s := &netstack.FrameSpec{ID: id, PayloadLen: 4, Payload: payload[:]}
	return netstack.Craft(buf[:netstack.FrameLen(s)], s)
}

// lbReadSeq recovers the sequence tag from a (possibly rewritten)
// frame. Rewrites touch only addresses, never the payload.
func lbReadSeq(t *testing.T, frame []byte) uint32 {
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
	default:
		t.Fatalf("output frame has protocol %v", p.Proto)
	}
	return binary.BigEndian.Uint32(frame[off : off+4])
}

// TestLBConformanceOnPipeline is the acceptance-criterion test: ≥10k
// packets through the ShardedBalancer on the multi-queue pipeline,
// including backend add/remove and expiry churn, with zero LB-oracle
// divergences.
func TestLBConformanceOnPipeline(t *testing.T) {
	clock := libvig.NewVirtualClock(0)
	balancer, err := lb.NewSharded(lb.Config{
		VIP:         lbVIP,
		VIPPort:     lbVIPPort,
		Capacity:    4096, // comfortably above the flow universe: per-shard fill is not spec-visible
		Timeout:     lbTexp,
		MaxBackends: 8,
	}, clock, lbShards)
	if err != nil {
		t.Fatal(err)
	}
	// cap 0: the oracle does not model per-shard fill, and the test is
	// sized so no shard ever fills (checked at the end).
	oracle := spec.NewLBOracle(lbVIP, lbVIPPort, 0, lbTexp.Nanoseconds(), false)

	// Backend pool: 8 addresses cycling through live/removed.
	backendIPs := make([]flow.Addr, 8)
	backendIdx := make(map[flow.Addr]int)
	live := make(map[flow.Addr]bool)
	for i := range backendIPs {
		backendIPs[i] = flow.MakeAddr(10, 1, 0, byte(10+i))
	}
	addBackend := func(ip flow.Addr) {
		idx, err := balancer.AddBackend(ip, clock.Now())
		if err != nil {
			t.Fatal(err)
		}
		backendIdx[ip] = idx
		if err := oracle.AddBackend(ip); err != nil {
			t.Fatal(err)
		}
		live[ip] = true
	}
	removeBackend := func(ip flow.Addr) {
		if err := balancer.RemoveBackend(backendIdx[ip]); err != nil {
			t.Fatal(err)
		}
		if err := oracle.RemoveBackend(ip); err != nil {
			t.Fatal(err)
		}
		live[ip] = false
	}
	for _, ip := range backendIPs[:6] {
		addBackend(ip)
	}

	// Multi-queue ports, one queue pair + mempool per worker.
	var pools []*dpdk.Mempool
	mkPort := func(id uint16) *dpdk.Port {
		ps := make([]*dpdk.Mempool, lbShards)
		for q := range ps {
			p, err := dpdk.NewMempool(256)
			if err != nil {
				t.Fatal(err)
			}
			ps[q] = p
			pools = append(pools, p)
		}
		port, err := dpdk.NewMultiQueuePort(id, lbShards, dpdk.DefaultRxQueue, dpdk.DefaultTxQueue, ps)
		if err != nil {
			t.Fatal(err)
		}
		return port
	}
	intPort, extPort := mkPort(0), mkPort(1)
	pipe, err := nf.NewPipeline(balancer, nf.Config{
		Internal: intPort,
		External: extPort,
		Workers:  lbShards,
		Clock:    clock,
	})
	if err != nil {
		t.Fatal(err)
	}

	// The flow universe: enough clients that stickiness, expiry, and
	// remapping all occur, small enough that no shard's table fills.
	clients := make([]flow.ID, 96)
	for i := range clients {
		proto := flow.UDP
		if i%2 == 0 {
			proto = flow.TCP
		}
		clients[i] = flow.ID{
			SrcIP:   flow.MakeAddr(203, 0, byte(113+i/200), byte(i)),
			SrcPort: uint16(20000 + i),
			DstIP:   lbVIP,
			DstPort: lbVIPPort,
			Proto:   proto,
		}
	}
	// assigned[i] is the backend the harness last saw flow i steered
	// to; replies are crafted against it, so replies into removed or
	// expired state occur naturally and must be dropped.
	assigned := make(map[int]flow.Addr)

	type delivery struct {
		id         flow.ID
		fromClient bool
		lbable     bool
		seq        uint32
	}
	rng := rand.New(rand.NewSource(7))
	buf := make([]byte, 2048)
	drain := make([]*dpdk.Mbuf, 64)
	var seq uint32
	total := 0

	for iter := 0; iter < 1200; iter++ {
		clock.Advance(libvig.Time(rng.Intn(int(lbTexp.Nanoseconds() / 8))))

		// Control-plane churn between bursts: flip a backend's
		// membership every so often, keeping at least one live.
		if iter%37 == 36 {
			ip := backendIPs[rng.Intn(len(backendIPs))]
			if live[ip] {
				nLive := 0
				for _, l := range live {
					if l {
						nLive++
					}
				}
				if nLive > 1 {
					removeBackend(ip)
				}
			} else {
				addBackend(ip)
			}
		}

		// Build one burst. The engine processes each shard's
		// internal-side packets (replies) before its external-side
		// ones, so the oracle steps replies first too.
		var internalSide, externalSide []delivery
		burst := 6 + rng.Intn(9)
		for p := 0; p < burst; p++ {
			seq++
			d := delivery{seq: seq, lbable: true}
			switch rng.Intn(10) {
			case 0, 1, 2, 3: // client packet, possibly fresh
				i := rng.Intn(len(clients))
				d.id, d.fromClient = clients[i], true
			case 4, 5, 6: // reply against the last observed assignment
				i := rng.Intn(len(clients))
				ip, ok := assigned[i]
				if !ok {
					d.id, d.fromClient = clients[i], true
					break
				}
				c := clients[i]
				d.id = flow.ID{
					SrcIP: ip, SrcPort: lbVIPPort,
					DstIP: c.SrcIP, DstPort: c.SrcPort, Proto: c.Proto,
				}
			case 7: // junk: client-side packet not for the VIP
				d.id, d.fromClient = clients[rng.Intn(len(clients))], true
				if rng.Intn(2) == 0 {
					d.id.DstIP = flow.MakeAddr(8, 8, 8, 8)
				} else {
					d.id.DstPort = 80 // VIP, wrong port
				}
			case 8: // junk: unmatched backend-side packet
				d.id = flow.ID{
					SrcIP:   backendIPs[rng.Intn(len(backendIPs))],
					SrcPort: uint16(1024 + rng.Intn(60000)),
					DstIP:   flow.MakeAddr(203, 0, 113, byte(rng.Intn(250))),
					DstPort: uint16(1024 + rng.Intn(60000)),
					Proto:   flow.UDP,
				}
			case 9: // non-balanceable: ICMP at the VIP
				d.id, d.fromClient = clients[rng.Intn(len(clients))], true
				d.id.Proto = flow.ICMP
				d.lbable = false
			}
			frame := lbCraft(buf, d.id, d.seq)
			if d.fromClient {
				if !extPort.DeliverRx(frame, clock.Now()) {
					t.Fatal("ext RX rejected a frame")
				}
				externalSide = append(externalSide, d)
			} else {
				if !intPort.DeliverRx(frame, clock.Now()) {
					t.Fatal("int RX rejected a frame")
				}
				internalSide = append(internalSide, d)
			}
		}

		if _, err := pipe.Poll(); err != nil {
			t.Fatal(err)
		}

		// Drain both ports and index outputs by sequence tag.
		type output struct {
			tuple     flow.ID
			toBackend bool
		}
		outputs := make(map[uint32]output, burst)
		for _, port := range []*dpdk.Port{intPort, extPort} {
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
					outputs[lbReadSeq(t, drain[i].Data)] = output{
						tuple:     p.FlowID(),
						toBackend: port == intPort,
					}
					if err := drain[i].Pool().Free(drain[i]); err != nil {
						t.Fatal(err)
					}
				}
			}
		}

		// Step the oracle in the engine's processing order.
		now := clock.Now()
		for _, list := range [][]delivery{internalSide, externalSide} {
			for _, d := range list {
				var got spec.LBObserved
				if out, ok := outputs[d.seq]; !ok {
					got.Verdict = lb.VerdictDrop
				} else {
					got.Tuple = out.tuple
					switch {
					case out.toBackend && d.fromClient && out.tuple.DstIP != d.id.DstIP:
						got.Verdict = lb.VerdictToBackend
					case !out.toBackend && !d.fromClient && out.tuple.SrcIP != d.id.SrcIP:
						got.Verdict = lb.VerdictToClient
					default:
						got.Verdict = lb.VerdictPassthrough
					}
				}
				if err := oracle.Step(d.id, d.fromClient, d.lbable, now, got); err != nil {
					t.Fatalf("iter %d seq %d (%v fromClient=%v): %v",
						iter, d.seq, d.id, d.fromClient, err)
				}
				// Remember the observed assignment for reply crafting.
				if got.Verdict == lb.VerdictToBackend {
					for i := range clients {
						if clients[i] == d.id {
							assigned[i] = got.Tuple.DstIP
						}
					}
				}
				total++
			}
		}
	}

	if total < 10000 {
		t.Fatalf("only %d packets driven, acceptance needs ≥10k", total)
	}
	// The oracle and the implementation agree on live sticky state.
	if impl, specN := balancer.Flows(), oracle.Size(); impl != specN {
		t.Fatalf("balancer tracks %d sticky flows, oracle %d", impl, specN)
	}
	for s := 0; s < lbShards; s++ {
		if b := balancer.ShardBalancer(s); b.Table().Size() >= b.Config().Capacity {
			t.Fatalf("shard %d filled (%d flows); capacity pressure invalidates the unbounded oracle", s, b.Table().Size())
		}
	}
	for _, p := range pools {
		if p.InUse() != 0 {
			t.Fatalf("mbuf leak: %d in use", p.InUse())
		}
	}
	st := balancer.Stats()
	if st.Processed == 0 || st.ToBackend == 0 || st.ToClient == 0 ||
		st.FlowsExpired == 0 || st.Dropped == 0 {
		t.Fatalf("churn too weak to mean anything: %+v", st)
	}
	t.Logf("conformance: %d packets, %d shards: %+v", total, lbShards, st)
}

// lbVerdict reads v, a balancer adapter's verdict on the packet it just
// ran, back as the balancer's own verdict: the reason cell the packet
// moved tells a forward to a backend, to a client and a passthrough
// apart.
func lbVerdict(t *testing.T, a nf.NF, v nf.Verdict) lb.Verdict {
	t.Helper()
	if v == nf.Drop {
		return lb.VerdictDrop
	}
	switch r := a.(interface{ LastReasonName() string }).LastReasonName(); r {
	case "fwd_backend":
		return lb.VerdictToBackend
	case "fwd_client":
		return lb.VerdictToClient
	case "pass_non_vip", "pass_no_session":
		return lb.VerdictPassthrough
	default:
		t.Fatalf("forwarded under reason %q", r)
		return lb.VerdictDrop
	}
}

// TestLBConformanceAnyPort drives the VIPPort == 0 configuration
// (every destination port on the VIP is balanced, each a distinct
// flow) differentially against the oracle, including replies — the
// reply key carries the per-flow port, so a reconstruction slip shows
// as a divergence here.
func TestLBConformanceAnyPort(t *testing.T) {
	clock := libvig.NewVirtualClock(0)
	b, err := lb.New(lb.Config{
		VIP: lbVIP, VIPPort: 0,
		Capacity: 64, Timeout: lbTexp, MaxBackends: 4,
	}, clock)
	if err != nil {
		t.Fatal(err)
	}
	oracle := spec.NewLBOracle(lbVIP, 0, 64, lbTexp.Nanoseconds(), false)
	for i := 0; i < 3; i++ {
		ip := flow.MakeAddr(10, 3, 0, byte(1+i))
		if _, err := b.AddBackend(ip, 0); err != nil {
			t.Fatal(err)
		}
		if err := oracle.AddBackend(ip); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(23))
	buf := make([]byte, 2048)
	a := lb.AsNF(b)
	step := func(id flow.ID, fromClient bool) flow.ID {
		t.Helper()
		frame := lbCraft(buf, id, 0)
		v := lbVerdict(t, a, nfkittest.Send(a, frame, !fromClient))
		var got spec.LBObserved
		got.Verdict = v
		var out flow.ID
		if v != lb.VerdictDrop {
			var p netstack.Packet
			if err := p.Parse(frame); err != nil {
				t.Fatal(err)
			}
			out = p.FlowID()
			got.Tuple = out
		}
		if err := oracle.Step(id, fromClient, true, clock.Now(), got); err != nil {
			t.Fatalf("%v fromClient=%v: %v", id, fromClient, err)
		}
		return out
	}
	assigned := map[flow.ID]flow.ID{} // client tuple → rewritten tuple
	for i := 0; i < 3000; i++ {
		clock.Advance(libvig.Time(rng.Intn(int(lbTexp.Nanoseconds() / 6))))
		id := flow.ID{
			SrcIP:   flow.MakeAddr(203, 0, 113, byte(rng.Intn(8))),
			SrcPort: 20000,
			DstIP:   lbVIP,
			DstPort: uint16(1 + rng.Intn(6)), // several ports at the VIP
			Proto:   flow.UDP,
		}
		if rng.Intn(3) == 0 {
			if out, ok := assigned[id]; ok {
				step(out.Reverse(), false) // reply (may race expiry: also checked)
				continue
			}
		}
		if out := step(id, true); out != (flow.ID{}) {
			assigned[id] = out
		}
	}
	if impl, specN := b.Table().Size(), oracle.Size(); impl != specN {
		t.Fatalf("balancer tracks %d sticky flows, oracle %d", impl, specN)
	}
}

// TestLBConformanceCapacityStrict drives a single unsharded balancer
// with an exactly-sized oracle (cap enforced), pinning the
// table-full-drops-fresh-flows clause the pipeline test's unbounded
// oracle cannot see.
func TestLBConformanceCapacityStrict(t *testing.T) {
	const cap = 8
	clock := libvig.NewVirtualClock(0)
	b, err := lb.New(lb.Config{
		VIP: lbVIP, VIPPort: lbVIPPort,
		Capacity: cap, Timeout: lbTexp, MaxBackends: 4,
	}, clock)
	if err != nil {
		t.Fatal(err)
	}
	oracle := spec.NewLBOracle(lbVIP, lbVIPPort, cap, lbTexp.Nanoseconds(), false)
	for i := 0; i < 3; i++ {
		ip := flow.MakeAddr(10, 2, 0, byte(1+i))
		if _, err := b.AddBackend(ip, 0); err != nil {
			t.Fatal(err)
		}
		if err := oracle.AddBackend(ip); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(11))
	buf := make([]byte, 2048)
	a := lb.AsNF(b)
	step := func(id flow.ID, fromClient, lbable bool) {
		t.Helper()
		frame := lbCraft(buf, id, 0)
		fromInternal := !fromClient // clients face the external port
		v := lbVerdict(t, a, nfkittest.Send(a, frame, fromInternal))
		var got spec.LBObserved
		got.Verdict = v
		if v != lb.VerdictDrop {
			var p netstack.Packet
			if err := p.Parse(frame); err != nil {
				t.Fatal(err)
			}
			got.Tuple = p.FlowID()
		}
		if err := oracle.Step(id, fromClient, lbable, clock.Now(), got); err != nil {
			t.Fatalf("%v fromClient=%v: %v", id, fromClient, err)
		}
	}
	for i := 0; i < 4000; i++ {
		clock.Advance(libvig.Time(rng.Intn(int(lbTexp.Nanoseconds() / 6))))
		// Twice the capacity's worth of client flows: constant capacity
		// pressure, with expiry freeing room.
		id := flow.ID{
			SrcIP:   flow.MakeAddr(203, 0, 113, byte(rng.Intn(2*cap))),
			SrcPort: 20000,
			DstIP:   lbVIP,
			DstPort: lbVIPPort,
			Proto:   flow.UDP,
		}
		step(id, true, true)
	}
	if impl, specN := b.Table().Size(), oracle.Size(); impl != specN {
		t.Fatalf("balancer tracks %d sticky flows, oracle %d", impl, specN)
	}
	if b.Table().Size() != cap {
		t.Fatalf("expected sustained capacity pressure, table holds %d/%d", b.Table().Size(), cap)
	}
}
