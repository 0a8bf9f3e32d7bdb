package lb_test

import (
	"sync"
	"testing"
	"time"

	"vignat/internal/flow"
	"vignat/internal/lb"
	"vignat/internal/libvig"
	"vignat/internal/netstack"
	"vignat/internal/nf"
	"vignat/internal/nf/nfkit/nfkittest"
)

var (
	testVIP = flow.MakeAddr(198, 18, 10, 10)
)

const (
	testVIPPort = 443
	testTexp    = time.Second
)

func balancerForTest(t *testing.T, clock libvig.Clock, backends int) (*lb.Balancer, []flow.Addr) {
	t.Helper()
	b, err := lb.New(lb.Config{
		VIP:         testVIP,
		VIPPort:     testVIPPort,
		Capacity:    64,
		Timeout:     testTexp,
		MaxBackends: 16,
	}, clock)
	if err != nil {
		t.Fatal(err)
	}
	ips := addBackends(t, clock, backends, func(ip flow.Addr, now libvig.Time) (int, error) {
		return b.AddBackend(ip, now)
	})
	return b, ips
}

func addBackends(t *testing.T, clock libvig.Clock, n int, add func(flow.Addr, libvig.Time) (int, error)) []flow.Addr {
	t.Helper()
	ips := make([]flow.Addr, n)
	for i := range ips {
		ips[i] = flow.MakeAddr(10, 1, 0, byte(10+i))
		idx, err := add(ips[i], clock.Now())
		if err != nil {
			t.Fatal(err)
		}
		if idx != i {
			t.Fatalf("backend %d allocated slot %d", i, idx)
		}
	}
	return ips
}

func clientID(i int) flow.ID {
	return flow.ID{
		SrcIP:   flow.MakeAddr(203, 0, byte(i>>8), byte(i)),
		SrcPort: uint16(20000 + i%30000),
		DstIP:   testVIP,
		DstPort: testVIPPort,
		Proto:   flow.UDP,
	}
}

func craft(t *testing.T, buf []byte, id flow.ID) []byte {
	t.Helper()
	spec := &netstack.FrameSpec{ID: id, PayloadLen: 4}
	return netstack.Craft(buf[:netstack.FrameLen(spec)], spec)
}

// parseChecked parses a forwarded frame and verifies both checksums —
// the rewrite path maintains them incrementally, so any slip shows
// here.
func parseChecked(t *testing.T, frame []byte) netstack.Packet {
	t.Helper()
	var p netstack.Packet
	if err := p.Parse(frame); err != nil {
		t.Fatal(err)
	}
	if !p.VerifyIPChecksum() {
		t.Fatal("IP checksum broken by rewrite")
	}
	if !p.VerifyL4Checksum() {
		t.Fatal("L4 checksum broken by rewrite")
	}
	return p
}

// send hands frame to n, a balancer's adapter, as a one-packet burst
// and reads the outcome back as the balancer's own verdict: the reason
// cell the packet moved tells a forward to a backend, to a client and a
// passthrough apart.
func send(t *testing.T, n nf.NF, frame []byte, fromInternal bool) lb.Verdict {
	t.Helper()
	if nfkittest.Send(n, frame, fromInternal) == nf.Drop {
		return lb.VerdictDrop
	}
	switch r := n.(interface{ LastReasonName() string }).LastReasonName(); r {
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

func TestBalancerSteersAndRestores(t *testing.T) {
	clock := libvig.NewVirtualClock(0)
	b, ips := balancerForTest(t, clock, 4)
	buf := make([]byte, 2048)

	id := clientID(7)
	frame := craft(t, buf, id)
	a := lb.AsNF(b)
	if v := send(t, a, frame, false); v != lb.VerdictToBackend {
		t.Fatalf("client packet verdict %v", v)
	}
	p := parseChecked(t, frame)
	backendIP := p.DstIP
	found := false
	for _, ip := range ips {
		if ip == backendIP {
			found = true
		}
	}
	if !found {
		t.Fatalf("rewritten to %v, not a backend", backendIP)
	}
	if p.SrcIP != id.SrcIP || p.SrcPort != id.SrcPort || p.DstPort != id.DstPort {
		t.Fatal("rewrite touched more than the destination address")
	}

	// The backend's reply: source restored to the VIP.
	reply := flow.ID{
		SrcIP: backendIP, SrcPort: testVIPPort,
		DstIP: id.SrcIP, DstPort: id.SrcPort, Proto: id.Proto,
	}
	rframe := craft(t, buf, reply)
	if v := send(t, a, rframe, true); v != lb.VerdictToClient {
		t.Fatalf("reply verdict %v", v)
	}
	rp := parseChecked(t, rframe)
	if rp.SrcIP != testVIP {
		t.Fatalf("reply source %v, want VIP", rp.SrcIP)
	}
	if rp.DstIP != id.SrcIP || rp.DstPort != id.SrcPort {
		t.Fatal("reply rewrite touched the client tuple")
	}

	st := b.Stats()
	if st.ToBackend != 1 || st.ToClient != 1 || st.FlowsCreated != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestBalancerSticky(t *testing.T) {
	clock := libvig.NewVirtualClock(0)
	b, _ := balancerForTest(t, clock, 8)
	buf := make([]byte, 2048)
	a := lb.AsNF(b)

	first := make(map[int]flow.Addr)
	for round := 0; round < 5; round++ {
		clock.Advance((testTexp / 4).Nanoseconds()) // stay within Texp
		for i := 0; i < 32; i++ {
			frame := craft(t, buf, clientID(i))
			if send(t, a, frame, false) != lb.VerdictToBackend {
				t.Fatal("drop")
			}
			var p netstack.Packet
			if err := p.Parse(frame); err != nil {
				t.Fatal(err)
			}
			if round == 0 {
				first[i] = p.DstIP
			} else if first[i] != p.DstIP {
				t.Fatalf("flow %d moved %v→%v while sticky", i, first[i], p.DstIP)
			}
		}
	}
	if got := b.Table().Size(); got != 32 {
		t.Fatalf("%d sticky entries, want 32", got)
	}
}

func TestBalancerExpiry(t *testing.T) {
	clock := libvig.NewVirtualClock(0)
	b, _ := balancerForTest(t, clock, 4)
	buf := make([]byte, 2048)

	frame := craft(t, buf, clientID(1))
	a := lb.AsNF(b)
	if send(t, a, frame, false) != lb.VerdictToBackend {
		t.Fatal("drop")
	}
	if b.Table().Size() != 1 {
		t.Fatal("no sticky entry")
	}
	// Idle for exactly Texp: the entry must expire on the next touch.
	clock.Advance(testTexp.Nanoseconds())
	if n := b.ExpireAt(clock.Now()); n != 1 {
		t.Fatalf("expired %d entries, want 1", n)
	}
	if b.Table().Size() != 0 {
		t.Fatal("entry survived Texp")
	}
	if b.Stats().FlowsExpired != 1 {
		t.Fatalf("stats %+v", b.Stats())
	}
}

func TestBalancerBackendRemovalRemapsOnlyItsFlows(t *testing.T) {
	clock := libvig.NewVirtualClock(0)
	b, ips := balancerForTest(t, clock, 8)
	buf := make([]byte, 2048)
	a := lb.AsNF(b)

	assigned := make(map[int]flow.Addr)
	for i := 0; i < 48; i++ {
		frame := craft(t, buf, clientID(i))
		if send(t, a, frame, false) != lb.VerdictToBackend {
			t.Fatal("drop")
		}
		var p netstack.Packet
		if err := p.Parse(frame); err != nil {
			t.Fatal(err)
		}
		assigned[i] = p.DstIP
	}

	const victim = 3
	victims := 0
	if err := b.RemoveBackend(victim); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 48; i++ {
		frame := craft(t, buf, clientID(i))
		if send(t, a, frame, false) != lb.VerdictToBackend {
			t.Fatal("drop after removal")
		}
		var p netstack.Packet
		if err := p.Parse(frame); err != nil {
			t.Fatal(err)
		}
		if assigned[i] == ips[victim] {
			victims++
			if p.DstIP == ips[victim] {
				t.Fatalf("flow %d still on the removed backend", i)
			}
		} else if p.DstIP != assigned[i] {
			t.Fatalf("flow %d remapped %v→%v though its backend survived",
				i, assigned[i], p.DstIP)
		}
	}
	if victims == 0 {
		t.Fatal("no flow was on the victim backend; test proves nothing")
	}
}

// TestBalancerAnyPortVIP exercises the VIPPort == 0 configuration: any
// destination port on the VIP is balanced, flows to different ports
// are distinct sticky entries, and reply reconstruction carries the
// per-flow port.
func TestBalancerAnyPortVIP(t *testing.T) {
	clock := libvig.NewVirtualClock(0)
	b, err := lb.New(lb.Config{
		VIP: testVIP, VIPPort: 0,
		Capacity: 32, Timeout: time.Hour, MaxBackends: 8,
	}, clock)
	if err != nil {
		t.Fatal(err)
	}
	addBackends(t, clock, 4, b.AddBackend)
	buf := make([]byte, 2048)
	a := lb.AsNF(b)

	ports := []uint16{22, 443, 8080}
	backendOf := map[uint16]flow.Addr{}
	client := clientID(1)
	for _, port := range ports {
		id := client
		id.DstPort = port
		frame := craft(t, buf, id)
		if v := send(t, a, frame, false); v != lb.VerdictToBackend {
			t.Fatalf("port %d verdict %v", port, v)
		}
		p := parseChecked(t, frame)
		if p.DstPort != port {
			t.Fatalf("port %d rewritten to %d; any-port mode must keep the port", port, p.DstPort)
		}
		backendOf[port] = p.DstIP
	}
	if b.Table().Size() != len(ports) {
		t.Fatalf("%d sticky entries for %d ports", b.Table().Size(), len(ports))
	}
	// Each port's reply must match its own flow and restore the VIP.
	for _, port := range ports {
		reply := flow.ID{
			SrcIP: backendOf[port], SrcPort: port,
			DstIP: client.SrcIP, DstPort: client.SrcPort, Proto: client.Proto,
		}
		frame := craft(t, buf, reply)
		if v := send(t, a, frame, true); v != lb.VerdictToClient {
			t.Fatalf("port %d reply verdict %v", port, v)
		}
		if p := parseChecked(t, frame); p.SrcIP != testVIP {
			t.Fatalf("port %d reply source %v, want VIP", port, p.SrcIP)
		}
	}
	// Off-VIP destinations still drop (standalone policy), proving the
	// any-port clause widened only the VIP match.
	off := client
	off.DstIP = flow.MakeAddr(8, 8, 8, 8)
	if v := send(t, a, craft(t, buf, off), false); v != lb.VerdictDrop {
		t.Fatalf("non-VIP verdict %v in any-port mode", v)
	}
}

// TestBalancerUnpinnedAccounting pins the sticky accounting invariant:
// created − expired − unpinned == live, with unpinned counting exactly
// the entries a backend drain erased.
func TestBalancerUnpinnedAccounting(t *testing.T) {
	clock := libvig.NewVirtualClock(0)
	b, _ := balancerForTest(t, clock, 4)
	buf := make([]byte, 2048)
	a := lb.AsNF(b)
	for i := 0; i < 32; i++ {
		if send(t, a, craft(t, buf, clientID(i)), false) != lb.VerdictToBackend {
			t.Fatal("drop")
		}
	}
	if err := b.RemoveBackend(2); err != nil {
		t.Fatal(err)
	}
	st := b.Stats()
	if st.FlowsUnpinned == 0 {
		t.Fatal("drain unpinned nothing; test proves nothing")
	}
	if int(st.FlowsCreated-st.FlowsExpired-st.FlowsUnpinned) != b.Table().Size() {
		t.Fatalf("accounting: created %d − expired %d − unpinned %d ≠ live %d",
			st.FlowsCreated, st.FlowsExpired, st.FlowsUnpinned, b.Table().Size())
	}
	if int(st.FlowsUnpinned)+b.Table().Size() != 32 {
		t.Fatalf("unpinned %d + live %d ≠ 32 created", st.FlowsUnpinned, b.Table().Size())
	}
}

func TestBalancerDropsWithoutBackends(t *testing.T) {
	clock := libvig.NewVirtualClock(0)
	b, _ := balancerForTest(t, clock, 0)
	buf := make([]byte, 2048)
	frame := craft(t, buf, clientID(0))
	a := lb.AsNF(b)
	if v := send(t, a, frame, false); v != lb.VerdictDrop {
		t.Fatalf("verdict %v with no backends", v)
	}
}

func TestBalancerNonVIPPolicy(t *testing.T) {
	clock := libvig.NewVirtualClock(0)
	buf := make([]byte, 2048)
	other := clientID(0)
	other.DstIP = flow.MakeAddr(8, 8, 8, 8)

	b, _ := balancerForTest(t, clock, 2)
	a := lb.AsNF(b)
	if v := send(t, a, craft(t, buf, other), false); v != lb.VerdictDrop {
		t.Fatalf("standalone balancer: non-VIP verdict %v, want drop", v)
	}
	// Wrong port on the VIP is not VIP traffic either.
	wrongPort := clientID(0)
	wrongPort.DstPort = 80
	if v := send(t, a, craft(t, buf, wrongPort), false); v != lb.VerdictDrop {
		t.Fatalf("standalone balancer: wrong-port verdict %v, want drop", v)
	}

	pt, err := lb.New(lb.Config{
		VIP: testVIP, VIPPort: testVIPPort, Capacity: 8, Timeout: time.Hour,
		MaxBackends: 4, Passthrough: true,
	}, clock)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pt.AddBackend(flow.MakeAddr(10, 1, 0, 1), 0); err != nil {
		t.Fatal(err)
	}
	frame := craft(t, buf, other)
	apt := lb.AsNF(pt)
	if v := send(t, apt, frame, false); v != lb.VerdictPassthrough {
		t.Fatalf("chained balancer: non-VIP verdict %v, want passthrough", v)
	}
	p := parseChecked(t, frame)
	if p.FlowID() != other {
		t.Fatal("passthrough modified the frame")
	}
	// An unmatched backend-side packet passes through too.
	if v := send(t, apt, craft(t, buf, other.Reverse()), true); v != lb.VerdictPassthrough {
		t.Fatalf("chained balancer: unmatched reply verdict %v, want passthrough", v)
	}
}

func TestBalancerTableFullDrops(t *testing.T) {
	clock := libvig.NewVirtualClock(0)
	b, err := lb.New(lb.Config{
		VIP: testVIP, VIPPort: testVIPPort,
		Capacity: 4, Timeout: time.Hour, MaxBackends: 2,
	}, clock)
	if err != nil {
		t.Fatal(err)
	}
	addBackends(t, clock, 2, b.AddBackend)
	buf := make([]byte, 2048)
	a := lb.AsNF(b)
	for i := 0; i < 4; i++ {
		if send(t, a, craft(t, buf, clientID(i)), false) != lb.VerdictToBackend {
			t.Fatalf("flow %d dropped below capacity", i)
		}
	}
	if v := send(t, a, craft(t, buf, clientID(4)), false); v != lb.VerdictDrop {
		t.Fatalf("fresh flow at capacity: verdict %v, want drop", v)
	}
	// Existing flows still pass.
	if send(t, a, craft(t, buf, clientID(2)), false) != lb.VerdictToBackend {
		t.Fatal("live flow dropped at capacity")
	}
}

func TestBalancerRejectsBadBackends(t *testing.T) {
	clock := libvig.NewVirtualClock(0)
	b, ips := balancerForTest(t, clock, 2)
	if _, err := b.AddBackend(ips[0], 0); err == nil {
		t.Fatal("duplicate backend accepted")
	}
	if _, err := b.AddBackend(testVIP, 0); err == nil {
		t.Fatal("VIP as backend accepted")
	}
	if _, err := b.AddBackend(0, 0); err == nil {
		t.Fatal("zero backend accepted")
	}
	if err := b.RemoveBackend(5); err == nil {
		t.Fatal("removing a dead backend accepted")
	}
}

func TestBalancerClientsInternalOrientation(t *testing.T) {
	clock := libvig.NewVirtualClock(0)
	b, err := lb.New(lb.Config{
		VIP: testVIP, VIPPort: 53, Capacity: 16, Timeout: time.Hour,
		MaxBackends: 4, ClientsInternal: true, Passthrough: true,
	}, clock)
	if err != nil {
		t.Fatal(err)
	}
	backendIP := flow.MakeAddr(9, 9, 9, 9)
	if _, err := b.AddBackend(backendIP, 0); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 2048)
	id := flow.ID{
		SrcIP: flow.MakeAddr(192, 168, 1, 10), SrcPort: 40000,
		DstIP: testVIP, DstPort: 53, Proto: flow.UDP,
	}
	frame := craft(t, buf, id)
	// Clients are internal now: the VIP-bound packet arrives fromInternal.
	a := lb.AsNF(b)
	if v := send(t, a, frame, true); v != lb.VerdictToBackend {
		t.Fatalf("internal client verdict %v", v)
	}
	var p netstack.Packet
	if err := p.Parse(frame); err != nil {
		t.Fatal(err)
	}
	if p.DstIP != backendIP {
		t.Fatalf("steered to %v", p.DstIP)
	}
	// The upstream's reply arrives from the external side.
	reply := craft(t, buf, flow.ID{
		SrcIP: backendIP, SrcPort: 53,
		DstIP: id.SrcIP, DstPort: id.SrcPort, Proto: flow.UDP,
	})
	if v := send(t, a, reply, false); v != lb.VerdictToClient {
		t.Fatalf("reply verdict %v", v)
	}
	var rp netstack.Packet
	if err := rp.Parse(reply); err != nil {
		t.Fatal(err)
	}
	if rp.SrcIP != testVIP {
		t.Fatalf("reply source %v, want VIP", rp.SrcIP)
	}
}

// --- sharded ---

func shardedForTest(t *testing.T, clock libvig.Clock, shards, backends int) (*lb.Sharded, []flow.Addr) {
	t.Helper()
	s, err := lb.NewSharded(lb.Config{
		VIP:         testVIP,
		VIPPort:     testVIPPort,
		Capacity:    1024,
		Timeout:     testTexp,
		MaxBackends: 16,
	}, clock, shards)
	if err != nil {
		t.Fatal(err)
	}
	ips := addBackends(t, clock, backends, s.AddBackend)
	return s, ips
}

// TestShardedReturnAffinity: both directions of every session steer to
// the same shard — the property that makes the shards lock-free.
func TestShardedLBReturnAffinity(t *testing.T) {
	clock := libvig.NewVirtualClock(0)
	s, _ := shardedForTest(t, clock, 4, 4)
	buf := make([]byte, 2048)
	spread := map[int]int{}
	for i := 0; i < 128; i++ {
		id := clientID(i)
		frame := craft(t, buf, id)
		out := s.ShardOf(frame, false)
		spread[out]++
		if nfkittest.Send(s, frame, false) != nf.Forward {
			t.Fatal("drop")
		}
		var p netstack.Packet
		if err := p.Parse(frame); err != nil {
			t.Fatal(err)
		}
		reply := craft(t, buf, p.FlowID().Reverse())
		if in := s.ShardOf(reply, true); in != out {
			t.Fatalf("flow %d: client side shard %d, reply side shard %d", i, out, in)
		}
		if nfkittest.Send(s, reply, true) != nf.Forward {
			t.Fatalf("reply %d dropped", i)
		}
	}
	for sh := 0; sh < 4; sh++ {
		if spread[sh] == 0 {
			t.Fatalf("shard %d received no flows: %v", sh, spread)
		}
	}
}

// TestShardedLBAgreesWithUnsharded: the same packet sequence produces
// the same backend assignment whether the balancer is sharded or not —
// the replicated CHTs are bucket-for-bucket identical.
func TestShardedLBAgreesWithUnsharded(t *testing.T) {
	clock := libvig.NewVirtualClock(0)
	s, _ := shardedForTest(t, clock, 4, 8)
	u, _ := balancerForTest(t, clock, 8)
	au := lb.AsNF(u)
	buf1 := make([]byte, 2048)
	buf2 := make([]byte, 2048)
	for i := 0; i < 48; i++ { // within the unsharded fixture's capacity
		id := clientID(i)
		f1 := craft(t, buf1, id)
		f2 := craft(t, buf2, id)
		if nfkittest.Send(s, f1, false) != nf.Forward {
			t.Fatal("sharded drop")
		}
		if send(t, au, f2, false) != lb.VerdictToBackend {
			t.Fatal("unsharded drop")
		}
		var p1, p2 netstack.Packet
		if err := p1.Parse(f1); err != nil {
			t.Fatal(err)
		}
		if err := p2.Parse(f2); err != nil {
			t.Fatal(err)
		}
		if p1.DstIP != p2.DstIP {
			t.Fatalf("flow %d: sharded→%v, unsharded→%v", i, p1.DstIP, p2.DstIP)
		}
	}
}

func TestShardedLBShardOfConcurrentAndAllocFree(t *testing.T) {
	clock := libvig.NewVirtualClock(0)
	s, _ := shardedForTest(t, clock, 4, 4)
	buf := make([]byte, 2048)
	frame := append([]byte(nil), craft(t, buf, clientID(3))...)
	if n := testing.AllocsPerRun(100, func() { s.ShardOf(frame, false) }); n != 0 {
		t.Fatalf("ShardOf allocates %v times per call", n)
	}
	want := s.ShardOf(frame, false)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				if got := s.ShardOf(frame, false); got != want {
					t.Errorf("concurrent ShardOf %d, want %d", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestShardedLBValidation(t *testing.T) {
	clock := libvig.NewVirtualClock(0)
	cfg := lb.Config{VIP: testVIP, Capacity: 4, Timeout: time.Hour, MaxBackends: 2}
	if _, err := lb.NewSharded(cfg, clock, 0); err == nil {
		t.Fatal("0 shards accepted")
	}
	if _, err := lb.NewSharded(cfg, clock, 8); err == nil {
		t.Fatal("capacity 4 over 8 shards accepted")
	}
	bad := cfg
	bad.VIP = 0
	if _, err := lb.NewSharded(bad, clock, 1); err == nil {
		t.Fatal("zero VIP accepted")
	}
}

// TestDeclaredStatsAllocatesNothing: the declaration's Stats runs on
// every scrape, and its taxonomy is built once, with the declaration.
func TestDeclaredStatsAllocatesNothing(t *testing.T) {
	for _, passthrough := range []bool{false, true} {
		decl := lb.Kit(lb.Config{VIP: testVIP, Capacity: 4, Timeout: time.Hour, Passthrough: passthrough}, libvig.NewVirtualClock(0))
		counters := make([]uint64, 16)
		counters[lb.ReasonDropParse] = 3
		if n := testing.AllocsPerRun(100, func() { decl.Stats(counters) }); n != 0 {
			t.Fatalf("passthrough=%v: Stats allocates %v times per call", passthrough, n)
		}
		if s := decl.Stats(counters); s.Dropped != 3 || s.Processed != 3 {
			t.Fatalf("passthrough=%v: %+v", passthrough, s)
		}
	}
}
