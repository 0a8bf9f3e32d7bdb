// Transport-substitutability conformance: the same RFC 3022 oracle
// trace that checks the NAT over in-memory rings runs again with the
// pipeline's packet I/O carried by each socket transport — every frame
// crossing a real kernel wire (UDP datagrams, unix SOCK_SEQPACKET)
// instead of a test harness ring. The NF, the engine, and the oracle
// are identical; only the Transport under the ports changes. Passing
// here is what makes "-transport udp" on the daemon a claim
// rather than a hope.
package spec_test

import (
	"math/rand"
	"testing"
	"time"

	"vignat/internal/dpdk"
	"vignat/internal/dpdk/transporttest"
	"vignat/internal/flow"
	"vignat/internal/libvig"
	"vignat/internal/nat"
	"vignat/internal/nat/stateless"
	"vignat/internal/netstack"
	"vignat/internal/nf"
	"vignat/internal/vigor/spec"
)

// twDropWait is how long a wire is watched before a packet is declared
// dropped. Forwarded frames arrive synchronously (loopback sockets
// deliver before Send returns; the poll transmits before returning),
// so this is paid only on true drops.
const twDropWait = 50 * time.Millisecond

const (
	twCap     = 8
	twTimeout = time.Second
)

// twRig is a single-worker NAT pipeline on one transport, with the
// tester holding both wire ends.
type twRig struct {
	pipe             *nf.Pipeline
	intWire, extWire transporttest.Wire
	pools            []*dpdk.Mempool
}

func buildTransportRig(t *testing.T, kind string, n nf.NF, clock *libvig.VirtualClock, fastPath int) *twRig {
	t.Helper()
	newPool := func() *dpdk.Mempool {
		pool, err := dpdk.NewMempool(512)
		if err != nil {
			t.Fatal(err)
		}
		return pool
	}
	r := &twRig{}
	var intPort, extPort *dpdk.Port
	switch kind {
	case "mem":
		pool := newPool()
		r.pools = []*dpdk.Mempool{pool}
		var err error
		if intPort, err = dpdk.NewPort(0, dpdk.DefaultRxQueue, dpdk.DefaultTxQueue, pool); err != nil {
			t.Fatal(err)
		}
		if extPort, err = dpdk.NewPort(1, dpdk.DefaultRxQueue, dpdk.DefaultTxQueue, pool); err != nil {
			t.Fatal(err)
		}
		r.intWire = &transporttest.MemWire{Port: intPort}
		r.extWire = &transporttest.MemWire{Port: extPort}
	case "udp":
		side := func(id uint16) (*dpdk.Port, *transporttest.UDPWire) {
			tr, err := dpdk.NewUDPTransport(dpdk.SocketConfig{Local: "127.0.0.1:0", Clock: clock})
			if err != nil {
				t.Fatal(err)
			}
			pool := newPool()
			r.pools = append(r.pools, pool)
			port, err := dpdk.NewPortOn(id, tr, []*dpdk.Mempool{pool})
			if err != nil {
				t.Fatal(err)
			}
			wire, err := transporttest.NewUDPWire("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			if err := wire.SetPeer(tr.LocalAddr(0)); err != nil {
				t.Fatal(err)
			}
			if err := tr.SetPeer(wire.LocalAddr()); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = port.Close(); _ = wire.Close() })
			return port, wire
		}
		intPort, r.intWire = side(0)
		extPort, r.extWire = side(1)
	case "unix":
		dir := t.TempDir()
		side := func(id uint16, name string) (*dpdk.Port, *transporttest.UnixWire) {
			tr, err := dpdk.NewUnixTransport(dpdk.SocketConfig{
				Local: dir + "/nat-" + name, Peer: dir + "/wire-" + name, Clock: clock,
			})
			if err != nil {
				t.Fatal(err)
			}
			pool := newPool()
			r.pools = append(r.pools, pool)
			port, err := dpdk.NewPortOn(id, tr, []*dpdk.Mempool{pool})
			if err != nil {
				t.Fatal(err)
			}
			wire, err := transporttest.NewUnixWire(dir + "/wire-" + name)
			if err != nil {
				t.Fatal(err)
			}
			if err := wire.SetPeer(dir + "/nat-" + name); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = port.Close(); _ = wire.Close() })
			return port, wire
		}
		intPort, r.intWire = side(0, "int")
		extPort, r.extWire = side(1, "ext")
	default:
		t.Fatalf("unknown transport kind %q", kind)
	}
	pipe, err := nf.NewPipeline(n, nf.Config{Internal: intPort, External: extPort, Clock: clock, FastPath: fastPath})
	if err != nil {
		t.Fatal(err)
	}
	requireCache(t, pipe, fastPath)
	r.pipe = pipe
	return r
}

// stepWire crafts id's packet, carries it over the rig's wire, polls
// the engine once, and reports what came out the far side (or that
// nothing did) as the oracle's observation.
func (r *twRig) stepWire(t *testing.T, id flow.ID, fromInternal bool, now libvig.Time) spec.Observed {
	t.Helper()
	fs := &netstack.FrameSpec{ID: id, PayloadLen: 4}
	buf := make([]byte, netstack.FrameLen(fs))
	frame := netstack.Craft(buf, fs)
	src, dst := r.intWire, r.extWire
	verdict := stateless.VerdictToExternal
	if !fromInternal {
		src, dst = r.extWire, r.intWire
		verdict = stateless.VerdictToInternal
	}
	if !src.Send(frame, now) {
		t.Fatalf("wire refused frame %v", id)
	}
	if _, err := r.pipe.PollWorker(0); err != nil {
		t.Fatal(err)
	}
	recv := make([]byte, 4096)
	n, ok := dst.Recv(recv, twDropWait)
	if !ok {
		return spec.Observed{Verdict: stateless.VerdictDrop}
	}
	var p netstack.Packet
	if err := p.Parse(recv[:n]); err != nil {
		t.Fatalf("forwarded frame unparseable: %v", err)
	}
	return spec.Observed{Verdict: verdict, Tuple: p.FlowID()}
}

// TestTransportSpecConformance runs the trace on each transport, with
// the flow cache off and on. A leg spends most of its time waiting out
// twDropWait on the packets the NAT drops, so the legs run side by side.
func TestTransportSpecConformance(t *testing.T) {
	for _, kind := range []string{"mem", "udp", "unix"} {
		t.Run(kind, func(t *testing.T) {
			t.Parallel()
			cacheLegs(t, func(t *testing.T, fastPath int) {
				t.Parallel()
				transportSpecConformance(t, kind, fastPath)
			})
		})
	}
}

func transportSpecConformance(t *testing.T, kind string, fastPath int) {
	clock := libvig.NewVirtualClock(0)
	n, err := nat.NewSharded(nat.Config{
		Capacity: twCap, Timeout: twTimeout, ExternalIP: extIP,
		PortBase: confPortBase, InternalPort: 0, ExternalPort: 1,
	}, clock, 1)
	if err != nil {
		t.Fatal(err)
	}
	rig := buildTransportRig(t, kind, n, clock, fastPath)
	oracle := spec.NewOracle(twCap, twTimeout.Nanoseconds(), extIP, confPortBase, twCap)
	rng := rand.New(rand.NewSource(7))

	// 12 internal flows against capacity 8: creation, steady
	// traffic, capacity-full drops, and (after clock jumps)
	// expiry all occur on a real wire.
	intIDs := make([]flow.ID, 12)
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
	extTuple := map[int]flow.ID{}
	for s := 0; s < 300; s++ {
		clock.Advance(libvig.Time(rng.Intn(40_000_000))) // ≤40ms
		now := clock.Now()
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4: // outbound
			i := rng.Intn(len(intIDs))
			got := rig.stepWire(t, intIDs[i], true, now)
			if err := oracle.Step(intIDs[i], true, true, now, got); err != nil {
				t.Fatalf("step %d (outbound %v): %v", s, intIDs[i], err)
			}
			if got.Verdict == stateless.VerdictToExternal {
				extTuple[i] = got.Tuple
			}
		case 5, 6, 7: // reply to the last known translation (may have expired: also a check)
			if len(extTuple) == 0 {
				continue
			}
			ks := make([]int, 0, len(extTuple))
			for k := range extTuple {
				ks = append(ks, k)
			}
			id := extTuple[ks[rng.Intn(len(ks))]].Reverse()
			got := rig.stepWire(t, id, false, now)
			if err := oracle.Step(id, false, true, now, got); err != nil {
				t.Fatalf("step %d (reply %v): %v", s, id, err)
			}
		case 8: // unsolicited external junk
			id := flow.ID{
				SrcIP:   flow.MakeAddr(203, 0, 113, byte(1+rng.Intn(250))),
				SrcPort: uint16(1024 + rng.Intn(60000)),
				DstIP:   extIP,
				DstPort: uint16(confPortBase + rng.Intn(twCap+4)),
				Proto:   flow.UDP,
			}
			got := rig.stepWire(t, id, false, now)
			if err := oracle.Step(id, false, true, now, got); err != nil {
				t.Fatalf("step %d (junk %v): %v", s, id, err)
			}
		case 9: // expiry wave
			clock.Advance(libvig.Time(2 * twTimeout.Nanoseconds()))
		}
	}

	// No stray frames may remain on either wire, and every mbuf
	// must be home: the transports moved frames, not ownership
	// bugs.
	recv := make([]byte, 4096)
	if _, ok := rig.intWire.Recv(recv, 50*time.Millisecond); ok {
		t.Fatal("stray frame on the internal wire after the trace")
	}
	if _, ok := rig.extWire.Recv(recv, 50*time.Millisecond); ok {
		t.Fatal("stray frame on the external wire after the trace")
	}
	if err := nf.MbufAccounting(0, rig.pools...); err != nil {
		t.Fatal(err)
	}
}
