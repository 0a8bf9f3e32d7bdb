package main

import (
	"encoding/binary"
	"fmt"
	"time"

	"vignat/internal/flow"
	"vignat/internal/netstack"
)

// The traffic generator. Everything an NF receives is made here from the
// seed: which tuples exist, how they interleave, and how long each frame
// is. The NF's own choices (a NAT's external port, a balancer's backend)
// come back through the send callback while the standing state is being
// installed; nothing else is read from the program under test, so
// gen_test.go can pin the generated bytes with a stub in its place.

// pkt is one generated packet and what the NF must do with it.
type pkt struct {
	frame        []byte
	stampOff     int // where the 8-byte stamp sits in frame
	fromInternal bool
	forward      bool    // expected verdict
	want         flow.ID // expected 5-tuple on the way out, when forwarded
	loose        uint8   // fields of want the NF is free to choose
}

// Fields of pkt.want that the NF chooses itself.
const (
	looseSrcPort uint8 = 1 << iota // a NAT's fresh external port
	looseDstIP                     // a balancer's fresh backend
)

// sendFunc pushes one packet through the NF alone and returns the
// forwarded frame, nil when it was dropped. The frame is valid until the
// next call.
type sendFunc func(p *pkt) ([]byte, error)

// source is one workload's traffic.
type source interface {
	// establish installs the standing state the workload measures over.
	establish(send sendFunc) error
	// next fills burst with the next poll's packets; their frames are
	// valid until the following call.
	next(burst []pkt)
}

// rng is xorshift64*: small enough to sit in the generator loop, and its
// sequence is ours, so a seed means the same traffic under any toolchain.
type rng uint64

func newRng(seed int64, salt uint64) rng {
	z := uint64(seed) + salt*0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return rng(z)
}

func (r *rng) next() uint64 {
	x := uint64(*r)
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	*r = rng(x)
	return x * 0x2545f4914f6cdd1d
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// stamp writes seq and its one's complement into 8 payload bytes. The
// pair sums to 0xffff 0xffff, the identity of one's-complement addition,
// so the frame's UDP or TCP checksum stays valid without being
// recomputed, and the receiver can tell which packet it is looking at.
func stamp(frame []byte, off int, seq uint32) {
	binary.BigEndian.PutUint32(frame[off:], seq)
	binary.BigEndian.PutUint32(frame[off+4:], ^seq)
}

// readStamp returns the stamped sequence number, false when the two
// halves do not agree.
func readStamp(frame []byte, off int) (uint32, bool) {
	if off+8 > len(frame) {
		return 0, false
	}
	seq := binary.BigEndian.Uint32(frame[off:])
	return seq, binary.BigEndian.Uint32(frame[off+4:]) == ^seq
}

// tmpl is a crafted frame kept for reuse; only its stamp changes.
type tmpl struct {
	frame    []byte
	stampOff int
}

// craft builds a frame of frameLen bytes for id (60 is the smallest,
// the paper's 64-byte packet less its FCS).
func craft(id flow.ID, frameLen int) tmpl {
	hdr := netstack.EthHeaderLen + netstack.IPv4MinLen + netstack.UDPHeaderLen
	if id.Proto == flow.TCP {
		hdr = netstack.EthHeaderLen + netstack.IPv4MinLen + netstack.TCPMinLen
	}
	spec := netstack.FrameSpec{ID: id, PayloadLen: frameLen - hdr}
	return tmpl{frame: netstack.Craft(make([]byte, frameLen), &spec), stampOff: hdr}
}

// craftInto is craft for the smallest UDP frame, into a reused buffer.
func craftInto(buf []byte, id flow.ID) tmpl {
	spec := netstack.FrameSpec{ID: id, PayloadLen: smallFrame - udpStampOff}
	return tmpl{frame: netstack.Craft(buf, &spec), stampOff: udpStampOff}
}

const (
	smallFrame  = netstack.MinFrameLen
	udpStampOff = netstack.EthHeaderLen + netstack.IPv4MinLen + netstack.UDPHeaderLen
)

// tupleOf parses a frame the NF forwarded.
func tupleOf(frame []byte) (flow.ID, error) {
	var p netstack.Packet
	if err := p.Parse(frame); err != nil {
		return flow.ID{}, err
	}
	if !p.NATable() {
		return flow.ID{}, fmt.Errorf("forwarded frame is not TCP/UDP over IPv4")
	}
	return p.FlowID(), nil
}

// natExtIP is the external address of every NAT the benchmark builds; it
// is also cmd/vignat's.
var natExtIP = flow.MakeAddr(198, 18, 1, 1)

// ---- nat_established ----

type estParams struct {
	capacity   int
	texp       time.Duration
	background int // idle flows that only occupy the table
	active     int // flows that carry the traffic
}

// sized returns the parameters to run with: as they are, or for the
// oracle gate shrunk to what oracles that walk every live flow on every
// step can follow.
func (p estParams) sized(gate bool) estParams {
	if gate {
		p.background = 1024
	}
	return p
}

// fullEstablished: a 65,535-flow table 90% full, of which a working set
// that the engine's 8,192-entry flow cache holds without evictions (two
// cache keys per flow, one per direction, a quarter of the slots)
// carries all the traffic.
var fullEstablished = estParams{capacity: 65535, texp: time.Hour, background: 57958, active: 1024}

type estFlow struct {
	out, in         tmpl
	wantOut, wantIn flow.ID
}

type estSource struct {
	p     estParams
	r     rng
	flows []estFlow
	seq   uint32
}

func newEstSource(seed int64, p estParams) *estSource {
	return &estSource{p: p, r: newRng(seed, 1)}
}

// natFlowID is internal host i of net talking UDP to a remote drawn from r.
func natFlowID(r *rng, net byte, i int) flow.ID {
	x := r.next()
	return flow.ID{
		SrcIP:   flow.MakeAddr(net, byte(i>>16), byte(i>>8), byte(i)),
		SrcPort: uint16(1024 + x%60000),
		DstIP:   flow.MakeAddr(93, 184, byte(x>>16), byte(x>>24)),
		DstPort: uint16(1 + (x>>32)%1023),
		Proto:   flow.UDP,
	}
}

func (s *estSource) establish(send sendFunc) error {
	buf := make([]byte, smallFrame)
	for i := 0; i < s.p.background; i++ {
		t := craftInto(buf, natFlowID(&s.r, 172, i))
		out, err := send(&pkt{frame: t.frame, stampOff: t.stampOff, fromInternal: true, forward: true})
		if err != nil {
			return err
		}
		if out == nil {
			return fmt.Errorf("background flow %d refused", i)
		}
	}
	s.flows = make([]estFlow, s.p.active)
	for i := range s.flows {
		f, err := establishNAT(send, natFlowID(&s.r, 10, i))
		if err != nil {
			return err
		}
		s.flows[i] = f
	}
	return nil
}

// establishNAT opens one NAT session and builds the reply it will carry.
func establishNAT(send sendFunc, id flow.ID) (estFlow, error) {
	f := estFlow{out: craft(id, smallFrame), wantIn: id.Reverse()}
	out, err := send(&pkt{frame: f.out.frame, stampOff: f.out.stampOff, fromInternal: true, forward: true})
	if err != nil {
		return f, err
	}
	if out == nil {
		return f, fmt.Errorf("flow %v refused", id)
	}
	if f.wantOut, err = tupleOf(out); err != nil {
		return f, err
	}
	f.in = craft(f.wantOut.Reverse(), smallFrame)
	return f, nil
}

func (s *estSource) next(burst []pkt) {
	half := len(burst) / 2
	for i := range burst {
		f := &s.flows[s.r.intn(len(s.flows))]
		s.seq++
		if i < half {
			stamp(f.out.frame, f.out.stampOff, s.seq)
			burst[i] = pkt{frame: f.out.frame, stampOff: f.out.stampOff, fromInternal: true, forward: true, want: f.wantOut}
		} else {
			stamp(f.in.frame, f.in.stampOff, s.seq)
			burst[i] = pkt{frame: f.in.frame, stampOff: f.in.stampOff, forward: true, want: f.wantIn}
		}
	}
}

// ---- nat_churn ----

type churnParams struct {
	capacity int
	texp     time.Duration
}

func (p churnParams) sized(gate bool) churnParams {
	if gate {
		p.texp = 2 * time.Millisecond
	}
	return p
}

// fullChurn: at one virtual microsecond per packet a 59 ms timeout keeps
// 59,000 flows standing in a 65,535-flow table, so every packet expires
// about one flow and allocates one, and none is refused.
var fullChurn = churnParams{capacity: 65535, texp: 59 * time.Millisecond}

type churnSource struct {
	p    churnParams
	n    uint64 // tuples used so far; never reused within a run
	mask uint64
	dst  flow.ID
	seq  uint32
	bufs [][]byte
}

func newChurnSource(seed int64, p churnParams) *churnSource {
	r := newRng(seed, 2)
	x := r.next()
	return &churnSource{
		p:    p,
		mask: r.next() & 0xffffff,
		dst:  flow.ID{DstIP: flow.MakeAddr(93, 184, byte(x), byte(x>>8)), DstPort: uint16(1 + (x>>16)%1023)},
	}
}

// tuple returns the n-th flow: 60,000 source ports under each of 2^24
// source addresses, visited in an order the seed scrambles.
func (s *churnSource) tuple(n uint64) flow.ID {
	host := (n/60000 ^ s.mask) & 0xffffff
	return flow.ID{
		SrcIP:   flow.MakeAddr(10, byte(host>>16), byte(host>>8), byte(host)),
		SrcPort: uint16(1024 + n%60000),
		DstIP:   s.dst.DstIP,
		DstPort: s.dst.DstPort,
		Proto:   flow.UDP,
	}
}

func (s *churnSource) fresh(buf []byte) pkt {
	id := s.tuple(s.n)
	s.n++
	s.seq++
	t := craftInto(buf, id)
	stamp(t.frame, t.stampOff, s.seq)
	return pkt{
		frame: t.frame, stampOff: t.stampOff, fromInternal: true, forward: true,
		want:  flow.ID{SrcIP: natExtIP, DstIP: id.DstIP, DstPort: id.DstPort, Proto: id.Proto},
		loose: looseSrcPort,
	}
}

func (s *churnSource) establish(send sendFunc) error {
	buf := make([]byte, smallFrame)
	// One packet per virtual microsecond for one timeout fills the table
	// to its steady state.
	for i := time.Duration(0); i < s.p.texp/time.Microsecond; i++ {
		p := s.fresh(buf)
		out, err := send(&p)
		if err != nil {
			return err
		}
		if out == nil {
			return fmt.Errorf("fresh flow %d refused while filling", i)
		}
	}
	return nil
}

func (s *churnSource) next(burst []pkt) {
	for len(s.bufs) < len(burst) {
		s.bufs = append(s.bufs, make([]byte, smallFrame))
	}
	for i := range burst {
		burst[i] = s.fresh(s.bufs[i])
	}
}

// ---- gateway_chain ----

type gwParams struct {
	capacity int
	texp     time.Duration
	hosts    int // a power of two
}

func (p gwParams) sized(gate bool) gwParams {
	if gate {
		p.hosts, p.texp = 128, 4*time.Millisecond
	}
	return p
}

var fullGateway = gwParams{capacity: 16384, texp: 20 * time.Millisecond, hosts: 1024}

// The home gateway's addresses, as in examples/homegateway.
var (
	gwExtIP    = flow.MakeAddr(203, 0, 113, 77)
	gwVIP      = flow.MakeAddr(10, 53, 53, 53)
	gwBackends = []flow.Addr{
		flow.MakeAddr(9, 9, 9, 9), flow.MakeAddr(9, 9, 9, 10),
		flow.MakeAddr(9, 9, 9, 11), flow.MakeAddr(9, 9, 9, 12),
	}
)

const (
	gwDNSPort  = 53
	gwLongPort = 500 // established flows use source ports fresh flows never reach
	gwJunkPort = 40000
)

// gwSizes are the frame lengths of established traffic, drawn 7:4:1.
// The smallest is 64, not 60: a TCP header leaves a 60-byte frame no
// room for the stamp.
var gwSizes = [3]int{64, 576, 1500}

type gwFlow struct {
	out, in         [3]tmpl
	wantOut, wantIn flow.ID
}

type gwSource struct {
	p      gwParams
	r      rng
	flows  []gwFlow // flows[2h] is host h's long flow, flows[2h+1] its DNS flow
	stride uint64
	k      uint64 // established packets sent
	fresh  uint64 // fresh flows opened
	slot   int    // position in the 16-packet pattern
	seq    uint32
	bufs   [][]byte
}

func newGwSource(seed int64, p gwParams) *gwSource {
	r := newRng(seed, 3)
	return &gwSource{p: p, stride: r.next() | 1, r: r}
}

func gwHost(h int) flow.Addr { return flow.MakeAddr(192, 168, byte(4+h>>8), byte(h)) }

func (s *gwSource) establish(send sendFunc) error {
	s.flows = make([]gwFlow, 2*s.p.hosts)
	for h := 0; h < s.p.hosts; h++ {
		x := s.r.next()
		long := flow.ID{
			SrcIP: gwHost(h), SrcPort: gwLongPort,
			DstIP: flow.MakeAddr(151, 101, byte(x), byte(x>>8)), DstPort: 443, Proto: flow.TCP,
		}
		dns := flow.ID{SrcIP: gwHost(h), SrcPort: gwLongPort + 1, DstIP: gwVIP, DstPort: gwDNSPort, Proto: flow.UDP}
		for j, id := range []flow.ID{long, dns} {
			f := &s.flows[2*h+j]
			for z, n := range gwSizes {
				f.out[z] = craft(id, n)
			}
			out, err := send(&pkt{frame: f.out[0].frame, stampOff: f.out[0].stampOff, fromInternal: true, forward: true})
			if err != nil {
				return err
			}
			if out == nil {
				return fmt.Errorf("flow %v refused", id)
			}
			if f.wantOut, err = tupleOf(out); err != nil {
				return err
			}
			// The reply is addressed to what left the gateway; it must
			// reach the host from the address the host spoke to.
			f.wantIn = id.Reverse()
			for z, n := range gwSizes {
				f.in[z] = craft(f.wantOut.Reverse(), n)
			}
		}
	}
	return nil
}

// Of every 16 packets, two open a fresh flow, one is unsolicited junk
// from outside, and thirteen belong to established flows.
func (s *gwSource) next(burst []pkt) {
	for len(s.bufs) < len(burst) {
		s.bufs = append(s.bufs, make([]byte, 64))
	}
	for i := range burst {
		s.seq++
		var p pkt
		switch s.slot {
		case 0, 8:
			p = s.freshFlow(s.bufs[i], s.slot == 8)
		case 4:
			x := s.r.next()
			t := craftInto(s.bufs[i], flow.ID{
				SrcIP: flow.MakeAddr(198, 51, byte(x), byte(x>>8)), SrcPort: uint16(1024 + (x>>16)%60000),
				DstIP: gwExtIP, DstPort: uint16(gwJunkPort + (x>>40)%20000), Proto: flow.UDP,
			})
			p = pkt{frame: t.frame, stampOff: t.stampOff}
		default:
			p = s.established()
		}
		stamp(p.frame, p.stampOff, s.seq)
		burst[i] = p
		s.slot = (s.slot + 1) & 15
	}
}

// established walks the flows in a seeded order, so each one is touched
// once per round and never idles into its timeout, and alternates its
// direction from round to round.
func (s *gwSource) established() pkt {
	n := uint64(len(s.flows))
	f := &s.flows[(s.k*s.stride)%n]
	inbound := (s.k/n+s.k)&1 == 1
	s.k++
	z := 0
	switch x := s.r.intn(12); {
	case x >= 11:
		z = 2
	case x >= 7:
		z = 1
	}
	if inbound {
		return pkt{frame: f.in[z].frame, stampOff: f.in[z].stampOff, forward: true, want: f.wantIn}
	}
	return pkt{frame: f.out[z].frame, stampOff: f.out[z].stampOff, fromInternal: true, forward: true, want: f.wantOut}
}

// freshFlow opens a flow never seen before: a TCP connection to a remote
// server, or a DNS query to the balancer's VIP.
func (s *gwSource) freshFlow(buf []byte, dns bool) pkt {
	h := int(s.fresh % uint64(s.p.hosts))
	id := flow.ID{SrcIP: gwHost(h), SrcPort: uint16(1024 + (s.fresh/uint64(s.p.hosts))%60000)}
	s.fresh++
	p := pkt{fromInternal: true, forward: true, loose: looseSrcPort}
	if dns {
		id.DstIP, id.DstPort, id.Proto = gwVIP, gwDNSPort, flow.UDP
		p.loose |= looseDstIP
		t := craftInto(buf, id)
		p.frame, p.stampOff = t.frame, t.stampOff
	} else {
		x := s.r.next()
		id.DstIP, id.DstPort, id.Proto = flow.MakeAddr(151, 101, byte(x), byte(x>>8)), 443, flow.TCP
		spec := netstack.FrameSpec{ID: id, PayloadLen: 10}
		p.frame = netstack.Craft(buf, &spec)
		p.stampOff = len(p.frame) - 10
	}
	p.want = flow.ID{SrcIP: gwExtIP, DstIP: id.DstIP, DstPort: id.DstPort, Proto: id.Proto}
	return p
}

// matches reports whether got is what p promised, leaving out the fields
// the NF chooses.
func (p *pkt) matches(got flow.ID) bool {
	if p.loose&looseSrcPort != 0 {
		got.SrcPort = p.want.SrcPort
	}
	if p.loose&looseDstIP != 0 {
		got.DstIP = p.want.DstIP
	}
	return got == p.want
}
