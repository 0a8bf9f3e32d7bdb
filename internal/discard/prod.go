package discard

import (
	"errors"

	"vignat/internal/libvig"
	"vignat/internal/netstack"
)

// Packet is the discard NF's view of a packet: just its target port,
// exactly as in the paper's struct packet.
type Packet struct {
	Port uint16
}

// NF is the production discard NF: the verified Iteration logic bound to
// a real libVig ring and a pair of I/O callbacks. It mirrors Fig. 1's
// main(): create the ring, loop.
type NF struct {
	ring *libvig.Ring[Packet]
	env  prodEnv

	received  uint64
	discarded uint64
	sent      uint64
}

// RingCapacity matches Fig. 1's CAP.
const RingCapacity = 512

// New builds the discard NF. recv non-blockingly supplies the next
// inbound packet; send transmits one outbound packet and reports whether
// the interface accepted it.
func New(recv func() (Packet, bool), send func(Packet) bool) (*NF, error) {
	if recv == nil || send == nil {
		return nil, errors.New("discard: nil I/O callbacks")
	}
	r, err := libvig.NewRing[Packet](RingCapacity)
	if err != nil {
		return nil, err
	}
	nf := &NF{ring: r}
	nf.env = prodEnv{nf: nf, recv: recv, send: send}
	return nf, nil
}

// Stats returns (received, discarded, sent) counts.
func (nf *NF) Stats() (received, discarded, sent uint64) {
	return nf.received, nf.discarded, nf.sent
}

// RunOnce executes one loop iteration: prodIteration, the verified
// Iteration instantiated at *prodEnv (process_gen.go, written by
// vigor/instgen).
func (nf *NF) RunOnce() {
	e := &nf.env
	e.got = false
	prodIteration(e)
}

// FromFrame extracts the discard NF's packet view from a raw frame.
// Non-IPv4 or non-TCP/UDP frames yield port 0 (forwarded — the discard
// protocol only filters port 9).
func FromFrame(frame []byte) Packet {
	var p netstack.Packet
	if err := p.Parse(frame); err != nil || !p.NATable() {
		return Packet{Port: 0}
	}
	return Packet{Port: p.DstPort}
}

// prodEnv binds Env to the real ring and I/O.
type prodEnv struct {
	nf   *NF
	recv func() (Packet, bool)
	send func(Packet) bool

	cur Packet
	got bool
}

var _ Env = (*prodEnv)(nil)

func (e *prodEnv) RingFull() bool { return e.nf.ring.Full() }

func (e *prodEnv) Receive() bool {
	p, ok := e.recv()
	if ok {
		e.cur = p
		e.got = true
		e.nf.received++
	}
	return ok
}

func (e *prodEnv) PacketHasPort9() bool {
	is9 := e.cur.Port == 9
	if is9 {
		e.nf.discarded++
	}
	return is9
}

func (e *prodEnv) RingPush() {
	// The stateless logic guarantees !RingFull, so this cannot fail;
	// the error path exists because contracts are checked, not assumed.
	_ = e.nf.ring.PushBack(e.cur)
}

func (e *prodEnv) RingEmpty() bool { return e.nf.ring.Empty() }

func (e *prodEnv) CanSend() bool { return true }

func (e *prodEnv) RingPop() PacketHandle {
	p, err := e.nf.ring.PopFront()
	if err != nil {
		return PacketHandle(-1)
	}
	e.cur = p
	return PacketHandle(0)
}

func (e *prodEnv) Send(h PacketHandle) {
	if e.send(e.cur) {
		e.nf.sent++
	}
}
