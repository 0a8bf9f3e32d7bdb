package discard

import (
	"vignat/internal/nf/nfkit"
	"vignat/internal/nf/telemetry"
	"vignat/internal/vigor/sym"
)

// ringSym drives Iteration under the engine via the kit driver: the
// ring and I/O predicates are fork points, ring_pop_front is the model
// of the libVig ring's PopFront, whose contract (Fig. 3) is that the
// popped packet satisfies packet_constraints — it does not target port
// 9 — because ring_push_back admitted only such packets (the loop
// invariant of Fig. 2, which RingPush's P4 checks discharge). Fig. 4's
// under-approximate model (c) claims more: the popped packet's port is
// 0.
type ringSym struct{ d *nfkit.SymDriver }

var _ Env = ringSym{}

func (e ringSym) RingFull() bool {
	full := e.d.Guard("ring_full")
	e.d.Set("ring_room", !full)
	return full
}

func (e ringSym) Receive() bool { return e.d.GuardFlag("receive", "received") }

func (e ringSym) PacketHasPort9() bool {
	e.d.Require(e.d.Flag("received"), "P2: packet port read without a received packet")
	is9 := e.d.Guard("packet_has_port9")
	e.d.Set("not_port9", !is9)
	return is9
}

func (e ringSym) RingPush() {
	// ring_push_back pre-conditions: room in the ring, and the loop
	// invariant that pushed packets satisfy packet_constraints.
	e.d.Require(e.d.Flag("ring_room"), "P4: ring_push_back without checking ring_full")
	e.d.Require(e.d.Flag("received"), "P4: ring_push_back without a received packet")
	e.d.Require(e.d.Flag("not_port9"), "P4: ring_push_back may violate the ring invariant (port 9 unchecked)")
	e.d.Note("ring_push_back")
}

func (e ringSym) RingEmpty() bool {
	empty := e.d.Guard("ring_empty")
	e.d.Set("ring_holds", !empty)
	return empty
}

func (e ringSym) CanSend() bool { return e.d.Guard("can_send") }

func (e ringSym) RingPop() PacketHandle {
	e.d.Require(e.d.Flag("ring_holds"), "P4: ring_pop_front without checking ring_empty")
	h := e.d.Mint("packet_port")
	port := e.d.HVar(h, "packet_port")
	e.d.NoteOn("ring_pop_front", h)
	e.d.Bind(h, "Ring.PopFront", []sym.Atom{sym.NeVC(port, 9)}, sym.EqVC(port, 0))
	return PacketHandle(h)
}

func (e ringSym) Send(h PacketHandle) {
	e.d.Require(e.d.Valid(int(h)), "P2: send of a packet that was never popped")
	e.d.NoteOn("send", int(h))
}

// RingSym is the §3 example's symbolic declaration: Fig. 1's loop body
// (Iteration) over the ring model, with the semantic property that the
// NF never yields a packet with target port 9 (the paper's ll.24-26
// weaving: assert(sent_packet->port != 9)). An iteration may idle or
// only buffer, so it declares no output actions.
func RingSym() *nfkit.SymSpec {
	return &nfkit.SymSpec{
		NF:    "discard-ring",
		Drive: func(d *nfkit.SymDriver) { Iteration(ringSym{d}) },
		Spec: func(p *nfkit.SymPath) (telemetry.ReasonID, error) {
			sent := p.Find("send")
			if sent == nil {
				return 0, nil
			}
			return 0, p.Holds("sent packet's port", sym.NeVC(p.HVar(sent.Handle, "packet_port"), 9))
		},
	}
}
