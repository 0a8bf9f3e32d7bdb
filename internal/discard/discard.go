// Package discard implements the paper's §3 running example: a trivial
// NF for the discard protocol (RFC 863) that receives packets on one
// interface, discards the ones addressed to port 9, and forwards the
// rest through another interface, buffering bursts in a libVig ring
// (Fig. 1). It exists to demonstrate the Vigor toolchain end to end on
// a small NF: the stateless logic below goes through the same symbolic
// execution + lazy validation pipeline as the NAT (RingSym), including
// the three ring models of Fig. 4 and their distinct failure modes.
package discard

// PacketHandle is an opaque reference to a buffered packet, analogous to
// the NAT's FlowHandle.
type PacketHandle int

// Env is the discard NF's window onto the world, mirroring the calls of
// Fig. 1: ring operations, network I/O, and the port-9 predicate.
type Env interface {
	// RingFull reports whether the burst ring is full (Fig. 1 l.9).
	RingFull() bool
	// Receive non-blockingly reads an inbound packet (l.10); returns
	// false when no packet is pending.
	Receive() bool
	// PacketHasPort9 reports whether the just-received packet targets
	// port 9 (l.10's p.port != 9 check). Requires a successful Receive
	// this iteration.
	PacketHasPort9() bool
	// RingPush buffers the received packet (l.11). Requires Receive
	// succeeded, the packet does not target port 9, and the ring is not
	// full — the ring contract's pre-condition plus the loop invariant
	// of Fig. 2.
	RingPush()
	// RingEmpty reports whether the ring holds no packets (l.12).
	RingEmpty() bool
	// CanSend reports whether the outbound interface can accept a
	// packet (l.12).
	CanSend() bool
	// RingPop removes the packet at the front of the ring (l.13).
	// Requires the ring non-empty.
	RingPop() PacketHandle
	// Send transmits the popped packet (l.14).
	Send(h PacketHandle)
}

// Iteration is one pass of Fig. 1's event loop body (ll.8-16): buffer an
// acceptable inbound packet if there is room, then forward one buffered
// packet if possible. Like the NAT's ProcessPacket, it is written once:
// the symbolic engine executes it, and the production binding its body,
// generated as prodIteration over *prodEnv by vigor/instgen.
func Iteration(env Env) {
	if !env.RingFull() {
		if env.Receive() && !env.PacketHasPort9() {
			env.RingPush()
		}
	}
	if !env.RingEmpty() && env.CanSend() {
		h := env.RingPop()
		env.Send(h)
	}
}
