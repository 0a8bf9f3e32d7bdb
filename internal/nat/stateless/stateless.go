// Package stateless contains VigNAT's stateless per-packet logic — the
// code the paper verifies by exhaustive symbolic execution (§5.2.1).
//
// The logic is written exactly once, against the Env interface. The
// NAT's declaration (internal/nat's symspec.go) binds Env to the kit's
// symbolic models, which fork the engine (internal/vigor/symbex) at
// every predicate and record symbolic traces, and nfkit.VerifySym
// proves every path. The production dataplane (internal/nat) runs the
// same body bound to the real libVig flow table and the dpdk substrate:
// where the paper links one C file against two libraries, vigor/instgen
// copies this function's body, byte for byte, into internal/nat as
// prodProcessPacket, taking the concrete *prodEnv instead of Env, so
// that no env call is an interface dispatch. Regenerating the copy is a
// test, and so is running one trace through both.
//
// Because all state access and all packet-content branching go through
// Env, the function body below contains no other control-flow inputs:
// the set of execution paths is exactly the set of Env-decision
// combinations, which is what makes exhaustive symbolic execution
// terminate quickly (108 paths for the paper's NAT; 11 here).
package stateless

// FlowHandle is an opaque reference to a flow-table entry. Per the libVig
// pointer discipline (§5.2.4) the stateless code may copy and compare
// handles but must not fabricate them: the only sources are Lookup* and
// AllocateFlow, and a handle dies at the end of the loop iteration.
type FlowHandle int

// Verdict is the externally visible outcome for one packet. It is what
// the RFC 3022 specification constrains.
type Verdict uint8

// Verdicts.
const (
	// VerdictDrop: the packet was dropped (Fig. 6 l.39 or non-NATable).
	VerdictDrop Verdict = iota
	// VerdictToExternal: rewritten (src := EXT_IP:extPort) and forwarded
	// out the external interface (Fig. 6 ll.21-28).
	VerdictToExternal
	// VerdictToInternal: rewritten (dst := intIP:intPort) and forwarded
	// out the internal interface (Fig. 6 ll.29-37).
	VerdictToInternal
)

// String returns the verdict mnemonic.
func (v Verdict) String() string {
	switch v {
	case VerdictDrop:
		return "drop"
	case VerdictToExternal:
		return "fwd-external"
	case VerdictToInternal:
		return "fwd-internal"
	default:
		return "verdict(?)"
	}
}

// Env is the stateless code's entire window onto the world: packet
// predicates, libVig state operations, and output actions. Every method
// that returns a bool is a potential fork point for the symbolic engine.
type Env interface {
	// --- Packet predicates (parsing decision chain). The production
	// env computes them from the received frame; the symbolic env forks
	// and records the constraint. Order matters: later predicates may
	// only be called when the earlier ones returned true, which the
	// symbolic models enforce (a P4-style usage contract).

	// FrameIntact reports the frame is at least an Ethernet header.
	FrameIntact() bool
	// EtherIsIPv4 reports EtherType == 0x0800. Requires FrameIntact.
	EtherIsIPv4() bool
	// IPv4HeaderValid reports version/IHL/total-length are coherent and
	// the full header is present. Requires EtherIsIPv4.
	IPv4HeaderValid() bool
	// NotFragment reports the packet is not an IP fragment (fragments
	// carry no reliable L4 header, so traditional NAT drops them).
	// Requires IPv4HeaderValid.
	NotFragment() bool
	// L4Supported reports protocol is TCP or UDP. Requires NotFragment.
	L4Supported() bool
	// L4HeaderIntact reports the TCP/UDP header is fully present.
	// Requires L4Supported.
	L4HeaderIntact() bool
	// PacketFromInternal reports the packet arrived on the internal
	// interface. Requires nothing (ports are metadata, not payload).
	PacketFromInternal() bool

	// --- libVig operations (symbolic models during verification).

	// ExpireFlows removes every flow older than now−Texp (Fig. 6 l.2).
	ExpireFlows()
	// LookupInternal finds the flow whose internal key matches the
	// packet 5-tuple. Requires L4HeaderIntact && PacketFromInternal.
	LookupInternal() (FlowHandle, bool)
	// LookupExternal finds the flow whose external key matches the
	// packet 5-tuple. Requires L4HeaderIntact && !PacketFromInternal.
	LookupExternal() (FlowHandle, bool)
	// AllocateFlow creates a flow for the packet's internal key,
	// allocating an external port. Fails (false) when the flow table is
	// full or no port is free — Fig. 6 l.15's capacity check.
	// Requires PacketFromInternal and LookupInternal having just missed.
	AllocateFlow() (FlowHandle, bool)
	// Rejuvenate refreshes the flow's timestamp (Fig. 6 ll.11-12).
	// Requires h from a Lookup on this iteration.
	Rejuvenate(h FlowHandle)

	// --- Output actions (exactly one per packet).

	// EmitExternal rewrites source to EXT_IP:extPort(h) and forwards out
	// the external interface.
	EmitExternal(h FlowHandle)
	// EmitInternal rewrites destination to intIP(h):intPort(h) and
	// forwards out the internal interface.
	EmitInternal(h FlowHandle)
	// Drop discards the packet.
	Drop()
}

// ProcessPacket is the stateless NAT: a direct transcription of the
// paper's Fig. 6 (expire → update → forward). It must remain free of any
// state or branching not routed through env — the verification result
// applies to this function, and the production NF executes its body
// (internal/nat's prodProcessPacket, generated from it).
func ProcessPacket(env Env) {
	// Packet P arrives at time t → expire_flows(t)  (Fig. 6 l.2).
	env.ExpireFlows()

	// Parsing chain: anything traditional NAT cannot translate is
	// dropped. Each predicate is a verified fork point.
	if !env.FrameIntact() || !env.EtherIsIPv4() || !env.IPv4HeaderValid() ||
		!env.NotFragment() || !env.L4Supported() || !env.L4HeaderIntact() {
		env.Drop()
		return
	}

	if env.PacketFromInternal() {
		// update_flow: rejuvenate on hit, insert on miss (Fig. 6
		// ll.10-19); forward: rewrite toward external (ll.20-28).
		h, ok := env.LookupInternal()
		if ok {
			env.Rejuvenate(h)
		} else {
			h, ok = env.AllocateFlow()
		}
		if ok {
			env.EmitExternal(h)
		} else {
			env.Drop()
		}
		return
	}

	// External packet: never creates state (Fig. 6 l.14 guards insert
	// with P.iface = internal); forwarded only if a session exists.
	h, ok := env.LookupExternal()
	if ok {
		env.Rejuvenate(h)
		env.EmitInternal(h)
	} else {
		env.Drop()
	}
}
