package nat

import (
	"fmt"

	"vignat/internal/nat/stateless"
	"vignat/internal/nf/nfkit"
	"vignat/internal/nf/telemetry"
	"vignat/internal/vigor/sym"
)

// This file is the NAT's symbolic declaration in the kit's *derived*
// form. The NAT's original proof predates the kit and stays on the
// richer CallKind/validator pipeline in vigor/symbex — it is the
// paper's artifact and remains the authoritative verification. This
// declaration re-expresses the same decision structure through the
// shared SymDriver so the NAT participates in the derived cross-checks
// every other NF gets from its declaration — in particular the
// reason-taxonomy/path conformance (VerifyReasons), which needs each
// path's reason named over the kit's SymPath vocabulary.

// natSym drives stateless.ProcessPacket under the engine via the kit
// driver; the parse chain and the arrival side are the kit's guard set.
type natSym struct{ nfkit.SymGuards }

var _ stateless.Env = natSym{}

func (e natSym) ExpireFlows() { e.D.Note("expire_flows") }

// flowVarNames are the model variables every minted flow handle
// carries: the flow's internal 5-tuple and its allocated external port.
var flowVarNames = []string{
	"flow_int_src_ip", "flow_int_src_port", "flow_int_dst_ip", "flow_int_dst_port",
	"flow_proto", "flow_ext_port",
}

// mintIntFlow mints a flow handle whose internal tuple is bound to the
// packet tuple (the contract atoms of the flow-table model for
// internal-side matches and allocations).
func (e natSym) mintIntFlow() stateless.FlowHandle {
	h := e.D.Mint(flowVarNames...)
	e.D.Bind(h,
		sym.EqVV(e.D.HVar(h, "flow_int_src_ip"), e.D.Var("pkt_src_ip")),
		sym.EqVV(e.D.HVar(h, "flow_int_src_port"), e.D.Var("pkt_src_port")),
		sym.EqVV(e.D.HVar(h, "flow_int_dst_ip"), e.D.Var("pkt_dst_ip")),
		sym.EqVV(e.D.HVar(h, "flow_int_dst_port"), e.D.Var("pkt_dst_port")),
		sym.EqVV(e.D.HVar(h, "flow_proto"), e.D.Var("pkt_proto")),
	)
	return stateless.FlowHandle(h)
}

func (e natSym) LookupInternal() (stateless.FlowHandle, bool) {
	e.D.Require(e.D.Flag("l4"), "P2: flow key from unvalidated L4 header")
	e.D.Require(e.D.Flag("iface_known") && e.D.Flag("from_internal"),
		"P4: internal lookup for a non-internal packet")
	if !e.D.Decide("flow_get_by_int_key") {
		e.D.Set("missed_int", true)
		return 0, false
	}
	return e.mintIntFlow(), true
}

func (e natSym) LookupExternal() (stateless.FlowHandle, bool) {
	e.D.Require(e.D.Flag("l4"), "P2: flow key from unvalidated L4 header")
	e.D.Require(e.D.Flag("iface_known") && !e.D.Flag("from_internal"),
		"P4: external lookup for a non-external packet")
	if !e.D.Decide("flow_get_by_ext_key") {
		return 0, false
	}
	// Contract: the found flow's external port is the packet's
	// destination port (the reply names the flow by its allocation).
	h := e.D.Mint(flowVarNames...)
	e.D.Bind(h,
		sym.EqVV(e.D.HVar(h, "flow_ext_port"), e.D.Var("pkt_dst_port")),
		sym.EqVV(e.D.HVar(h, "flow_proto"), e.D.Var("pkt_proto")),
	)
	return stateless.FlowHandle(h), true
}

func (e natSym) AllocateFlow() (stateless.FlowHandle, bool) {
	e.D.Require(e.D.Flag("missed_int"), "P4: flow allocation without a preceding internal miss")
	if !e.D.Decide("flow_allocate") {
		return 0, false
	}
	return e.mintIntFlow(), true
}

func (e natSym) Rejuvenate(h stateless.FlowHandle) {
	e.D.Require(e.D.Valid(int(h)), "P2: rejuvenate on invalid flow handle %d", h)
	e.D.NoteOn("dchain_rejuvenate", int(h))
}

func (e natSym) EmitExternal(h stateless.FlowHandle) {
	e.D.Require(e.D.Valid(int(h)), "P2: emit via invalid flow handle %d", h)
	e.D.Output("emit_external")
}

func (e natSym) EmitInternal(h stateless.FlowHandle) {
	e.D.Require(e.D.Valid(int(h)), "P2: emit via invalid flow handle %d", h)
	e.D.Output("emit_internal")
}

func (e natSym) Drop() { e.D.Output("drop") }

// symSpec is the NAT's derived symbolic declaration.
func symSpec() *nfkit.SymSpec {
	return &nfkit.SymSpec{
		NF:      "vignat",
		Outputs: []string{"emit_external", "emit_internal", "drop"},
		Drive:   func(d *nfkit.SymDriver) { stateless.ProcessPacket(natSym{nfkit.SymGuards{D: d}}) },
		Spec:    checkSpec,
	}
}

// VerifyDerived runs the kit-derived pipeline on the NAT's stateless
// logic (the bespoke vigor/symbex proof remains the authoritative one;
// see vignat/internal/vigor).
func VerifyDerived() (*nfkit.Report, error) {
	return nfkit.VerifySym(*symSpec())
}

// checkSpec is the NAT's RFC 3022 specification in the derived trace
// form: the same decision tree the bespoke validator enforces. Each
// branch names the reason of the outcome it demands.
func checkSpec(p *nfkit.SymPath) (telemetry.ReasonID, error) {
	if !p.Parseable() {
		return p.Judge("non-NATable packet", "drop", ReasonDropParse)
	}
	fromInternal, ok := p.Ret("packet_from_internal")
	if !ok {
		return 0, fmt.Errorf("interface never determined")
	}
	if fromInternal {
		hit, _ := p.Ret("flow_get_by_int_key")
		created, createdAsked := p.Ret("flow_allocate")
		if !hit && !(createdAsked && created) {
			return p.Judge("internal packet without table capacity", "drop", ReasonDropTableFull)
		}
		r, err := p.Judge("internal packet with a flow", "emit_external", ReasonFwdOut)
		if err != nil {
			return 0, err
		}
		// The matched/created flow must really be the packet's.
		bind := p.Find("flow_get_by_int_key")
		if !hit {
			bind = p.Find("flow_allocate")
		}
		if !p.HasHandle(bind.Handle) {
			return 0, fmt.Errorf("emitting via unknown flow handle %d", bind.Handle)
		}
		want := []sym.Atom{
			sym.EqVV(p.HVar(bind.Handle, "flow_int_src_ip"), p.Var("pkt_src_ip")),
			sym.EqVV(p.HVar(bind.Handle, "flow_int_src_port"), p.Var("pkt_src_port")),
			sym.EqVV(p.HVar(bind.Handle, "flow_proto"), p.Var("pkt_proto")),
		}
		if ok, failing := p.EntailsAll(want...); !ok {
			return 0, fmt.Errorf("flow binding not entailed: %v", failing)
		}
		return r, nil
	}
	if hit, _ := p.Ret("flow_get_by_ext_key"); !hit {
		return p.Judge("unsolicited external packet", "drop", ReasonDropUnsolicited)
	}
	r, err := p.Judge("external packet of a live flow", "emit_internal", ReasonFwdIn)
	if err != nil {
		return 0, err
	}
	c := p.Find("flow_get_by_ext_key")
	if !p.HasHandle(c.Handle) {
		return 0, fmt.Errorf("emitting via unknown flow handle %d", c.Handle)
	}
	want := []sym.Atom{
		sym.EqVV(p.HVar(c.Handle, "flow_ext_port"), p.Var("pkt_dst_port")),
		sym.EqVV(p.HVar(c.Handle, "flow_proto"), p.Var("pkt_proto")),
	}
	if ok, failing := p.EntailsAll(want...); !ok {
		return 0, fmt.Errorf("reply match not entailed: %v", failing)
	}
	return r, nil
}
