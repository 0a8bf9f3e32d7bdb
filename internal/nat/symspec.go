package nat

import (
	"fmt"

	"vignat/internal/nat/stateless"
	"vignat/internal/nf/nfkit"
	"vignat/internal/nf/telemetry"
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
// driver: the parse chain and the arrival side are the kit's guard set,
// the flow-table operations the kit's model of them.
type natSym struct {
	nfkit.SymGuards
	flows nfkit.SymFlowTable[stateless.FlowHandle]
}

var _ stateless.Env = natSym{}

// newNatSym binds the kit's flow-table model to the NAT's vocabulary:
// a flow handle carries the flow's internal 5-tuple and its allocated
// external port; found or created by internal key, its internal tuple
// is the packet's; found by external key, its external port is the
// packet's destination port (the reply names the flow by its
// allocation).
func newNatSym(d *nfkit.SymDriver) natSym {
	return natSym{nfkit.SymGuards{D: d}, nfkit.SymFlowTable[stateless.FlowHandle]{
		D: d, Noun: "flow", FstSide: []string{"from_internal"},
		GetFst: "flow_get_by_int_key", GetSnd: "flow_get_by_ext_key", Create: "flow_allocate",
		Vars: []string{"flow_int_src_ip", "flow_int_src_port", "flow_int_dst_ip", "flow_int_dst_port",
			"flow_proto", "flow_ext_port"},
		Fst: [][2]string{{"flow_int_src_ip", "pkt_src_ip"}, {"flow_int_src_port", "pkt_src_port"},
			{"flow_int_dst_ip", "pkt_dst_ip"}, {"flow_int_dst_port", "pkt_dst_port"}, {"flow_proto", "pkt_proto"}},
		Snd: [][2]string{{"flow_ext_port", "pkt_dst_port"}, {"flow_proto", "pkt_proto"}},
	}}
}

func (e natSym) ExpireFlows() { e.D.Note("expire_flows") }

func (e natSym) LookupInternal() (stateless.FlowHandle, bool) { return e.flows.LookupFst() }
func (e natSym) LookupExternal() (stateless.FlowHandle, bool) { return e.flows.LookupSnd() }
func (e natSym) AllocateFlow() (stateless.FlowHandle, bool)   { return e.flows.Add(nil) }
func (e natSym) Rejuvenate(h stateless.FlowHandle)            { e.flows.Rejuvenate(h) }

func (e natSym) EmitExternal(h stateless.FlowHandle) {
	e.flows.Held(h, "emit via")
	e.D.Output("emit_external")
}

func (e natSym) EmitInternal(h stateless.FlowHandle) {
	e.flows.Held(h, "emit via")
	e.D.Output("emit_internal")
}

func (e natSym) Drop() { e.D.Output("drop") }

// symSpec is the NAT's derived symbolic declaration.
func symSpec() *nfkit.SymSpec {
	return &nfkit.SymSpec{
		NF:      "vignat",
		Outputs: []string{"emit_external", "emit_internal", "drop"},
		Drive:   func(d *nfkit.SymDriver) { stateless.ProcessPacket(newNatSym(d)) },
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
		call := "flow_get_by_int_key"
		if !hit {
			call = "flow_allocate"
		}
		return r, p.Bound(call, [2]string{"flow_int_src_ip", "pkt_src_ip"},
			[2]string{"flow_int_src_port", "pkt_src_port"}, [2]string{"flow_proto", "pkt_proto"})
	}
	if hit, _ := p.Ret("flow_get_by_ext_key"); !hit {
		return p.Judge("unsolicited external packet", "drop", ReasonDropUnsolicited)
	}
	r, err := p.Judge("external packet of a live flow", "emit_internal", ReasonFwdIn)
	if err != nil {
		return 0, err
	}
	return r, p.Bound("flow_get_by_ext_key",
		[2]string{"flow_ext_port", "pkt_dst_port"}, [2]string{"flow_proto", "pkt_proto"})
}
