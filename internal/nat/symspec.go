package nat

import (
	"fmt"

	"vignat/internal/nat/stateless"
	"vignat/internal/nf/nfkit"
	"vignat/internal/nf/telemetry"
	"vignat/internal/vigor/sym"
)

// This file is the NAT's symbolic declaration, the one its proof runs
// on (nfkit.VerifySym, the same pipeline every NF here is verified by):
// an Env binding the kit's guard set and flow-table model to the NAT's
// vocabulary, and checkSpec, the RFC 3022 specification of Fig. 6 in
// trace form.

// natSym drives stateless.ProcessPacket under the engine via the kit
// driver: the parse chain and the arrival side are the kit's guard set,
// the flow-table operations the kit's model of them.
type natSym struct {
	nfkit.SymGuards
	flows nfkit.SymFlowTable[stateless.FlowHandle]
}

var _ stateless.Env = natSym{}

// newNatSym binds the kit's flow-table model to the NAT's vocabulary
// for cfg's deployment. A flow handle carries the flow's internal
// 5-tuple and its external endpoint; its external key is the internal
// destination (the remote peer), the external endpoint, and the
// protocol. Found or created by internal key, its internal tuple is the
// packet's; found by external key, that whole key is the packet's. Every
// flow the table hands back sits behind EXT_IP with its port in
// [PortBase, PortBase+Capacity) — the dmap contract's record invariant,
// which Fig. 4's under-approximate model narrows to the base port.
func newNatSym(d *nfkit.SymDriver, cfg Config) natSym {
	base := uint64(cfg.PortBase)
	return natSym{nfkit.SymGuards{D: d}, nfkit.SymFlowTable[stateless.FlowHandle]{
		D: d, Noun: "flow", FstSide: []string{"from_internal"},
		GetFst: "flow_get_by_int_key", GetSnd: "flow_get_by_ext_key", Create: "flow_allocate",
		Vars: []string{"flow_int_src_ip", "flow_int_src_port", "flow_int_dst_ip", "flow_int_dst_port",
			"flow_proto", "flow_ext_ip", "flow_ext_port"},
		Fst: [][2]string{{"flow_int_src_ip", "pkt_src_ip"}, {"flow_int_src_port", "pkt_src_port"},
			{"flow_int_dst_ip", "pkt_dst_ip"}, {"flow_int_dst_port", "pkt_dst_port"}, {"flow_proto", "pkt_proto"}},
		Snd: [][2]string{{"flow_int_dst_ip", "pkt_src_ip"}, {"flow_int_dst_port", "pkt_src_port"},
			{"flow_ext_ip", "pkt_dst_ip"}, {"flow_ext_port", "pkt_dst_port"}, {"flow_proto", "pkt_proto"}},
		Inv: func(h int) []sym.Atom {
			return []sym.Atom{
				sym.EqVV(d.HVar(h, "flow_ext_ip"), d.Var("ext_ip")),
				sym.GeVC(d.HVar(h, "flow_ext_port"), base),
				sym.LeVC(d.HVar(h, "flow_ext_port"), base+uint64(cfg.Capacity)-1),
			}
		},
		Pin: "flow_ext_port", PinAt: base,
	}}
}

func (e natSym) ExpireFlows() { e.D.Expire("expire_flows") }

func (e natSym) LookupInternal() (stateless.FlowHandle, bool) { return e.flows.LookupFst() }
func (e natSym) LookupExternal() (stateless.FlowHandle, bool) { return e.flows.LookupSnd() }
func (e natSym) AllocateFlow() (stateless.FlowHandle, bool)   { return e.flows.Add(nil) }
func (e natSym) Rejuvenate(h stateless.FlowHandle)            { e.flows.Rejuvenate(h) }

// EmitExternal rewrites the source to the flow's external endpoint.
func (e natSym) EmitExternal(h stateless.FlowHandle) {
	e.emit("emit_external", h, "src", "flow_ext_ip", "flow_ext_port")
}

// EmitInternal rewrites the destination to the flow's internal source.
func (e natSym) EmitInternal(h stateless.FlowHandle) {
	e.emit("emit_internal", h, "dst", "flow_int_src_ip", "flow_int_src_port")
}

func (e natSym) Drop() { e.D.Output("drop") }

// emit records output out via flow h: the packet's side ("src" or
// "dst") becomes the flow's ip/port variables, and the other side and
// the protocol are preserved.
func (e natSym) emit(out string, h stateless.FlowHandle, side, ip, port string) {
	e.flows.Held(h, "emit via")
	if !e.D.Valid(int(h)) {
		e.D.Output(out)
		return
	}
	keep := "src"
	if side == "src" {
		keep = "dst"
	}
	v := e.D.Var
	e.D.Output(out,
		sym.EqVV(v("out_"+side+"_ip"), e.D.HVar(int(h), ip)),
		sym.EqVV(v("out_"+side+"_port"), e.D.HVar(int(h), port)),
		sym.EqVV(v("out_"+keep+"_ip"), v("pkt_"+keep+"_ip")),
		sym.EqVV(v("out_"+keep+"_port"), v("pkt_"+keep+"_port")),
		sym.EqVV(v("out_proto"), v("pkt_proto")))
}

// symSpecFor is the NAT's symbolic-verification declaration for cfg's
// deployment over the given stateless logic; the Kit declaration hangs
// off it, and tests use it to demonstrate that buggy variants fail. The
// range proved is the one cfg deploys, Validate's defaults applied; a
// configuration Validate rejects fails every path.
func symSpecFor(cfg Config, logic func(stateless.Env)) *nfkit.SymSpec {
	err := cfg.Validate()
	return &nfkit.SymSpec{
		NF:      "vignat",
		Outputs: []string{"emit_external", "emit_internal", "drop"},
		Drive: func(d *nfkit.SymDriver) {
			d.Require(err == nil, "config: %v", err)
			logic(newNatSym(d, cfg))
		},
		Spec: checkSpec,
	}
}

// checkSpec is the NAT's RFC 3022 specification in trace form (Fig. 6's
// decision tree). It consults only the fork decisions; what a forwarded
// packet must look like it demands of the path constraints, which only
// the models' claims and the emits' rewrites feed. Each branch names the
// reason of the outcome it demands.
func checkSpec(p *nfkit.SymPath) (telemetry.ReasonID, error) {
	if !p.Parseable() {
		return p.Judge("non-NATable packet", "drop", ReasonDropParse)
	}
	fromInternal, ok := p.Ret("packet_from_internal")
	if !ok {
		return 0, fmt.Errorf("interface never determined")
	}
	v := p.Var
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
		// Fig. 6 ll.10-28: the session used is the packet's (F(P) = G),
		// and the packet leaves from EXT_IP at the session's port, its
		// destination preserved.
		call := "flow_get_by_int_key"
		if !hit {
			call = "flow_allocate"
		}
		if err := p.Bound(call, [2]string{"flow_int_src_ip", "pkt_src_ip"}, [2]string{"flow_int_src_port", "pkt_src_port"},
			[2]string{"flow_int_dst_ip", "pkt_dst_ip"}, [2]string{"flow_int_dst_port", "pkt_dst_port"},
			[2]string{"flow_proto", "pkt_proto"}); err != nil {
			return 0, err
		}
		return r, p.Holds("outbound rewrite",
			sym.EqVV(v("out_src_ip"), v("ext_ip")),
			sym.EqVV(v("out_src_port"), p.HVar(p.Find(call).Handle, "flow_ext_port")),
			sym.EqVV(v("out_dst_ip"), v("pkt_dst_ip")), sym.EqVV(v("out_dst_port"), v("pkt_dst_port")),
			sym.EqVV(v("out_proto"), v("pkt_proto")))
	}
	// External packet: never creates state (Fig. 6 l.14), forwarded only
	// to a live session (ll.29-37).
	if p.Find("flow_allocate") != nil {
		return 0, fmt.Errorf("external packet attempted flow creation")
	}
	if hit, _ := p.Ret("flow_get_by_ext_key"); !hit {
		return p.Judge("unsolicited external packet", "drop", ReasonDropUnsolicited)
	}
	r, err := p.Judge("external packet of a live flow", "emit_internal", ReasonFwdIn)
	if err != nil {
		return 0, err
	}
	// The session matched is the packet's — its whole external key is
	// the packet's 5-tuple — and the packet reaches the session's
	// internal endpoint, its source preserved.
	if err := p.Bound("flow_get_by_ext_key", [2]string{"flow_int_dst_ip", "pkt_src_ip"},
		[2]string{"flow_int_dst_port", "pkt_src_port"}, [2]string{"flow_ext_ip", "pkt_dst_ip"},
		[2]string{"flow_ext_port", "pkt_dst_port"}, [2]string{"flow_proto", "pkt_proto"}); err != nil {
		return 0, err
	}
	h := p.Find("flow_get_by_ext_key").Handle
	return r, p.Holds("inbound rewrite",
		sym.EqVV(v("out_dst_ip"), p.HVar(h, "flow_int_src_ip")),
		sym.EqVV(v("out_dst_port"), p.HVar(h, "flow_int_src_port")),
		sym.EqVV(v("out_src_ip"), v("pkt_src_ip")), sym.EqVV(v("out_src_port"), v("pkt_src_port")),
		sym.EqVV(v("out_proto"), v("pkt_proto")))
}
