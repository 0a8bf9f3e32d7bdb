package firewall

import (
	"fmt"

	"vignat/internal/flow"
	"vignat/internal/nf/nfkit"
	"vignat/internal/nf/telemetry"
)

// This file is the firewall's symbolic declaration for the kit's
// verification: an Env binding the kit's guard set and flow-table model
// to the firewall's vocabulary, and the per-path semantic specification.
// Path enumeration, the discipline and single-output rules, model
// validation and solver entailment all come from nfkit.VerifySym — the
// one pipeline VigNAT is proved by too.

// fwSym drives ProcessPacket under the engine via the kit driver: the
// parse chain and the arrival side are the kit's guard set, the
// session-table operations the kit's model of them.
type fwSym struct {
	nfkit.SymGuards
	sessions nfkit.SymFlowTable[SessionHandle]
}

var _ Env = fwSym{}

// newFwSym binds the kit's flow-table model to the firewall's
// vocabulary: a session handle carries the session's outbound tuple,
// which is the packet's own when found or created from inside and its
// reverse when found by a reply. Fig. 4's under-approximate model
// creates TCP sessions only.
func newFwSym(d *nfkit.SymDriver) fwSym {
	return fwSym{nfkit.SymGuards{D: d}, nfkit.SymFlowTable[SessionHandle]{
		D: d, Noun: "session", FstSide: []string{"from_internal"},
		GetFst: "dmap_get_by_out_key", GetSnd: "dmap_get_by_in_key", Create: "session_create",
		Vars: []string{"sess_out_src_ip", "sess_out_src_port", "sess_out_dst_ip", "sess_out_dst_port", "sess_proto"},
		Fst: [][2]string{{"sess_out_src_ip", "pkt_src_ip"}, {"sess_out_src_port", "pkt_src_port"},
			{"sess_out_dst_ip", "pkt_dst_ip"}, {"sess_out_dst_port", "pkt_dst_port"}, {"sess_proto", "pkt_proto"}},
		Snd: [][2]string{{"sess_out_src_ip", "pkt_dst_ip"}, {"sess_out_src_port", "pkt_dst_port"},
			{"sess_out_dst_ip", "pkt_src_ip"}, {"sess_out_dst_port", "pkt_src_port"}, {"sess_proto", "pkt_proto"}},
		Pin: "sess_proto", PinAt: uint64(flow.TCP),
	}}
}

func (e fwSym) ExpireSessions() { e.D.Expire("expire_sessions") }

func (e fwSym) LookupOutbound() (SessionHandle, bool) { return e.sessions.LookupFst() }
func (e fwSym) LookupInbound() (SessionHandle, bool)  { return e.sessions.LookupSnd() }
func (e fwSym) CreateSession() (SessionHandle, bool)  { return e.sessions.Add(nil) }
func (e fwSym) Rejuvenate(h SessionHandle)            { e.sessions.Rejuvenate(h) }

func (e fwSym) ForwardOut() { e.D.Output("forward_out") }
func (e fwSym) ForwardIn()  { e.D.Output("forward_in") }
func (e fwSym) Drop()       { e.D.Output("drop") }

// symSpecFor is the firewall's symbolic-verification declaration over
// the given stateless logic; Verify and the Kit declaration both hang
// off it.
func symSpecFor(logic func(Env)) *nfkit.SymSpec {
	return &nfkit.SymSpec{
		NF:      "firewall",
		Outputs: []string{"forward_out", "forward_in", "drop"},
		Drive:   func(d *nfkit.SymDriver) { logic(newFwSym(d)) },
		Spec:    checkSpec,
	}
}

// Verify runs the derived pipeline on the firewall's stateless logic
// and checks its semantic specification on every path:
//
//   - an external packet is forwarded iff a live session's reply tuple
//     equals the packet tuple (entailment over the path constraints);
//   - an internal packet is forwarded iff a session exists or was
//     created; dropped exactly when the table is full;
//   - nothing is ever rewritten (the firewall has no rewrite calls at
//     all, so this holds structurally).
func Verify() (*nfkit.Report, error) {
	return verifyLogic(ProcessPacket)
}

// verifyLogic runs the pipeline over any firewall-shaped stateless
// logic; tests use it to demonstrate that buggy variants fail.
func verifyLogic(logic func(Env)) (*nfkit.Report, error) {
	return nfkit.VerifySym(*symSpecFor(logic), nfkit.ModelExact, 0)
}

// checkSpec is the firewall's RFC-style specification, trace form.
// Each branch names the reason of the outcome it demands, so the
// taxonomy cross-check (VerifyReasons) reads its classification off the
// same walk that judges the path.
func checkSpec(p *nfkit.SymPath) (telemetry.ReasonID, error) {
	if !p.Parseable() {
		return p.Judge("non-parseable packet", "drop", ReasonDropParse)
	}
	fromInternal, ok := p.Ret("packet_from_internal")
	if !ok {
		return 0, fmt.Errorf("interface never determined")
	}
	if fromInternal {
		hit, _ := p.Ret("dmap_get_by_out_key")
		created, createdAsked := p.Ret("session_create")
		if hit || (createdAsked && created) {
			return p.Judge("internal packet with a session", "forward_out", ReasonFwdOut)
		}
		return p.Judge("internal packet without session capacity", "drop", ReasonDropTableFull)
	}
	if hit, _ := p.Ret("dmap_get_by_in_key"); !hit {
		return p.Judge("unsolicited external packet", "drop", ReasonDropUnsolicited)
	}
	r, err := p.Judge("external packet of a live session", "forward_in", ReasonFwdIn)
	if err != nil {
		return 0, err
	}
	// The matched session must really be the packet's: its outbound
	// tuple must be the packet's reverse (entailed by the model/contract
	// atoms on the path).
	return r, p.Bound("dmap_get_by_in_key", [2]string{"sess_out_src_ip", "pkt_dst_ip"},
		[2]string{"sess_out_dst_ip", "pkt_src_ip"}, [2]string{"sess_proto", "pkt_proto"})
}
