package firewall

import (
	"fmt"

	"vignat/internal/nf/nfkit"
	"vignat/internal/nf/telemetry"
	"vignat/internal/vigor/sym"
)

// This file is the firewall's symbolic declaration for the kit's
// derived verification: a thin Env glue translating each interface
// method into SymDriver calls (the libVig session-table models with
// their P2/P4 discipline preconditions), and the per-path semantic
// specification. Path enumeration, the single-output rule, and solver
// entailment all come from nfkit.VerifySym — the engine, solver, and
// trace machinery are the same ones VigNAT uses, the amortization in
// action.

// fwSym drives ProcessPacket under the engine via the kit driver.
// The parse chain and the arrival side are the kit's guard set.
type fwSym struct{ nfkit.SymGuards }

var _ Env = fwSym{}

func (e fwSym) ExpireSessions() { e.D.Note("expire_sessions") }

// sessionVarNames are the model variables every minted session handle
// carries: the session's outbound tuple.
var sessionVarNames = []string{
	"sess_out_src_ip", "sess_out_src_port", "sess_out_dst_ip", "sess_out_dst_port", "sess_proto",
}

// mintSession mints a session handle whose outbound tuple is bound to
// the packet tuple by the given correspondence (the contract atoms of
// the dmap model).
func (e fwSym) mintSession(srcIP, srcPort, dstIP, dstPort string) SessionHandle {
	h := e.D.Mint(sessionVarNames...)
	e.D.Bind(h,
		sym.EqVV(e.D.HVar(h, "sess_out_src_ip"), e.D.Var(srcIP)),
		sym.EqVV(e.D.HVar(h, "sess_out_src_port"), e.D.Var(srcPort)),
		sym.EqVV(e.D.HVar(h, "sess_out_dst_ip"), e.D.Var(dstIP)),
		sym.EqVV(e.D.HVar(h, "sess_out_dst_port"), e.D.Var(dstPort)),
		sym.EqVV(e.D.HVar(h, "sess_proto"), e.D.Var("pkt_proto")),
	)
	return SessionHandle(h)
}

func (e fwSym) LookupOutbound() (SessionHandle, bool) {
	e.D.Require(e.D.Flag("l4"), "P2: session key from unvalidated L4 header")
	e.D.Require(e.D.Flag("iface_known") && e.D.Flag("from_internal"),
		"P4: outbound lookup for a non-internal packet")
	if !e.D.Decide("dmap_get_by_out_key") {
		e.D.Set("missed_out", true)
		return 0, false
	}
	// Contract: the found session's outbound key equals the packet.
	return e.mintSession("pkt_src_ip", "pkt_src_port", "pkt_dst_ip", "pkt_dst_port"), true
}

func (e fwSym) LookupInbound() (SessionHandle, bool) {
	e.D.Require(e.D.Flag("l4"), "P2: session key from unvalidated L4 header")
	e.D.Require(e.D.Flag("iface_known") && !e.D.Flag("from_internal"),
		"P4: inbound lookup for a non-external packet")
	if !e.D.Decide("dmap_get_by_in_key") {
		return 0, false
	}
	// Contract: the packet equals the session's reply tuple, i.e. the
	// reverse of the outbound tuple.
	return e.mintSession("pkt_dst_ip", "pkt_dst_port", "pkt_src_ip", "pkt_src_port"), true
}

func (e fwSym) CreateSession() (SessionHandle, bool) {
	e.D.Require(e.D.Flag("missed_out"), "P4: session creation without a preceding outbound miss")
	if !e.D.Decide("session_create") {
		return 0, false
	}
	return e.mintSession("pkt_src_ip", "pkt_src_port", "pkt_dst_ip", "pkt_dst_port"), true
}

func (e fwSym) Rejuvenate(h SessionHandle) {
	e.D.Require(e.D.Valid(int(h)), "P2: rejuvenate on invalid session handle %d", h)
	e.D.NoteOn("dchain_rejuvenate", int(h))
}

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
		Drive:   func(d *nfkit.SymDriver) { logic(fwSym{nfkit.SymGuards{D: d}}) },
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
	return nfkit.VerifySym(*symSpecFor(logic))
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
	c := p.Find("dmap_get_by_in_key")
	if !p.HasHandle(c.Handle) {
		return 0, fmt.Errorf("forwarding via unknown session handle %d", c.Handle)
	}
	want := []sym.Atom{
		sym.EqVV(p.HVar(c.Handle, "sess_out_src_ip"), p.Var("pkt_dst_ip")),
		sym.EqVV(p.HVar(c.Handle, "sess_out_dst_ip"), p.Var("pkt_src_ip")),
		sym.EqVV(p.HVar(c.Handle, "sess_proto"), p.Var("pkt_proto")),
	}
	if ok, failing := p.EntailsAll(want...); !ok {
		return 0, fmt.Errorf("session match not entailed: %v", failing)
	}
	return r, nil
}
