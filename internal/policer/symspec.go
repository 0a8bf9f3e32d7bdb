package policer

import (
	"fmt"

	"vignat/internal/nf/nfkit"
	"vignat/internal/nf/telemetry"
	"vignat/internal/vigor/sym"
)

// This file is the policer's symbolic declaration — the §7
// amortization, fourth NF on the shared toolchain, with the engine
// binding itself amortized: the Env glue below names the
// subscriber-table and token-bucket models, their contract clauses and
// their P2/P4 preconditions; enumeration, discipline, model validation
// and entailment come from nfkit.VerifySym.

// polSym drives ProcessPacket under the engine via the kit driver.
// The IPv4 guards and the arrival side are the kit's guard set (the
// policer asks only the first three of the parse chain: it meters any
// IPv4 packet).
type polSym struct{ nfkit.SymGuards }

var _ Env = polSym{}

func (e polSym) ExpireState() { e.D.Expire("expire_subscribers") }

// mintBucket mints a bucket handle bound, under the map's contract
// clause, to the packet's destination — the subscriber the packet is
// headed for. Fig. 4's under-approximate model creates the bucket of
// 0.0.0.0 only.
func (e polSym) mintBucket(clause string, pin bool) BucketHandle {
	h := e.D.Mint("bucket_client_ip")
	v := e.D.HVar(h, "bucket_client_ip")
	var pins []sym.Atom
	if pin {
		pins = []sym.Atom{sym.EqVC(v, 0)}
	}
	e.D.Bind(h, clause, []sym.Atom{sym.EqVV(v, e.D.Var("pkt_dst_ip"))}, pins...)
	return BucketHandle(h)
}

func (e polSym) LookupBucket() (BucketHandle, bool) {
	e.D.Require(e.D.Flag("ipv4_header_valid"), "P2: subscriber key from unvalidated IPv4 header")
	e.D.Require(e.D.Flag("iface_known") && !e.D.Flag("from_internal"),
		"P4: bucket lookup for a non-ingress packet")
	if !e.D.Lookup("map_get_by_client_ip") {
		e.D.Set("missed", true)
		return 0, false
	}
	return e.mintBucket("Map.Get", false), true
}

func (e polSym) CreateBucket() (BucketHandle, bool) {
	e.D.Require(e.D.Flag("missed"), "P4: bucket creation without a preceding lookup miss")
	if !e.D.Decide("bucket_create") {
		return 0, false
	}
	return e.mintBucket("Map.Put", true), true
}

func (e polSym) Rejuvenate(h BucketHandle) {
	e.D.Require(e.D.Valid(int(h)), "P2: rejuvenate on invalid bucket handle %d", h)
	e.D.NoteOn("dchain_rejuvenate", int(h))
}

func (e polSym) Charge(h BucketHandle) bool {
	e.D.Require(e.D.Valid(int(h)), "P2: charge on invalid bucket handle %d", h)
	e.D.Require(!e.D.Flag("charged"), "P4: a packet charged more than once")
	e.D.Set("charged", true)
	return e.D.Decide("bucket_charge")
}

func (e polSym) Forward()     { e.D.Output("conform_forward") }
func (e polSym) Passthrough() { e.D.Output("passthrough") }
func (e polSym) Drop()        { e.D.Output("drop") }

// symSpecFor is the policer's symbolic-verification declaration over
// the given stateless logic.
func symSpecFor(logic func(Env)) *nfkit.SymSpec {
	return &nfkit.SymSpec{
		NF:      "vigpol",
		Outputs: []string{"conform_forward", "passthrough", "drop"},
		Drive:   func(d *nfkit.SymDriver) { logic(polSym{nfkit.SymGuards{D: d}}) },
		Spec:    checkSpec,
	}
}

// Verify runs the derived pipeline on the policer's stateless logic
// and checks its semantic specification on every path:
//
//   - a non-IPv4 packet is dropped;
//   - an internal-side (egress) packet passes through, untouched by any
//     bucket operation;
//   - an ingress packet is forwarded iff its subscriber's bucket was
//     found-or-created AND the charge conformed; dropped exactly when
//     the table is full or the bucket is empty;
//   - a forwarded ingress packet's bucket really is its destination's
//     (entailment over the path constraints);
//   - every packet charges at most one bucket, at most once.
func Verify() (*nfkit.Report, error) {
	return verifyLogic(ProcessPacket)
}

// verifyLogic runs the pipeline over any policer-shaped stateless
// logic; tests use it to demonstrate that buggy variants fail.
func verifyLogic(logic func(Env)) (*nfkit.Report, error) {
	return nfkit.VerifySym(*symSpecFor(logic), nfkit.ModelExact, 0)
}

// checkSpec is the policer's rate-enforcement specification, trace
// form. Each branch names the reason of the outcome it demands, so the
// taxonomy cross-check (VerifyReasons) reads its classification off the
// same walk that judges the path.
func checkSpec(p *nfkit.SymPath) (telemetry.ReasonID, error) {
	if !p.Passed("frame_intact", "ether_is_ipv4", "ipv4_header_valid") {
		return p.Judge("non-IPv4 packet", "drop", ReasonDropMalformed)
	}
	fromInternal, ok := p.Ret("packet_from_internal")
	if !ok {
		return 0, fmt.Errorf("interface never determined")
	}
	if fromInternal {
		r, err := p.Judge("egress packet", "passthrough", ReasonPassthrough)
		if err == nil && (p.Find("map_get_by_client_ip") != nil || p.Find("bucket_charge") != nil) {
			return 0, fmt.Errorf("egress packet touched subscriber state")
		}
		return r, err
	}
	hit, _ := p.Ret("map_get_by_client_ip")
	created, createdAsked := p.Ret("bucket_create")
	if !hit && !(createdAsked && created) {
		return p.Judge("untracked subscriber at full table", "drop", ReasonDropTableFull)
	}
	conformed, chargedAsked := p.Ret("bucket_charge")
	if !chargedAsked {
		return 0, fmt.Errorf("ingress packet with a bucket was never charged")
	}
	if !conformed {
		return p.Judge("over-rate packet", "drop", ReasonDropOverRate)
	}
	r, err := p.Judge("conforming packet", "conform_forward", ReasonConform)
	if err != nil {
		return 0, err
	}
	// The charged bucket must really be the destination subscriber's
	// (entailed by the model/contract atoms on the path).
	call := "map_get_by_client_ip"
	if !hit {
		call = "bucket_create"
	}
	return r, p.Bound(call, [2]string{"bucket_client_ip", "pkt_dst_ip"})
}
