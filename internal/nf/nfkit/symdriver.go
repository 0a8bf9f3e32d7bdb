package nfkit

import (
	"vignat/internal/vigor/sym"
	"vignat/internal/vigor/symbex"
	"vignat/internal/vigor/trace"
)

// Model selects how strongly the symbolic models claim what the libVig
// contracts guarantee — the three models of the paper's Fig. 4.
type Model uint8

// Models.
const (
	// ModelExact claims exactly the contract (Fig. 4 model (a)): the
	// one every NF is proved with.
	ModelExact Model = iota
	// ModelOver claims nothing (model (b)): exploration succeeds, but
	// the semantic property (P1) becomes unprovable.
	ModelOver
	// ModelUnder claims the contract plus a pin the contract does not
	// justify (model (c)), such as the NAT's allocated port held at the
	// range base: model validation (P5) rejects it.
	ModelUnder
)

// String names the model as the command line does.
func (m Model) String() string {
	return [...]string{"exact", "over", "under"}[m]
}

// SymDriver is the derived symbolic environment core: everything every
// NF's hand-written symEnv used to duplicate — named fork points over
// the engine, state-operation models with handle minting and contract
// binding, P2/P4 discipline bookkeeping, and the single-output rule.
// A per-NF symbolic binding is now a thin value type translating its
// Env interface methods into driver calls (each a line or two), plus a
// Spec function over the resulting paths; the engine plumbing is the
// kit's.
//
// The driver doubles as the path's vocabulary: packet variables are
// allocated by name on first use, and every minted handle carries its
// own named model variables. VerifySym attaches the driver to the
// trace, so Spec reads the same names back through SymPath.
type SymDriver struct {
	m       *symbex.Machine
	model   Model
	outputs map[string]bool
	vars    map[string]sym.Var
	handles map[int]map[string]sym.Var
	flags   map[string]bool
	next    int
	emitted int
}

func newSymDriver(m *symbex.Machine, model Model, outputs []string) *SymDriver {
	d := &SymDriver{
		m:       m,
		model:   model,
		outputs: make(map[string]bool, len(outputs)),
		vars:    map[string]sym.Var{},
		handles: map[int]map[string]sym.Var{},
		flags:   map[string]bool{},
	}
	for _, o := range outputs {
		d.outputs[o] = true
	}
	return d
}

// Var returns the packet variable with the given name, allocating it
// fresh on this path the first time it is named.
func (d *SymDriver) Var(name string) sym.Var {
	v, ok := d.vars[name]
	if !ok {
		v = d.m.Fresh(name)
		d.vars[name] = v
	}
	return v
}

// before is the P4 rule every call but an output obeys: the packet's
// output action ends its iteration, so nothing is asked or touched after
// it.
func (d *SymDriver) before(name string) {
	d.Require(d.emitted == 0, "P4: %s after the output action", name)
}

// Guard consumes one named fork decision — a packet or state predicate
// the stateless logic branches on.
func (d *SymDriver) Guard(name string) bool {
	d.before(name)
	return d.m.Decide(name, nil, nil)
}

// GuardFlag is Guard, also recording the decision under a named
// discipline flag (the "header validated", "interface known" state the
// P2/P4 checks consult).
func (d *SymDriver) GuardFlag(name, flag string) bool {
	v := d.Guard(name)
	d.flags[flag] = v
	return v
}

// Set records a named discipline flag.
func (d *SymDriver) Set(flag string, v bool) { d.flags[flag] = v }

// Flag reads a named discipline flag (false if never set).
func (d *SymDriver) Flag(flag string) bool { return d.flags[flag] }

// Require records a discipline violation (P2/P4 — the analogue of a
// KLEE assertion failure) when ok is false. Execution of the path
// continues so one run can surface multiple violations.
func (d *SymDriver) Require(ok bool, format string, args ...any) {
	if !ok {
		d.m.Violate(format, args...)
	}
}

// Decide consumes one fork decision for a state operation with an
// uncertain outcome (allocation success/failure, a charge conforming).
func (d *SymDriver) Decide(name string) bool { return d.Guard(name) }

// Lookup is Decide for a state-table lookup (hit/miss), which the
// RFC's expire-then-look-up order (Fig. 6 l.2) puts after the
// iteration's expiry (P4).
func (d *SymDriver) Lookup(name string) bool {
	d.Require(d.Flag("expired"), "P4: %s before expiry", name)
	return d.Decide(name)
}

// Note records a non-forking state operation.
func (d *SymDriver) Note(name string) { d.NoteOn(name, -1) }

// NoteOn records a non-forking state operation on a handle
// (rejuvenation).
func (d *SymDriver) NoteOn(name string, h int) {
	d.before(name)
	d.m.Record(trace.Call{Name: name, Handle: h})
}

// Expire records the iteration's expiry sweep, which licenses its
// lookups.
func (d *SymDriver) Expire(name string) {
	d.Note(name)
	d.Set("expired", true)
}

// Mint allocates a fresh opaque handle carrying one fresh model
// variable per given name — the record a lookup or creation hands
// back. The handle joins the path's capability set (Valid).
func (d *SymDriver) Mint(varNames ...string) int {
	h := d.next
	d.next++
	vars := make(map[string]sym.Var, len(varNames))
	for _, n := range varNames {
		vars[n] = d.m.Fresh(n)
	}
	d.handles[h] = vars
	return h
}

// HVar returns handle h's model variable with the given name.
func (d *SymDriver) HVar(h int, name string) sym.Var { return d.handles[h][name] }

// Bind publishes on the most recent call — a model of one libVig
// operation, which handed back handle h — the named contract clause the
// call stands for with its post-condition, and what the model claims of
// the call's outputs: the contract itself under the exact model,
// nothing under the over-approximate one, the contract plus pin under
// the under-approximate one (Fig. 4's three, by the driver's Model).
// VerifySym's P5 check holds every claim to the contracts bound so far
// on the path.
func (d *SymDriver) Bind(h int, clause string, contract []sym.Atom, pin ...sym.Atom) {
	var claims []sym.Atom
	switch d.model {
	case ModelExact:
		claims = contract
	case ModelUnder:
		claims = append(append([]sym.Atom(nil), contract...), pin...)
	}
	d.m.AmendLastCall(h, clause, contract, claims)
}

// Valid reports whether h was minted on this path — the capability
// discipline every handle-taking operation checks (P2).
func (d *SymDriver) Valid(h int) bool {
	_, ok := d.handles[h]
	return ok
}

// Output records one output action and the rewrite it performs on the
// packet (atoms over the out_*/pkt_* variables; none for an action that
// leaves the packet as it is). Emitting more than one per packet, or an
// undeclared one, is a P4 discipline violation (also re-checked
// structurally over the trace by VerifySym).
func (d *SymDriver) Output(name string, rewrite ...sym.Atom) {
	d.Require(d.outputs[name], "P4: undeclared output action %q", name)
	d.emitted++
	d.Require(d.emitted <= 1, "P4: more than one output action")
	d.m.Record(trace.Call{Name: name, Handle: -1, Out: rewrite})
}

// parseChain is the six-predicate parse chain SymGuards binds, in the
// order each one's check is only meaningful after its predecessor held.
var parseChain = [...]string{"frame_intact", "ether_is_ipv4", "ipv4_header_valid",
	"not_fragment", "l4_supported", "l4_header_intact"}

// SymGuards is the embeddable symbolic binding of the guards every
// packet-parsing NF's Env opens with: the six-predicate parse chain
// (SymPath.Parseable reads the same names back) and the arrival side,
// each a named fork point. A parse guard held is a discipline flag of
// its own name, which the state models consult ("l4_header_intact"
// before a key is read), and which the next guard in the chain requires
// (P2: reading deeper headers before the shallower ones validated is the
// out-of-bounds access class P2 forbids); the side sets "iface_known"
// and "from_internal". A per-NF *Sym env embeds it and writes only its
// own state models and outputs.
type SymGuards struct{ D *SymDriver }

func (g SymGuards) parse(i int) bool {
	name := parseChain[i]
	g.D.Require(i == 0 || g.D.Flag(parseChain[i-1]), "P2: %s evaluated before its guard predicate", name)
	return g.D.GuardFlag(name, name)
}

func (g SymGuards) FrameIntact() bool     { return g.parse(0) }
func (g SymGuards) EtherIsIPv4() bool     { return g.parse(1) }
func (g SymGuards) IPv4HeaderValid() bool { return g.parse(2) }
func (g SymGuards) NotFragment() bool     { return g.parse(3) }
func (g SymGuards) L4Supported() bool     { return g.parse(4) }
func (g SymGuards) L4HeaderIntact() bool  { return g.parse(5) }

func (g SymGuards) PacketFromInternal() bool {
	d := g.D.GuardFlag("packet_from_internal", "from_internal")
	g.D.Set("iface_known", true)
	return d
}
