package nfkit

import (
	"vignat/internal/vigor/sym"
	"vignat/internal/vigor/symbex"
	"vignat/internal/vigor/trace"
)

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
	outputs map[string]bool
	vars    map[string]sym.Var
	handles map[int]map[string]sym.Var
	flags   map[string]bool
	next    int
	emitted int
}

func newSymDriver(m *symbex.Machine, outputs []string) *SymDriver {
	d := &SymDriver{
		m:       m,
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

// Guard consumes one named fork decision — a packet or state predicate
// the stateless logic branches on.
func (d *SymDriver) Guard(name string) bool {
	return d.m.Decide(trace.CallGeneric, name, nil, nil)
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
// uncertain outcome (lookup hit/miss, allocation success/failure).
func (d *SymDriver) Decide(name string) bool {
	return d.m.Decide(trace.CallGeneric, name, nil, nil)
}

// Note records a non-forking state operation (expiry sweeps).
func (d *SymDriver) Note(name string) {
	d.m.Record(trace.Call{Kind: trace.CallGeneric, Name: name, Handle: -1})
}

// NoteOn records a non-forking state operation on a handle
// (rejuvenation).
func (d *SymDriver) NoteOn(name string, h int) {
	d.m.Record(trace.Call{Kind: trace.CallGeneric, Name: name, Handle: h})
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

// Bind folds contract atoms about handle h into the most recent call
// record — how a model publishes what the libVig contract guarantees
// about a lookup's or creation's output (Fig. 9's enriched lookups).
func (d *SymDriver) Bind(h int, atoms ...sym.Atom) {
	d.m.AmendLastCall(h, atoms)
}

// Valid reports whether h was minted on this path — the capability
// discipline every handle-taking operation checks (P2).
func (d *SymDriver) Valid(h int) bool {
	_, ok := d.handles[h]
	return ok
}

// Output records one output action. Emitting more than one per packet,
// or an undeclared one, is a P4 discipline violation (also re-checked
// structurally over the trace by VerifySym).
func (d *SymDriver) Output(name string) {
	d.Require(d.outputs[name], "P4: undeclared output action %q", name)
	d.emitted++
	d.Require(d.emitted <= 1, "P4: more than one output action")
	d.m.Record(trace.Call{Kind: trace.CallGeneric, Name: name, Handle: -1})
}

// SymGuards is the embeddable symbolic binding of the guards every
// packet-parsing NF's Env opens with: the six-predicate parse chain
// (SymPath.Parseable reads the same names back) and the arrival side,
// each a named fork point, with the discipline flags the state models
// consult — "l3"/"l4" once the IPv4/L4 header is validated,
// "iface_known" and "from_internal" once the side is. A per-NF *Sym
// env embeds it and writes only its own state models and outputs.
type SymGuards struct{ D *SymDriver }

func (g SymGuards) FrameIntact() bool     { return g.D.Guard("frame_intact") }
func (g SymGuards) EtherIsIPv4() bool     { return g.D.Guard("ether_is_ipv4") }
func (g SymGuards) IPv4HeaderValid() bool { return g.D.GuardFlag("ipv4_header_valid", "l3") }
func (g SymGuards) NotFragment() bool     { return g.D.Guard("not_fragment") }
func (g SymGuards) L4Supported() bool     { return g.D.Guard("l4_supported") }
func (g SymGuards) L4HeaderIntact() bool  { return g.D.GuardFlag("l4_header_intact", "l4") }

func (g SymGuards) PacketFromInternal() bool {
	d := g.D.GuardFlag("packet_from_internal", "from_internal")
	g.D.Set("iface_known", true)
	return d
}
