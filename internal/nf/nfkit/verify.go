package nfkit

import (
	"errors"
	"fmt"
	"sort"

	"vignat/internal/nf/telemetry"
	"vignat/internal/vigor/sym"
	"vignat/internal/vigor/symbex"
	"vignat/internal/vigor/trace"
)

// SymSpec is an NF's symbolic-verification declaration: the output
// vocabulary, a Drive function running the NF's stateless logic once
// against a SymDriver-backed Env, and the per-path semantic check.
// VerifySym derives the whole proof run from it — exhaustive path
// enumeration, the single-output (P4) rule over the declared outputs,
// the P2 discipline violations the driver collected, and the Spec's P1
// judgment with solver entailment — so a new NF's verification binding
// is this value, not an engine integration.
type SymSpec struct {
	// NF names the proof in reports.
	NF string
	// Outputs are the NF's declared output actions; every feasible
	// path must emit exactly one.
	Outputs []string
	// Drive builds the NF's symbolic Env over d and invokes the
	// stateless logic exactly once.
	Drive func(d *SymDriver)
	// Spec checks one feasible path against the NF's semantic
	// specification (P1), returning an error describing the violation,
	// and names the outcome it judged: the reason, in the NF's declared
	// taxonomy (Decl.Reasons), of the branch of the specification the
	// path fell in. The one walk of the decision tree that decides what
	// the path must output is thereby also the one that classifies it,
	// which is what VerifyReasons cross-checks the taxonomy against. An
	// NF without a taxonomy returns 0.
	Spec func(p *SymPath) (telemetry.ReasonID, error)
}

// Report summarizes one NF's verification, in the shape every per-NF
// report already had.
type Report struct {
	NF           string
	Paths        int
	Tasks        int
	P1Failures   []string
	P2Violations []string
	P4Violations []string
}

// OK reports whether the proof is complete.
func (r *Report) OK() bool {
	return r.Paths > 0 && len(r.P1Failures) == 0 && len(r.P2Violations) == 0 && len(r.P4Violations) == 0
}

// Summary renders the report.
func (r *Report) Summary() string {
	status := "PROOF COMPLETE"
	if !r.OK() {
		status = "PROOF FAILED"
	}
	return fmt.Sprintf("%s (%s): %d paths, %d tasks; P1: %d, P2: %d, P4: %d",
		status, r.NF, r.Paths, r.Tasks, len(r.P1Failures), len(r.P2Violations), len(r.P4Violations))
}

// SymPath is one feasible execution path as the Spec sees it: the
// trace, the path's vocabulary (via the driver that produced it), and
// entailment over the path constraints.
type SymPath struct {
	t      *trace.Trace
	d      *SymDriver
	out    string
	solver *sym.Solver
}

// Output returns the path's single output action.
func (p *SymPath) Output() string { return p.out }

// Judge closes one branch of a Spec: the branch's packets (who) must all
// take the output action want, and a path that does has outcome r.
func (p *SymPath) Judge(who, want string, r telemetry.ReasonID) (telemetry.ReasonID, error) {
	if p.out != want {
		return 0, fmt.Errorf("%s must %s, path does %s", who, want, p.out)
	}
	return r, nil
}

// Find returns the path's first recorded call with the given name, or
// nil.
func (p *SymPath) Find(name string) *trace.Call {
	for i := range p.t.Seq {
		if p.t.Seq[i].Kind == trace.CallGeneric && p.t.Seq[i].Name == name {
			return &p.t.Seq[i]
		}
	}
	return nil
}

// Ret returns the recorded decision of a named fork point, and whether
// the path evaluated it at all.
func (p *SymPath) Ret(name string) (val, evaluated bool) {
	c := p.Find(name)
	if c == nil || !c.HasRet {
		return false, false
	}
	return c.Ret, true
}

// Passed reports whether the path evaluated every named guard and each
// held — false as soon as one failed or (short-circuited behind an
// earlier failure) never ran.
func (p *SymPath) Passed(guards ...string) bool {
	for _, g := range guards {
		if val, evaluated := p.Ret(g); !evaluated || !val {
			return false
		}
	}
	return true
}

// Parseable is Passed over the six-predicate parse chain SymGuards
// names: the path's packet is one a flow-table NF may key state by.
func (p *SymPath) Parseable() bool {
	return p.Passed("frame_intact", "ether_is_ipv4", "ipv4_header_valid",
		"not_fragment", "l4_supported", "l4_header_intact")
}

// Var returns the path's packet variable with the given name (as named
// by the Drive function).
func (p *SymPath) Var(name string) sym.Var { return p.d.vars[name] }

// HVar returns handle h's model variable with the given name.
func (p *SymPath) HVar(h int, name string) sym.Var { return p.d.handles[h][name] }

// HasHandle reports whether h was minted on this path.
func (p *SymPath) HasHandle(h int) bool {
	_, ok := p.d.handles[h]
	return ok
}

// EntailsAll reports whether the path constraints entail every wanted
// atom, returning the first failing atom otherwise.
func (p *SymPath) EntailsAll(want ...sym.Atom) (bool, sym.Atom) {
	ok, failing := p.solver.EntailsAll(p.t.Constraints, want)
	return ok, failing
}

// Bound checks that the record the named call minted is the packet's:
// the path constraints entail, for each pair, that the handle's model
// variable equals the packet variable — the Spec-side reading of the
// correspondence a model (SymFlowTable's Fst, Snd) binds at the call.
func (p *SymPath) Bound(call string, pairs ...[2]string) error {
	c := p.Find(call)
	if c == nil || !p.HasHandle(c.Handle) {
		return fmt.Errorf("%s minted no handle", call)
	}
	want := make([]sym.Atom, len(pairs))
	for i, pair := range pairs {
		want[i] = sym.EqVV(p.HVar(c.Handle, pair[0]), p.Var(pair[1]))
	}
	if ok, failing := p.EntailsAll(want...); !ok {
		return fmt.Errorf("%s binding not entailed: %v", call, failing)
	}
	return nil
}

// explore runs the exhaustive symbolic execution of s.Drive and hands
// every feasible path to visit, with the number of declared output
// actions it emitted (the P4 count) — the walk VerifySym and
// VerifyReasons share.
func explore(s SymSpec, visit func(i int, p *SymPath, outs int)) (*symbex.Result, error) {
	if s.Drive == nil || s.Spec == nil {
		return nil, errors.New("nfkit: symbolic spec needs Drive and Spec")
	}
	if len(s.Outputs) == 0 {
		return nil, errors.New("nfkit: symbolic spec declares no output actions")
	}
	res, err := symbex.Explore(func(m *symbex.Machine) {
		d := newSymDriver(m, s.Outputs)
		s.Drive(d)
		m.AttachMeta(d)
	})
	if err != nil {
		return nil, err
	}
	outSet := make(map[string]bool, len(s.Outputs))
	for _, o := range s.Outputs {
		outSet[o] = true
	}
	var solver sym.Solver
	for i, t := range res.Paths {
		d, ok := t.Meta.(*SymDriver)
		if !ok {
			return nil, fmt.Errorf("nfkit: path %d carries no driver vocabulary", i)
		}
		outs := 0
		var outName string
		for j := range t.Seq {
			c := &t.Seq[j]
			if c.Kind == trace.CallGeneric && outSet[c.Name] {
				outs++
				outName = c.Name
			}
		}
		visit(i, &SymPath{t: t, d: d, out: outName, solver: &solver}, outs)
	}
	return res, nil
}

// VerifySym runs the declared NF logic through the shared symbolic
// pipeline: exhaustive symbolic execution of Drive, then the lazy
// checks — single output action per path over the declared vocabulary
// (P4), the discipline violations the models raised (P2), and the
// declared per-path semantic specification (P1).
func VerifySym(s SymSpec) (*Report, error) {
	rep := &Report{NF: s.NF}
	res, err := explore(s, func(i int, p *SymPath, outs int) {
		// Output discipline (P4): exactly one declared output action.
		if outs != 1 {
			rep.P4Violations = append(rep.P4Violations,
				fmt.Sprintf("path %d: %d output actions", i, outs))
			return
		}
		// P1: the NF's semantic decision tree.
		if _, err := s.Spec(p); err != nil {
			rep.P1Failures = append(rep.P1Failures, fmt.Sprintf("path %d: %v", i, err))
		}
	})
	if err != nil {
		return nil, err
	}
	rep.Paths, rep.Tasks, rep.P2Violations = len(res.Paths), res.TraceCount(), res.Violations
	return rep, nil
}

// DropOutput is the output-action name VerifyReasons treats as the
// drop class; every NF in this repo names its drop output this way.
const DropOutput = "drop"

// ReasonReport summarizes the taxonomy/path cross-check: how many
// enumerated paths each declared reason labels, and every way the
// mapping failed to line up.
type ReasonReport struct {
	NF    string
	Paths int
	// PathsPerReason[id] is the number of enumerated paths classified
	// onto reason id, indexed like the declared set.
	PathsPerReason []int
	// Failures lists every cross-check violation: unclassifiable paths,
	// out-of-taxonomy IDs, drop/forward class mismatches, and declared
	// reasons labeling no path (stale taxonomy entries).
	Failures []string
}

// OK reports whether the taxonomy is exactly the verified paths' image.
func (r *ReasonReport) OK() bool { return r.Paths > 0 && len(r.Failures) == 0 }

// Summary renders the report.
func (r *ReasonReport) Summary() string {
	status := "REASONS CONSISTENT"
	if !r.OK() {
		status = "REASONS INCONSISTENT"
	}
	return fmt.Sprintf("%s (%s): %d paths over %d reasons, %d failures",
		status, r.NF, r.Paths, len(r.PathsPerReason), len(r.Failures))
}

// VerifyReasons cross-checks the declared reason taxonomy against the
// declared symbolic spec's enumerated paths — the uniform entry the
// conformance tests call on every Kit. It errors when the declaration
// carries no Sym or no Reasons: an NF that declares a taxonomy without
// the proof that names its outcomes is exactly the drift the check
// exists to catch. It re-runs the same exploration as VerifySym and
// demands, per path: the Spec judges it without error and so names its
// reason (totality — a path the specification rejects has no outcome to
// classify), the returned ID is declared in the set, and the path's
// class matches the reason's — a path whose single output action is
// DropOutput must map to a Drop reason, every other path to a non-Drop
// one. Finally every declared reason must label at least one path, so
// a reason no verified path can produce (dead taxonomy) fails too.
//
// Paths that fail the single-output rule are reported as failures here
// as well (they cannot be classified); run VerifySym for the full P4
// diagnosis.
func (d Decl[C]) VerifyReasons() (*ReasonReport, error) {
	if err := d.validate(false); err != nil {
		return nil, err
	}
	if d.Reasons == nil {
		return nil, fmt.Errorf("nfkit: %s declares no reason taxonomy", d.Name)
	}
	if d.Sym == nil {
		return nil, fmt.Errorf("nfkit: %s declares a reason taxonomy but no symbolic spec to check it against", d.Name)
	}
	s, set := *d.Sym, d.Reasons
	rep := &ReasonReport{NF: s.NF, PathsPerReason: make([]int, set.Len())}
	res, err := explore(s, func(i int, p *SymPath, outs int) {
		if outs != 1 {
			rep.Failures = append(rep.Failures,
				fmt.Sprintf("path %d: %d output actions, cannot classify", i, outs))
			return
		}
		id, err := s.Spec(p)
		if err != nil {
			rep.Failures = append(rep.Failures,
				fmt.Sprintf("path %d (%s): unclassifiable: %v", i, p.out, err))
			return
		}
		if int(id) >= set.Len() {
			rep.Failures = append(rep.Failures,
				fmt.Sprintf("path %d (%s): reason id %d not declared in taxonomy %q",
					i, p.out, id, set.NF()))
			return
		}
		rep.PathsPerReason[id]++
		isDropPath := p.out == DropOutput
		if isDropPath && !set.IsDrop(id) {
			rep.Failures = append(rep.Failures,
				fmt.Sprintf("path %d drops but reason %q is not drop-class", i, set.Name(id)))
		}
		if !isDropPath && set.IsDrop(id) {
			rep.Failures = append(rep.Failures,
				fmt.Sprintf("path %d outputs %s but reason %q is drop-class", i, p.out, set.Name(id)))
		}
	})
	if err != nil {
		return nil, err
	}
	rep.Paths = len(res.Paths)
	for id, n := range rep.PathsPerReason {
		if n == 0 {
			rep.Failures = append(rep.Failures,
				fmt.Sprintf("declared reason %q labels no enumerated path (stale taxonomy entry)",
					set.Name(telemetry.ReasonID(id))))
		}
	}
	sort.Strings(rep.Failures)
	return rep, nil
}
