package nfkit

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

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
// the P2/P4 discipline violations the driver collected, the models'
// claims checked against their contracts (P5), and the Spec's P1
// judgment with solver entailment — so a new NF's verification binding
// is this value, not an engine integration.
type SymSpec struct {
	// NF names the proof in reports.
	NF string
	// Outputs are the NF's declared output actions; every feasible
	// path must emit exactly one. A spec declaring none (the discard
	// ring's loop iteration, which may idle) skips that rule.
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

// Report summarizes one NF's verification: what was proved, under which
// model, how long exploring and validating took, and every failure by
// property.
type Report struct {
	NF    string
	Model Model
	Paths int
	Tasks int
	// Explore is the exhaustive symbolic execution's wall time, Validate
	// the per-path checks' on the worker pool.
	Explore, Validate time.Duration
	P1Failures        []string
	P2Violations      []string
	P4Violations      []string
	P5Violations      []string
	// Traces are the feasible paths' symbolic traces (Fig. 9), in
	// enumeration order.
	Traces []*trace.Trace
}

// OK reports whether the proof is complete.
func (r *Report) OK() bool {
	return r.Paths > 0 && len(r.P1Failures) == 0 && len(r.P2Violations) == 0 &&
		len(r.P4Violations) == 0 && len(r.P5Violations) == 0
}

// Summary renders the report.
func (r *Report) Summary() string {
	status := "PROOF COMPLETE"
	if !r.OK() {
		status = "PROOF FAILED"
	}
	return fmt.Sprintf("%s (%s, %s model): %d paths, %d tasks; P1: %d, P2: %d, P4: %d, P5: %d",
		status, r.NF, r.Model, r.Paths, r.Tasks,
		len(r.P1Failures), len(r.P2Violations), len(r.P4Violations), len(r.P5Violations))
}

// Failures lists every failure, each tagged with its property (the
// discipline violations the models raised carry their own P2/P4 tag).
func (r *Report) Failures() []string {
	all := append([]string(nil), r.P2Violations...)
	for _, f := range []struct {
		p  string
		fs []string
	}{{"P1", r.P1Failures}, {"P4", r.P4Violations}, {"P5", r.P5Violations}} {
		for _, s := range f.fs {
			all = append(all, f.p+": "+s)
		}
	}
	return all
}

// SymPath is one feasible execution path as the Spec sees it: the
// trace, the path's vocabulary (via the driver that produced it), and
// entailment over the path constraints.
type SymPath struct {
	t    *trace.Trace
	d    *SymDriver
	out  string
	outs int
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
		if p.t.Seq[i].Name == name {
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
func (p *SymPath) Parseable() bool { return p.Passed(parseChain[:]...) }

// Var returns the path's packet variable with the given name (as named
// by the Drive function); a name the path never used is a fresh,
// unconstrained variable, so nothing is entailed of it.
func (p *SymPath) Var(name string) sym.Var { return p.d.Var(name) }

// HVar returns handle h's model variable with the given name.
func (p *SymPath) HVar(h int, name string) sym.Var { return p.d.handles[h][name] }

// HasHandle reports whether h was minted on this path.
func (p *SymPath) HasHandle(h int) bool { return p.d.Valid(h) }

// Holds checks that the path constraints entail every wanted atom — what
// the Spec demands of the path — naming what failed.
func (p *SymPath) Holds(what string, want ...sym.Atom) error {
	var solver sym.Solver
	if ok, failing := solver.EntailsAll(p.t.Constraints, want); !ok {
		return fmt.Errorf("%s not entailed: %v", what, failing)
	}
	return nil
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
	return p.Holds(call+" binding", want...)
}

// explore runs the exhaustive symbolic execution of s.Drive under model
// and returns every feasible path, each with the number of declared
// output actions it emitted (the P4 count) — the walk VerifySym and
// VerifyReasons share.
func explore(s SymSpec, model Model) (*symbex.Result, []*SymPath, error) {
	if s.Drive == nil || s.Spec == nil {
		return nil, nil, errors.New("nfkit: symbolic spec needs Drive and Spec")
	}
	res, err := symbex.Explore(func(m *symbex.Machine) {
		d := newSymDriver(m, model, s.Outputs)
		s.Drive(d)
		m.AttachMeta(d)
	})
	if err != nil {
		return nil, nil, err
	}
	paths := make([]*SymPath, len(res.Paths))
	for i, t := range res.Paths {
		p := &SymPath{t: t, d: t.Meta.(*SymDriver)}
		for j := range t.Seq {
			if name := t.Seq[j].Name; p.d.outputs[name] {
				p.outs++
				p.out = name
			}
		}
		paths[i] = p
	}
	return res, paths, nil
}

// VerifySym runs the declared NF logic through the one symbolic
// pipeline, with its state operations under the given model: exhaustive
// symbolic execution of Drive, then the lazy per-path checks on workers
// goroutines (0 means GOMAXPROCS) — the single output action over the
// declared vocabulary (P4), every model claim entailed by the contracts
// (P5), and the declared semantic specification (P1) — beside the
// discipline violations the models raised (P2/P4).
func VerifySym(s SymSpec, model Model, workers int) (*Report, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	start := time.Now()
	res, paths, err := explore(s, model)
	if err != nil {
		return nil, err
	}
	rep := &Report{NF: s.NF, Model: model, Explore: time.Since(start),
		Paths: len(paths), Tasks: res.TraceCount(), P2Violations: res.Violations, Traces: res.Paths}

	start = time.Now()
	type verdict struct {
		p1, p4 string
		p5     []string
	}
	verdicts := make([]verdict, len(paths))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(paths); i = int(next.Add(1) - 1) {
				p, v := paths[i], &verdicts[i]
				v.p5 = checkP5(i, p.t)
				if len(s.Outputs) > 0 && p.outs != 1 {
					v.p4 = fmt.Sprintf("path %d: %d output actions", i, p.outs)
				} else if _, err := s.Spec(p); err != nil {
					v.p1 = fmt.Sprintf("path %d: %v", i, err)
				}
			}
		}()
	}
	wg.Wait()
	for _, v := range verdicts {
		if v.p1 != "" {
			rep.P1Failures = append(rep.P1Failures, v.p1)
		}
		if v.p4 != "" {
			rep.P4Violations = append(rep.P4Violations, v.p4)
		}
		rep.P5Violations = append(rep.P5Violations, v.p5...)
	}
	rep.Validate = time.Since(start)
	return rep, nil
}

// checkP5 is lazy model validation (§5.2.3) over one path: every claim a
// model made about a call's outputs must be entailed by the contracts
// bound so far on the path — that call's clause and every earlier one's,
// as the proof checker assumes callee post-conditions. A model claiming
// more than its contract justifies (under-approximate, Fig. 4 model (c))
// fails here; one claiming less (over-approximate, model (b)) passes
// here and fails P1 instead — the paper's Step 3a/3b split.
func checkP5(i int, t *trace.Trace) []string {
	var solver sym.Solver
	var gamma []sym.Atom
	var errs []string
	for j := range t.Seq {
		c := &t.Seq[j]
		if c.Clause == "" {
			continue
		}
		gamma = append(gamma, c.Contract...)
		for _, claim := range c.Out {
			if !solver.Entails(gamma, claim) {
				errs = append(errs, fmt.Sprintf("path %d: model of %s claims %v, not justified by contract clause %s",
					i, c.Name, claim, c.Clause))
			}
		}
	}
	return errs
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
	_, paths, err := explore(s, ModelExact)
	if err != nil {
		return nil, err
	}
	for i, p := range paths {
		if p.outs != 1 {
			rep.Failures = append(rep.Failures,
				fmt.Sprintf("path %d: %d output actions, cannot classify", i, p.outs))
			continue
		}
		id, err := s.Spec(p)
		if err != nil {
			rep.Failures = append(rep.Failures,
				fmt.Sprintf("path %d (%s): unclassifiable: %v", i, p.out, err))
			continue
		}
		if int(id) >= set.Len() {
			rep.Failures = append(rep.Failures,
				fmt.Sprintf("path %d (%s): reason id %d not declared in taxonomy %q",
					i, p.out, id, set.NF()))
			continue
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
	}
	rep.Paths = len(paths)
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
