// Package symbex is the exhaustive-symbolic-execution engine of the Vigor
// toolchain analogue (§5.2.1). It executes the NF's stateless code — the
// exact function the production dataplane runs — against symbolic models
// of libVig, forking at every state- or packet-dependent predicate, and
// records a symbolic trace per feasible path (Fig. 9). The models are
// nfkit's (SymDriver and the models built on it), and so is the
// validation of the traces (nfkit.VerifySym): this package is only the
// engine.
//
// Forking uses decision replay: the engine runs the stateless function
// many times, scripting the first k decisions and defaulting the rest to
// false; every completed run schedules the unexplored true-branches of
// its suffix. Because the stateless code is loop-free per packet (the
// event loop is handled by the loop markers, as the paper's VIGOR_LOOP
// annotation does), exploration terminates with exactly the feasible
// paths: the solver prunes decision prefixes whose accumulated path
// constraints are unsatisfiable, so the enumeration is fully precise, as
// the paper requires of ESE.
package symbex

import (
	"errors"
	"fmt"

	"vignat/internal/vigor/sym"
	"vignat/internal/vigor/trace"
)

// pathAbort is the sentinel panic used to abandon an infeasible path.
// It never escapes Explore.
type pathAbort struct{}

// Machine drives one execution path: it scripts fork decisions, allocates
// symbolic variables, accumulates constraints, and records the trace.
// Symbolic models are built on top of these primitives.
type Machine struct {
	script    []bool
	pos       int
	decisions []bool
	pool      sym.Pool
	tr        trace.Trace
	solver    sym.Solver
	pruned    bool
}

func newMachine(script []bool) *Machine {
	m := &Machine{script: script}
	m.tr.Seq = append(m.tr.Seq, trace.Call{Name: trace.LoopBegin, Handle: -1})
	return m
}

// Fresh allocates a new symbolic variable on this path.
func (m *Machine) Fresh(name string) sym.Var {
	v := m.pool.Fresh(name)
	m.tr.Vars = append(m.tr.Vars, v)
	return v
}

// Decide consumes one fork decision for the named call. The chosen
// branch's atoms join the path constraints; if they make the path
// infeasible the machine aborts the path (the branch cannot actually be
// taken, so no trace is recorded for it).
func (m *Machine) Decide(name string, ifTrue, ifFalse []sym.Atom) bool {
	d := false
	if m.pos < len(m.script) {
		d = m.script[m.pos]
	}
	m.pos++
	m.decisions = append(m.decisions, d)
	atoms := ifFalse
	if d {
		atoms = ifTrue
	}
	m.tr.Seq = append(m.tr.Seq, trace.Call{
		Name: name, Ret: d, HasRet: true, Handle: -1,
		Out: atoms, Decision: true,
	})
	m.tr.Constraints = append(m.tr.Constraints, atoms...)
	if len(atoms) > 0 && !m.solver.Sat(m.tr.Constraints) {
		m.pruned = true
		panic(pathAbort{})
	}
	return d
}

// Record appends a non-forking call to the trace, folding its output
// atoms into the path constraints.
func (m *Machine) Record(c trace.Call) {
	m.tr.Seq = append(m.tr.Seq, c)
	m.tr.Constraints = append(m.tr.Constraints, c.Out...)
}

// Assume adds atoms to the path constraints without a call record (the
// ASSUME of the paper's Fig. 4 model (a)).
func (m *Machine) Assume(atoms ...sym.Atom) {
	m.tr.Constraints = append(m.tr.Constraints, atoms...)
	if !m.solver.Sat(m.tr.Constraints) {
		m.pruned = true
		panic(pathAbort{})
	}
}

// Violate records a low-level property (P2) violation detected by a
// model — the analogue of a KLEE assertion failure. Execution of the
// path continues so one run can surface multiple violations.
func (m *Machine) Violate(format string, args ...any) {
	m.tr.Violations = append(m.tr.Violations, fmt.Sprintf(format, args...))
}

// AttachMeta attaches NF-specific metadata (e.g. the path's symbolic
// vocabulary) to the trace under construction.
func (m *Machine) AttachMeta(meta any) { m.tr.Meta = meta }

// AmendLastCall attaches a handle, the contract clause the call stands
// for with its post-condition, and the model's output claims to the most
// recently recorded call: models use it to enrich a fork record with the
// call's outputs, which is how Fig. 9 renders lookups.
func (m *Machine) AmendLastCall(handle int, clause string, contract, out []sym.Atom) {
	last := &m.tr.Seq[len(m.tr.Seq)-1]
	last.Handle, last.Clause = handle, clause
	last.Contract = append(last.Contract, contract...)
	last.Out = append(last.Out, out...)
	m.tr.Constraints = append(m.tr.Constraints, out...)
}

// Result is the outcome of exhaustive symbolic execution.
type Result struct {
	// Paths are the feasible execution paths, one trace each.
	Paths []*trace.Trace
	// Pruned counts infeasible decision prefixes the solver rejected.
	Pruned int
	// Violations aggregates every P2 violation across paths; a verified
	// NF has none.
	Violations []string
}

// TraceCount returns the number of verification tasks the verifier will
// see: every path trace plus its prefixes, as in the paper's 431 traces
// for 108 paths.
func (r *Result) TraceCount() int {
	n := 0
	for _, t := range r.Paths {
		n += t.Prefixes()
	}
	return n
}

// maxPathsLimit bounds runaway exploration from a buggy NF or model.
const maxPathsLimit = 1 << 16

// Explore exhaustively executes run, which must invoke the stateless NF
// exactly once against an env built on m. It returns one trace per
// feasible path.
func Explore(run func(m *Machine)) (*Result, error) {
	res := &Result{}
	worklist := [][]bool{nil}
	for len(worklist) > 0 {
		script := worklist[len(worklist)-1]
		worklist = worklist[:len(worklist)-1]
		m := newMachine(script)
		completed := execOne(m, run)
		if completed {
			m.tr.Seq = append(m.tr.Seq, trace.Call{Name: trace.LoopEnd, Handle: -1})
			m.tr.Decisions = append([]bool(nil), m.decisions...)
			tcopy := m.tr
			res.Paths = append(res.Paths, &tcopy)
			res.Violations = append(res.Violations, m.tr.Violations...)
		} else {
			res.Pruned++
		}
		if len(res.Paths) > maxPathsLimit {
			return nil, errors.New("symbex: path explosion (NF not loop-free per packet?)")
		}
		// Schedule the unexplored true-branches of the suffix, even for
		// pruned paths: a sibling branch may be feasible.
		for i := len(script); i < len(m.decisions); i++ {
			if !m.decisions[i] {
				branch := make([]bool, i+1)
				copy(branch, m.decisions[:i])
				branch[i] = true
				worklist = append(worklist, branch)
			}
		}
	}
	return res, nil
}

// execOne runs one path, converting pathAbort panics into pruning.
func execOne(m *Machine, run func(m *Machine)) (completed bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(pathAbort); !ok {
				panic(r)
			}
			completed = false
		}
	}()
	run(m)
	return !m.pruned
}
