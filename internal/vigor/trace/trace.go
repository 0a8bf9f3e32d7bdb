// Package trace defines symbolic traces: the record of how the stateless
// NF code interacted with (models of) the outside world along one
// execution path, plus the path constraints — the paper's Fig. 9. The
// verifier (nfkit.VerifySym) consumes traces to prove P1, P4 and P5
// (Fig. 10).
package trace

import (
	"fmt"
	"strings"

	"vignat/internal/vigor/sym"
)

// The loop markers every trace opens and closes with (Fig. 9's
// loop_invariant_produce/consume).
const (
	LoopBegin = "loop_invariant_produce"
	LoopEnd   = "loop_invariant_consume"
)

// Call is one entry in a symbolic trace.
type Call struct {
	// Name is the traced function.
	Name string
	// Ret is the recorded boolean return for predicate calls.
	Ret bool
	// HasRet marks whether Ret is meaningful.
	HasRet bool
	// Handle is the record handle involved (lookup/creation result,
	// rejuvenate/emit argument); -1 when absent.
	Handle int
	// Out are the constraint atoms the model claimed for this call's
	// outputs (e.g. the fresh flow's key equals the packet 5-tuple), or
	// the rewrite an output action performs.
	Out []sym.Atom
	// Clause names the libVig contract clause a model call stands for,
	// and Contract is that clause's post-condition over this call's
	// outputs: the P5 check holds every claim in Out to the contracts
	// of the calls so far. Empty for calls that model no libVig
	// operation.
	Clause   string
	Contract []sym.Atom
	// Decision marks calls that consumed a fork decision.
	Decision bool
}

// String renders the call Fig. 9-style.
func (c *Call) String() string {
	b := &strings.Builder{}
	fmt.Fprintf(b, "%s(", c.Name)
	if c.Handle >= 0 {
		fmt.Fprintf(b, "handle=%d", c.Handle)
	}
	fmt.Fprint(b, ")")
	if c.HasRet {
		fmt.Fprintf(b, " ==> %v", c.Ret)
	} else {
		fmt.Fprint(b, " ==> []")
	}
	return b.String()
}

// Trace is one complete execution path: the call sequence and the
// accumulated path constraints.
type Trace struct {
	// Seq is the call sequence, in execution order.
	Seq []Call
	// Constraints are the path constraints accumulated by the models.
	Constraints []sym.Atom
	// Vars lists every symbolic variable allocated on this path.
	Vars []sym.Var
	// Violations records low-level property (P2) failures detected by
	// the models on this path; empty for a healthy NF.
	Violations []string
	// Decisions is the branch-decision vector that reproduces the path.
	Decisions []bool
	// Meta carries NF-specific path metadata (the path's symbolic
	// vocabulary) for the verifier's property weaving.
	Meta any
}

// String renders the whole trace in the paper's Fig. 9 style.
func (t *Trace) String() string {
	b := &strings.Builder{}
	for i := range t.Seq {
		fmt.Fprintln(b, t.Seq[i].String())
	}
	fmt.Fprintln(b, "--- constraints ---")
	fmt.Fprintln(b, sym.FormatAtoms(t.Constraints))
	if len(t.Violations) > 0 {
		fmt.Fprintln(b, "--- violations ---")
		for _, v := range t.Violations {
			fmt.Fprintln(b, v)
		}
	}
	return b.String()
}

// Prefixes returns the number of distinct non-empty prefixes of the call
// sequence; the paper counts "all execution path traces and all their
// prefixes" (431 traces from 108 paths) as verification tasks.
func (t *Trace) Prefixes() int { return len(t.Seq) }
