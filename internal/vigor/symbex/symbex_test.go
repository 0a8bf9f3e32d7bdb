package symbex

import (
	"testing"

	"vignat/internal/vigor/sym"
	"vignat/internal/vigor/trace"
)

// TestExplorePrunesInfeasible: an NF branching twice on contradictory
// constraints must have its impossible branch pruned.
func TestExplorePrunesInfeasible(t *testing.T) {
	res, err := Explore(func(m *Machine) {
		x := m.Fresh("x")
		// First decision constrains x, second asks the same question;
		// only consistent combinations are feasible.
		a := m.Decide("x_is_5", []sym.Atom{sym.EqVC(x, 5)}, []sym.Atom{sym.NeVC(x, 5)})
		b := m.Decide("x_is_5_again", []sym.Atom{sym.EqVC(x, 5)}, []sym.Atom{sym.NeVC(x, 5)})
		if a != b {
			t.Error("engine let contradictory decisions through")
		}
		m.Record(trace.Call{Name: "drop", Handle: -1})
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Paths) != 2 {
		t.Fatalf("feasible paths %d, want 2 (x==5, x!=5)", len(res.Paths))
	}
	if res.Pruned != 2 {
		t.Fatalf("pruned %d, want 2 contradictory prefixes", res.Pruned)
	}
}

// TestAssumeInfeasiblePrunes: a model ASSUME that contradicts the path
// aborts it.
func TestAssumeInfeasiblePrunes(t *testing.T) {
	res, err := Explore(func(m *Machine) {
		x := m.Fresh("x")
		m.Assume(sym.EqVC(x, 1))
		m.Assume(sym.NeVC(x, 1)) // contradiction: path dies here
		t.Error("execution continued past contradictory Assume")
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Paths) != 0 || res.Pruned != 1 {
		t.Fatalf("paths %d pruned %d", len(res.Paths), res.Pruned)
	}
}

// TestDecisionsReplayable: re-running a path's recorded decision vector
// reproduces the same trace (the engine is deterministic).
func TestDecisionsReplayable(t *testing.T) {
	nf := func(m *Machine) {
		x := m.Fresh("x")
		if m.Decide("frame_intact", nil, nil) &&
			m.Decide("x_is_5", []sym.Atom{sym.EqVC(x, 5)}, []sym.Atom{sym.NeVC(x, 5)}) {
			m.Record(trace.Call{Name: "forward", Handle: -1})
			return
		}
		m.Record(trace.Call{Name: "drop", Handle: -1})
	}
	res, err := Explore(nf)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Paths) != 3 {
		t.Fatalf("feasible paths %d, want 3", len(res.Paths))
	}
	for i, tr := range res.Paths {
		m := newMachine(tr.Decisions)
		nf(m)
		if len(m.decisions) != len(tr.Decisions) {
			t.Fatalf("path %d: replay consumed %d decisions, had %d", i, len(m.decisions), len(tr.Decisions))
		}
		if len(m.tr.Seq)+1 != len(tr.Seq) { // +1: replay lacks the loop-end marker
			t.Fatalf("path %d: replay has %d calls, original %d", i, len(m.tr.Seq)+1, len(tr.Seq))
		}
		for j := range m.tr.Seq {
			if m.tr.Seq[j].Name != tr.Seq[j].Name || m.tr.Seq[j].Ret != tr.Seq[j].Ret {
				t.Fatalf("path %d: replay call %d is %s, original %s", i, j, m.tr.Seq[j].String(), tr.Seq[j].String())
			}
		}
	}
}
