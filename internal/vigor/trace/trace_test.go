package trace

import (
	"strings"
	"testing"

	"vignat/internal/vigor/sym"
)

func sampleTrace() *Trace {
	var p sym.Pool
	x := p.Fresh("popped_port")
	t := &Trace{}
	t.Seq = []Call{
		{Name: LoopBegin, Handle: -1},
		{Name: "expire_flows", Handle: -1},
		{Name: "frame_intact", Ret: true, HasRet: true, Handle: -1, Decision: true},
		{Name: "packet_from_internal", Ret: true, HasRet: true, Handle: -1, Decision: true},
		{Name: "flow_get_by_int_key", Ret: true, HasRet: true, Handle: 0},
		{Name: "dchain_rejuvenate", Handle: 0},
		{Name: "emit_external", Handle: -1},
		{Name: LoopEnd, Handle: -1},
	}
	t.Constraints = []sym.Atom{sym.NeVC(x, 9)}
	t.Vars = []sym.Var{x}
	return t
}

func TestStringRendering(t *testing.T) {
	tr := sampleTrace()
	s := tr.String()
	for _, want := range []string{
		"loop_invariant_produce",
		"flow_get_by_int_key(handle=0) ==> true",
		"--- constraints ---",
		":popped_port: != 9",
		"loop_invariant_consume",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("trace rendering missing %q:\n%s", want, s)
		}
	}
	tr.Violations = append(tr.Violations, "P2: boom")
	if !strings.Contains(tr.String(), "--- violations ---") {
		t.Error("violations section missing")
	}
}

func TestCallString(t *testing.T) {
	c := Call{Name: "ring_pop_front", Handle: 2}
	if !strings.Contains(c.String(), "ring_pop_front(handle=2)") {
		t.Fatalf("call string %q", c.String())
	}
	c2 := Call{Name: "drop", Handle: -1}
	if !strings.Contains(c2.String(), "drop()") {
		t.Fatalf("drop string %q", c2.String())
	}
}

func TestPrefixes(t *testing.T) {
	tr := sampleTrace()
	if tr.Prefixes() != len(tr.Seq) {
		t.Fatal("prefix count")
	}
}
