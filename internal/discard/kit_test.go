package discard

import (
	"testing"

	"vignat/internal/flow"
	"vignat/internal/netstack"
	"vignat/internal/nf"
	"vignat/internal/nf/nfkit"
	"vignat/internal/nf/nfkit/nfkittest"
)

// frameTo crafts a UDP frame destined for dst.
func frameTo(t *testing.T, dst uint16) []byte {
	t.Helper()
	spec := &netstack.FrameSpec{ID: flow.ID{
		SrcIP:   flow.MakeAddr(10, 0, 0, 1),
		DstIP:   flow.MakeAddr(198, 51, 100, 1),
		SrcPort: 3000,
		DstPort: dst,
		Proto:   flow.UDP,
	}}
	return netstack.Craft(make([]byte, netstack.FrameLen(spec)), spec)
}

// TestFrameVerified runs the pipeline on the frame-level logic: two
// paths, one guard (RingSym's proof covers the §3 callback form; this
// covers the pipeline binding).
func TestFrameVerified(t *testing.T) {
	rep, err := nfkit.VerifySym(*symSpec(), nfkit.ModelExact, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("proof failed: %s\n%v", rep.Summary(), rep.Failures())
	}
	if rep.Paths != 2 {
		t.Fatalf("paths %d, want 2", rep.Paths)
	}
	t.Log(rep.Summary())
}

// TestFrameReasonsConsistent cross-checks the declared reason taxonomy
// against the symbolic path enumeration.
func TestFrameReasonsConsistent(t *testing.T) {
	rep, err := Kit().VerifyReasons()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("taxonomy drifted: %s\n%v", rep.Summary(), rep.Failures)
	}
	t.Log(rep.Summary())
}

// TestFrameReasonCounts checks production tagging matches the verdicts
// and that each frame is counted once: one cell of the counter array
// moves per frame, and the engine-visible stats are a view of it.
func TestFrameReasonCounts(t *testing.T) {
	d := &Frame{}
	a := Kit().Adapt(d)
	if v := nfkittest.Send(a, frameTo(t, 9), true); v != nf.Drop {
		t.Fatalf("port-9 frame: verdict %v, want Drop", v)
	}
	if v := nfkittest.Send(a, frameTo(t, 80), true); v != nf.Forward {
		t.Fatalf("port-80 frame: verdict %v, want Forward", v)
	}
	if d.counters != [numReasons]uint64{ReasonFwd: 1, ReasonDropPort9: 1} {
		t.Fatalf("counters %v, want one each", d.counters)
	}
	if got := a.LastReasonName(); got != Reasons.Name(ReasonFwd) {
		t.Fatalf("last reason %s, want %s", got, Reasons.Name(ReasonFwd))
	}
	if got, want := a.NFStats(), (nf.Stats{Processed: 2, Forwarded: 1, Dropped: 1}); got != want {
		t.Fatalf("stats view %+v, want %+v", got, want)
	}
}
