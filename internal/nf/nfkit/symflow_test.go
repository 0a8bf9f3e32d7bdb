package nfkit_test

import (
	"strings"
	"testing"

	"vignat/internal/firewall"
	"vignat/internal/flow"
	"vignat/internal/lb"
	"vignat/internal/libvig"
	"vignat/internal/nat"
	"vignat/internal/nf/nfkit"
	"vignat/internal/nf/telemetry"
	"vignat/internal/policer"
)

// TestProofSurfaceUnchanged pins what sharing the flow-table model must
// not move: each declaration's proof completes over the same number of
// feasible paths it had when every NF wrote its own model, and every
// declared reason still labels at least one of them.
func TestProofSurfaceUnchanged(t *testing.T) {
	clock := libvig.NewVirtualClock(0)
	lbCfg := lb.Config{VIP: confVIP, Capacity: 16, Timeout: confTimeout, MaxBackends: 4}
	lbPass := lbCfg
	lbPass.Passthrough = true
	surface(t, nat.Kit(nat.Config{Capacity: 16, Timeout: confTimeout, ExternalIP: flow.MakeAddr(198, 18, 1, 1),
		PortBase: 1000, InternalPort: 0, ExternalPort: 1}, clock), 11)
	surface(t, firewall.Kit(16, confTimeout, clock), 11)
	surface(t, lb.Kit(lbCfg, clock), 13)
	surface(t, lb.Kit(lbPass, clock), 13)
	surface(t, policer.Kit(policer.Config{Rate: 1, Burst: 1, Capacity: 16, Timeout: confTimeout}, clock), 9)
}

func surface[C any](t *testing.T, d nfkit.Decl[C], paths int) {
	t.Helper()
	rep, err := nfkit.VerifySym(*d.Sym)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() || rep.Paths != paths {
		t.Fatalf("%s: %s, want a complete proof over %d paths\nP1=%v\nP2=%v\nP4=%v",
			d.Name, rep.Summary(), paths, rep.P1Failures, rep.P2Violations, rep.P4Violations)
	}
	reasons, err := d.VerifyReasons()
	if err != nil {
		t.Fatal(err)
	}
	if !reasons.OK() {
		t.Fatalf("%s: %s\n%v", d.Name, reasons.Summary(), reasons.Failures)
	}
}

// TestSymFlowTableDiscipline runs the shared model's own two negative
// cases once, against the model: a stateless logic that creates a
// record without the first-key lookup having missed breaks P4, one that
// rejuvenates a handle no operation minted breaks P2 — whatever NF the
// model is embedded in.
func TestSymFlowTableDiscipline(t *testing.T) {
	type handle int
	model := func(d *nfkit.SymDriver) nfkit.SymFlowTable[handle] {
		return nfkit.SymFlowTable[handle]{
			D: d, Noun: "record", FstSide: []string{"from_internal"},
			GetFst: "get_fst", GetSnd: "get_snd", Create: "create",
			Vars: []string{"rec_src_ip"}, Fst: [][2]string{{"rec_src_ip", "pkt_src_ip"}},
		}
	}
	for _, tc := range []struct {
		name, want string
		logic      func(nfkit.SymFlowTable[handle])
	}{
		{"create without a preceding miss", "P4: record creation without a preceding miss",
			func(m nfkit.SymFlowTable[handle]) { m.Add(nil) }},
		{"rejuvenate an unminted handle", "P2: rejuvenate on invalid record handle 7",
			func(m nfkit.SymFlowTable[handle]) { m.Rejuvenate(7) }},
		{"the disciplined order", "",
			func(m nfkit.SymFlowTable[handle]) {
				if h, ok := m.LookupFst(); ok {
					m.Rejuvenate(h)
				} else if h, ok := m.Add(nil); ok {
					m.Rejuvenate(h)
				}
			}},
	} {
		rep, err := nfkit.VerifySym(nfkit.SymSpec{
			NF: "model", Outputs: []string{"drop"},
			Drive: func(d *nfkit.SymDriver) {
				// Only a parseable packet from the first key's side
				// reaches the table.
				if g := (nfkit.SymGuards{D: d}); g.IPv4HeaderValid() && g.L4HeaderIntact() && g.PacketFromInternal() {
					tc.logic(model(d))
				}
				d.Output("drop")
			},
			Spec: func(*nfkit.SymPath) (telemetry.ReasonID, error) { return 0, nil },
		})
		if err != nil {
			t.Fatal(err)
		}
		violated := strings.Join(rep.P2Violations, "\n")
		if tc.want == "" && !rep.OK() {
			t.Fatalf("%s: %s: %s", tc.name, rep.Summary(), violated)
		}
		if !strings.Contains(violated, tc.want) {
			t.Fatalf("%s: violations %q, want %q", tc.name, violated, tc.want)
		}
	}
}
