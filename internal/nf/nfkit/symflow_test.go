package nfkit_test

import (
	"strings"
	"testing"

	"vignat/internal/discard"
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
	rep, err := nfkit.VerifySym(*d.Sym, nfkit.ModelExact, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() || rep.Paths != paths {
		t.Fatalf("%s: %s, want a complete proof over %d paths\n%s",
			d.Name, rep.Summary(), paths, strings.Join(rep.Failures(), "\n"))
	}
	reasons, err := d.VerifyReasons()
	if err != nil {
		t.Fatal(err)
	}
	if !reasons.OK() {
		t.Fatalf("%s: %s\n%v", d.Name, reasons.Summary(), reasons.Failures)
	}
}

// TestModelsOfFig4 runs the paper's three-model experiment (Fig. 4) on
// every NF with a state model, through the one verifier: the exact
// model proves; the over-approximate one passes model validation (P5)
// but leaves the semantic property (P1) unprovable; the under-
// approximate one fails P5, each failure naming the call whose model
// claimed too much and the contract clause that does not justify it.
func TestModelsOfFig4(t *testing.T) {
	clock := libvig.NewVirtualClock(0)
	lbCfg := lb.Config{VIP: confVIP, Capacity: 16, Timeout: confTimeout, MaxBackends: 4}
	lbPass := lbCfg
	lbPass.Passthrough = true
	for _, nf := range []struct {
		name         string
		spec         *nfkit.SymSpec
		call, clause string // what the under-approximate model over-claims at
	}{
		{"vignat", nat.Kit(nat.Config{Capacity: 16, Timeout: confTimeout, ExternalIP: flow.MakeAddr(198, 18, 1, 1),
			PortBase: 1000, ExternalPort: 1}, clock).Sym, "flow_allocate", "FlowTable.Add"},
		{"firewall", firewall.Kit(16, confTimeout, clock).Sym, "session_create", "FlowTable.Add"},
		{"viglb", lb.Kit(lbCfg, clock).Sym, "sticky_create", "FlowTable.Add"},
		{"viglb-passthrough", lb.Kit(lbPass, clock).Sym, "sticky_create", "FlowTable.Add"},
		{"vigpol", policer.Kit(policer.Config{Rate: 1, Burst: 1, Capacity: 16, Timeout: confTimeout}, clock).Sym,
			"bucket_create", "Map.Put"},
		{"discard-ring", discard.RingSym(), "ring_pop_front", "Ring.PopFront"},
	} {
		for _, model := range []nfkit.Model{nfkit.ModelExact, nfkit.ModelOver, nfkit.ModelUnder} {
			t.Run(nf.name+"/"+model.String(), func(t *testing.T) {
				rep, err := nfkit.VerifySym(*nf.spec, model, 2)
				if err != nil {
					t.Fatal(err)
				}
				failures := strings.Join(rep.Failures(), "\n")
				if len(rep.P2Violations)+len(rep.P4Violations) > 0 {
					t.Fatalf("%s: the models' discipline does not depend on their strength:\n%s", rep.Summary(), failures)
				}
				switch model {
				case nfkit.ModelExact:
					if !rep.OK() {
						t.Fatalf("%s\n%s", rep.Summary(), failures)
					}
				case nfkit.ModelOver:
					if len(rep.P1Failures) == 0 || len(rep.P5Violations) > 0 {
						t.Fatalf("%s: want P1 failures and no P5 violation\n%s", rep.Summary(), failures)
					}
				case nfkit.ModelUnder:
					if len(rep.P5Violations) == 0 || len(rep.P1Failures) > 0 {
						t.Fatalf("%s: want P5 violations and no P1 failure\n%s", rep.Summary(), failures)
					}
					for _, v := range rep.P5Violations {
						if !strings.Contains(v, "model of "+nf.call+" claims") || !strings.HasSuffix(v, "contract clause "+nf.clause) {
							t.Errorf("P5 violation %q names neither %s nor %s", v, nf.call, nf.clause)
						}
					}
				}
			})
		}
	}
}

// TestSymFlowTableDiscipline runs the flow-table model's and the parse
// chain's negative cases once, against the models: each row is a
// stateless logic that breaks one P2/P4 obligation, and the verifier
// must name it — whatever NF the models are embedded in.
func TestSymFlowTableDiscipline(t *testing.T) {
	type handle int
	type table = nfkit.SymFlowTable[handle]
	model := func(d *nfkit.SymDriver) table {
		return table{
			D: d, Noun: "record", FstSide: []string{"from_internal"},
			GetFst: "get_fst", GetSnd: "get_snd", Create: "create",
			Vars: []string{"rec_src_ip"}, Fst: [][2]string{{"rec_src_ip", "pkt_src_ip"}},
		}
	}
	parsed := func(g nfkit.SymGuards) bool {
		return g.FrameIntact() && g.EtherIsIPv4() && g.IPv4HeaderValid() && g.NotFragment() &&
			g.L4Supported() && g.L4HeaderIntact()
	}
	// inside runs body in the disciplined frame: expiry first, body only
	// for a parsed packet from the first key's side, one output last.
	inside := func(body func(m table)) func(nfkit.SymGuards, table) {
		return func(g nfkit.SymGuards, m table) {
			g.D.Expire("expire")
			if parsed(g) && g.PacketFromInternal() {
				body(m)
			}
			g.D.Output("drop")
		}
	}
	for _, tc := range []struct {
		name, want string
		logic      func(nfkit.SymGuards, table)
	}{
		{"disciplined", "", inside(func(m table) {
			if h, ok := m.LookupFst(); ok {
				m.Rejuvenate(h)
			} else if h, ok := m.Add(nil); ok {
				m.Rejuvenate(h)
			}
		})},
		{"lookup before expiry", "P4: get_fst before expiry", func(g nfkit.SymGuards, m table) {
			if parsed(g) && g.PacketFromInternal() {
				m.LookupFst()
			}
			g.D.Expire("expire")
			g.D.Output("drop")
		}},
		{"unvalidated key", "P2: record key from unvalidated L4 header", func(g nfkit.SymGuards, m table) {
			g.D.Expire("expire")
			if g.FrameIntact() && g.EtherIsIPv4() && g.IPv4HeaderValid() && g.NotFragment() && g.L4Supported() &&
				g.PacketFromInternal() {
				m.LookupFst()
			}
			g.D.Output("drop")
		}},
		{"wrong side", "P4: get_fst for a packet not from that key's side", func(g nfkit.SymGuards, m table) {
			g.D.Expire("expire")
			if parsed(g) && !g.PacketFromInternal() {
				m.LookupFst()
			}
			g.D.Output("drop")
		}},
		{"parse out of order", "P2: l4_header_intact evaluated before its guard predicate", func(g nfkit.SymGuards, m table) {
			g.D.Expire("expire")
			if g.L4HeaderIntact() && g.PacketFromInternal() {
				m.LookupFst()
			}
			g.D.Output("drop")
		}},
		{"create without a miss", "P4: record creation without a preceding miss", inside(func(m table) { m.Add(nil) })},
		{"dead handle", "P2: rejuvenate on invalid record handle 7", inside(func(m table) { m.Rejuvenate(7) })},
		{"leak", "P4: path 0: 0 output actions", func(g nfkit.SymGuards, m table) { g.D.Expire("expire") }},
		{"double output", "P4: more than one output action", inside(func(m table) { m.D.Output("drop") })},
		{"emit then drop", "P4: more than one output action", inside(func(m table) {
			if h, ok := m.LookupFst(); ok {
				m.Rejuvenate(h)
				m.D.Output("emit")
			}
		})},
		{"call after the output", "P4: dchain_rejuvenate after the output action", func(g nfkit.SymGuards, m table) {
			g.D.Expire("expire")
			if parsed(g) && g.PacketFromInternal() {
				if h, ok := m.LookupFst(); ok {
					g.D.Output("drop")
					m.Rejuvenate(h)
					return
				}
			}
			g.D.Output("drop")
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rep, err := nfkit.VerifySym(nfkit.SymSpec{
				NF: "model", Outputs: []string{"emit", "drop"},
				Drive: func(d *nfkit.SymDriver) { tc.logic(nfkit.SymGuards{D: d}, model(d)) },
				Spec:  func(*nfkit.SymPath) (telemetry.ReasonID, error) { return 0, nil },
			}, nfkit.ModelExact, 1)
			if err != nil {
				t.Fatal(err)
			}
			violated := strings.Join(rep.Failures(), "\n")
			if tc.want == "" && !rep.OK() {
				t.Fatalf("%s: %s", rep.Summary(), violated)
			}
			if !strings.Contains(violated, tc.want) {
				t.Fatalf("violations %q, want %q", violated, tc.want)
			}
		})
	}
}
