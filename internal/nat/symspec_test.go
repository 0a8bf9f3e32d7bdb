package nat

import (
	"strings"
	"testing"
	"time"

	"vignat/internal/libvig"
	"vignat/internal/nat/stateless"
	"vignat/internal/nf/nfkit"
	"vignat/internal/vigor/sym"
	"vignat/internal/vigor/trace"
)

// symCfg is the deployment the NAT's proofs below are run for.
var symCfg = Config{Capacity: 16, Timeout: time.Second, ExternalIP: tExtIP, PortBase: 1000, ExternalPort: 1}

// verifyLogic proves a NAT-shaped stateless logic under the NAT's
// declaration for symCfg.
func verifyLogic(t *testing.T, logic func(stateless.Env)) *nfkit.Report {
	t.Helper()
	rep, err := nfkit.VerifySym(*symSpecFor(symCfg, logic), nfkit.ModelExact, 1)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// expectViolation fails t unless some failure of rep contains fragment.
func expectViolation(t *testing.T, rep *nfkit.Report, fragment string) {
	t.Helper()
	if all := strings.Join(rep.Failures(), "\n"); rep.OK() || !strings.Contains(all, fragment) {
		t.Fatalf("%s: want a failure containing %q, got:\n%s", rep.Summary(), fragment, all)
	}
}

// proveNAT runs the proof of the NAT's declaration for cfg under the
// exact model and fails t unless it completes.
func proveNAT(t *testing.T, cfg Config, workers int) *nfkit.Report {
	t.Helper()
	rep, err := nfkit.VerifySym(*Kit(cfg, libvig.NewVirtualClock(0)).Sym, nfkit.ModelExact, workers)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("proof failed: %s\n%v", rep.Summary(), rep.Failures())
	}
	return rep
}

// TestNATDerivedVerified proves the NAT's stateless logic through its
// declaration.
func TestNATDerivedVerified(t *testing.T) {
	t.Log(proveNAT(t, symCfg, 0).Summary())
}

// TestNATDefaultConfigVerified: the proof covers the paper's deployment
// too — the defaults Validate fills in, the whole port range behind
// EXT_IP — on more than one validation worker.
func TestNATDefaultConfigVerified(t *testing.T) {
	rep := proveNAT(t, Config{ExternalIP: tExtIP, ExternalPort: 1}, 2)
	if !strings.Contains(rep.Summary(), "PROOF COMPLETE") {
		t.Fatalf("summary: %s", rep.Summary())
	}
}

// TestNATPathEnumeration pins the NAT's 11 feasible paths: six parse
// drops, the internal side's hit, creation and full table, the external
// side's hit and miss — each expiring first and ending in exactly one
// output action.
func TestNATPathEnumeration(t *testing.T) {
	rep := proveNAT(t, symCfg, 0)
	if rep.Paths != 11 {
		t.Fatalf("feasible paths = %d, want 11", rep.Paths)
	}
	outputs := map[string]int{}
	for i, tr := range rep.Traces {
		if tr.Seq[1].Name != "expire_flows" {
			t.Fatalf("path %d never expired flows first:\n%s", i, tr)
		}
		n := 0
		for _, c := range tr.Seq {
			switch c.Name {
			case "drop", "emit_external", "emit_internal":
				n++
				outputs[c.Name]++
			}
		}
		if n != 1 {
			t.Fatalf("path %d has %d outputs:\n%s", i, n, tr)
		}
	}
	if outputs["drop"] != 8 || outputs["emit_external"] != 2 || outputs["emit_internal"] != 1 {
		t.Fatalf("path mix %v, want 8 drops, 2 external and 1 internal emits", outputs)
	}
}

// TestNATTraceCountsStable pins the verification-task count: every
// path's trace and all its prefixes.
func TestNATTraceCountsStable(t *testing.T) {
	if got := proveNAT(t, symCfg, 0).Tasks; got != 109 {
		t.Fatalf("verification tasks = %d, want 109", got)
	}
}

// TestNATInternalHitPathClean: the internal side's hit — expiry, the
// parse chain in order, the side, the lookup, rejuvenation, one emit —
// is one of the paths, and raises no discipline violation.
func TestNATInternalHitPathClean(t *testing.T) {
	want := []string{trace.LoopBegin, "expire_flows", "frame_intact", "ether_is_ipv4", "ipv4_header_valid",
		"not_fragment", "l4_supported", "l4_header_intact", "packet_from_internal", "flow_get_by_int_key",
		"dchain_rejuvenate", "emit_external", trace.LoopEnd}
	hits := 0
	for i, tr := range proveNAT(t, symCfg, 1).Traces {
		if c := callNamed(tr, "flow_get_by_int_key"); c == nil || !c.Ret {
			continue
		}
		hits++
		var got []string
		for _, c := range tr.Seq {
			got = append(got, c.Name)
		}
		if strings.Join(got, " ") != strings.Join(want, " ") || len(tr.Violations) > 0 {
			t.Fatalf("path %d: calls %v, violations %v; want %v and none", i, got, tr.Violations, want)
		}
	}
	if hits != 1 {
		t.Fatalf("%d internal-hit paths, want 1", hits)
	}
}

// callNamed returns tr's first call with the given name, or nil.
func callNamed(tr *trace.Trace, name string) *trace.Call {
	for i := range tr.Seq {
		if tr.Seq[i].Name == name {
			return &tr.Seq[i]
		}
	}
	return nil
}

// pathVar returns tr's symbolic variable with the given name.
func pathVar(t *testing.T, tr *trace.Trace, name string) sym.Var {
	t.Helper()
	for _, v := range tr.Vars {
		if v.Name == name {
			return v
		}
	}
	t.Fatalf("no variable %s on the path:\n%s", name, tr)
	return sym.Var{}
}

// TestNATCallContracts checks what each call of the NAT's proof binds
// as its libVig contract — the gamma P5 holds the models' claims to.
func TestNATCallContracts(t *testing.T) {
	rep := proveNAT(t, symCfg, 1)
	lookups := map[string]bool{"flow_get_by_int_key": true, "flow_get_by_ext_key": true, "flow_allocate": true}
	var solver sym.Solver

	// A hit ties the flow's internal key to the packet, and does not pin
	// its external port (a contract that did would justify Fig. 4's
	// under-approximate model).
	t.Run("lookup hit", func(t *testing.T) {
		hits := 0
		for _, tr := range rep.Traces {
			c := callNamed(tr, "flow_get_by_int_key")
			if c == nil || !c.Ret {
				continue
			}
			hits++
			if c.Clause != "FlowTable.LookupFst" {
				t.Fatalf("hit binds clause %q", c.Clause)
			}
			if !solver.Entails(c.Contract, sym.EqVV(pathVar(t, tr, "flow_int_src_ip"), pathVar(t, tr, "pkt_src_ip"))) {
				t.Fatalf("contract %v misses key equality", c.Contract)
			}
			if solver.Entails(c.Contract, sym.EqVC(pathVar(t, tr, "flow_ext_port"), uint64(symCfg.PortBase))) {
				t.Fatalf("contract %v over-commits on the allocated port", c.Contract)
			}
		}
		if hits != 1 {
			t.Fatalf("%d internal-hit paths, want 1", hits)
		}
	})

	// A miss (or a failed creation) hands back no flow and so promises
	// nothing.
	t.Run("lookup miss promises nothing", func(t *testing.T) {
		misses := 0
		for _, tr := range rep.Traces {
			for _, c := range tr.Seq {
				if lookups[c.Name] && !c.Ret {
					misses++
					if c.Clause != "" || c.Contract != nil || c.Out != nil {
						t.Fatalf("%s miss binds %q: contract %v, claims %v", c.Name, c.Clause, c.Contract, c.Out)
					}
				}
			}
		}
		if misses == 0 {
			t.Fatal("no path misses a lookup")
		}
	})

	// Expiry, rejuvenation, guards, outputs and the loop markers model no
	// libVig operation that hands back a record: they bind no contract.
	t.Run("non state calls", func(t *testing.T) {
		seen := map[string]bool{}
		for _, tr := range rep.Traces {
			for _, c := range tr.Seq {
				if lookups[c.Name] {
					continue
				}
				seen[c.Name] = true
				if c.Clause != "" || c.Contract != nil {
					t.Fatalf("%s binds %q: contract %v", c.Name, c.Clause, c.Contract)
				}
			}
		}
		for _, name := range []string{"expire_flows", "dchain_rejuvenate", "drop", "emit_external", trace.LoopBegin} {
			if !seen[name] {
				t.Fatalf("no path calls %s", name)
			}
		}
	})
}

// TestNATVerifyProvesDeployedRange: the proof is of the configured
// deployment — on every path holding a flow, its external port is
// entailed to lie in [PortBase, PortBase+Capacity), and nothing
// narrower.
func TestNATVerifyProvesDeployedRange(t *testing.T) {
	rep := verifyLogic(t, stateless.ProcessPacket)
	var solver sym.Solver
	flows := 0
	for i, tr := range rep.Traces {
		for _, v := range tr.Vars {
			if v.Name != "flow_ext_port" {
				continue
			}
			flows++
			if !solver.Entails(tr.Constraints, sym.GeVC(v, 1000)) || !solver.Entails(tr.Constraints, sym.LeVC(v, 1015)) ||
				solver.Entails(tr.Constraints, sym.LeVC(v, 1014)) {
				t.Fatalf("path %d: flow port not proved in [1000, 1015]:\n%s", i, tr)
			}
		}
	}
	if flows != 3 {
		t.Fatalf("%d paths hold a flow, want 3 (internal hit, creation, external hit)", flows)
	}
}

// TestNATVerifyRejectsBadConfig: a configuration the NAT refuses to run
// is one its declaration refuses to prove.
func TestNATVerifyRejectsBadConfig(t *testing.T) {
	rep, err := nfkit.VerifySym(*Kit(Config{Capacity: 16}, libvig.NewVirtualClock(0)).Sym, nfkit.ModelExact, 1)
	if err != nil {
		t.Fatal(err)
	}
	expectViolation(t, rep, "config: nat: external IP required")
}

// TestNATReasonsConsistent cross-checks the declared reason taxonomy
// against the path enumeration.
func TestNATReasonsConsistent(t *testing.T) {
	cfg := Config{Capacity: 16, Timeout: time.Second, ExternalIP: tExtIP, PortBase: 1}
	rep, err := Kit(cfg, libvig.NewVirtualClock(0)).VerifyReasons()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("taxonomy drifted: %s\n%v", rep.Summary(), rep.Failures)
	}
	t.Log(rep.Summary())
}

// --- Buggy stateless variants: the models' discipline checks (the KLEE
// sanitizer analogue) and the specification must catch each class. ---

// TestBuggySkippedGuard: flow keys read from an unvalidated L4 header.
func TestBuggySkippedGuard(t *testing.T) {
	expectViolation(t, verifyLogic(t, func(env stateless.Env) {
		env.ExpireFlows()
		if !env.FrameIntact() || !env.EtherIsIPv4() || !env.IPv4HeaderValid() ||
			!env.NotFragment() || !env.L4Supported() {
			env.Drop()
			return
		}
		// BUG: L4HeaderIntact never checked before building the key.
		if env.PacketFromInternal() {
			if h, ok := env.LookupInternal(); ok {
				env.Rejuvenate(h)
				env.EmitExternal(h)
				return
			}
		}
		env.Drop()
	}), "P2: flow key from unvalidated L4 header")
}

// TestBuggyInvalidHandle: an emit through the handle of a failed
// allocation.
func TestBuggyInvalidHandle(t *testing.T) {
	expectViolation(t, verifyLogic(t, func(env stateless.Env) {
		env.ExpireFlows()
		if !env.FrameIntact() || !env.EtherIsIPv4() || !env.IPv4HeaderValid() ||
			!env.NotFragment() || !env.L4Supported() || !env.L4HeaderIntact() {
			env.Drop()
			return
		}
		if env.PacketFromInternal() {
			h, ok := env.LookupInternal()
			if !ok {
				h, _ = env.AllocateFlow() // BUG: ok ignored
			}
			env.EmitExternal(h) // may use an invalid handle
			return
		}
		env.Drop()
	}), "P2: emit via invalid flow handle")
}

// TestBuggyDoubleOutput: a packet both emitted and dropped.
func TestBuggyDoubleOutput(t *testing.T) {
	expectViolation(t, verifyLogic(t, func(env stateless.Env) {
		env.ExpireFlows()
		if !env.FrameIntact() || !env.EtherIsIPv4() || !env.IPv4HeaderValid() ||
			!env.NotFragment() || !env.L4Supported() || !env.L4HeaderIntact() {
			env.Drop()
			return
		}
		if env.PacketFromInternal() {
			if h, ok := env.LookupInternal(); ok {
				env.EmitExternal(h)
				env.Drop() // BUG: second output: packet buffer double-consumed
				return
			}
		}
		env.Drop()
	}), "P4: more than one output action")
}

// TestBuggyAllocWithoutLookup: a flow allocated without checking for an
// existing one — the dmap duplicate-key pre-condition violation.
func TestBuggyAllocWithoutLookup(t *testing.T) {
	expectViolation(t, verifyLogic(t, func(env stateless.Env) {
		env.ExpireFlows()
		if !env.FrameIntact() || !env.EtherIsIPv4() || !env.IPv4HeaderValid() ||
			!env.NotFragment() || !env.L4Supported() || !env.L4HeaderIntact() {
			env.Drop()
			return
		}
		if env.PacketFromInternal() {
			if h, ok := env.AllocateFlow(); ok { // BUG: no lookup first
				env.EmitExternal(h)
				return
			}
		}
		env.Drop()
	}), "P4: flow creation without a preceding miss")
}

// TestBuggyPortOnlyReplyKey: a model whose external-key lookup binds
// only the port and protocol — what getByIndex's index alone would say,
// without its key compare — cannot prove that a reply reaches the
// session it belongs to.
func TestBuggyPortOnlyReplyKey(t *testing.T) {
	s := symSpecFor(symCfg, stateless.ProcessPacket)
	s.Drive = func(d *nfkit.SymDriver) {
		e := newNatSym(d, symCfg)
		e.flows.Snd = e.flows.Snd[3:] // BUG: external port and protocol only
		stateless.ProcessPacket(e)
	}
	rep, err := nfkit.VerifySym(*s, nfkit.ModelExact, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.P1Failures) == 0 {
		t.Fatalf("%s: want the inbound forward unprovable (P1)", rep.Summary())
	}
	expectViolation(t, rep, "flow_get_by_ext_key binding not entailed")
}
