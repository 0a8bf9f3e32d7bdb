package policer

import (
	"testing"
	"time"

	"vignat/internal/libvig"
)

// TestPolicerVerified runs the full pipeline on the policer's stateless
// logic: the §7 amortization claim, fourth NF proven with the same
// engine, solver, and discipline checks.
func TestPolicerVerified(t *testing.T) {
	rep, err := Verify()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("proof failed: %s\n%v", rep.Summary(), rep.Failures())
	}
	// frame guards ×3 fail-paths + egress + ingress{hit×charge(2),
	// miss×create{charge(2), full}} = 3+1+5 = 9 feasible paths.
	if rep.Paths != 9 {
		t.Fatalf("paths %d, want 9", rep.Paths)
	}
	t.Log(rep.Summary())
}

// TestPolicerReasonsConsistent cross-checks the declared reason
// taxonomy against the same path enumeration.
func TestPolicerReasonsConsistent(t *testing.T) {
	cfg := Config{Rate: 1000, Burst: 1500, Capacity: 16, Timeout: time.Second}
	rep, err := Kit(cfg, libvig.NewVirtualClock(0)).VerifyReasons()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("taxonomy drifted: %s\n%v", rep.Summary(), rep.Failures)
	}
	t.Log(rep.Summary())
}

// TestPolicerBuggyUnmeteredCaught: forwarding ingress traffic without
// charging it (a policer that polices nothing) must fail the semantic
// property.
func TestPolicerBuggyUnmeteredCaught(t *testing.T) {
	buggy := func(env Env) {
		env.ExpireState()
		if !env.FrameIntact() || !env.EtherIsIPv4() || !env.IPv4HeaderValid() {
			env.Drop()
			return
		}
		if env.PacketFromInternal() {
			env.Passthrough()
			return
		}
		h, ok := env.LookupBucket()
		if ok {
			env.Rejuvenate(h)
		} else if h, ok = env.CreateBucket(); !ok {
			env.Drop()
			return
		}
		env.Forward() // BUG: never charges the bucket
	}
	rep, err := verifyLogic(buggy)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("unmetered-forward bug not caught")
	}
	if len(rep.P1Failures) == 0 {
		t.Fatalf("expected P1 failures, got %s", rep.Summary())
	}
}

// TestPolicerBuggyFailOpenCaught: forwarding over-rate traffic (dropping
// the verdict test) must fail the rate-enforcement clause.
func TestPolicerBuggyFailOpenCaught(t *testing.T) {
	buggy := func(env Env) {
		env.ExpireState()
		if !env.FrameIntact() || !env.EtherIsIPv4() || !env.IPv4HeaderValid() {
			env.Drop()
			return
		}
		if env.PacketFromInternal() {
			env.Passthrough()
			return
		}
		h, ok := env.LookupBucket()
		if ok {
			env.Rejuvenate(h)
		} else if h, ok = env.CreateBucket(); !ok {
			env.Drop()
			return
		}
		env.Charge(h) // BUG: conformance ignored — fail-open
		env.Forward()
	}
	rep, err := verifyLogic(buggy)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("fail-open bug not caught")
	}
}

// TestPolicerBuggyEgressMeteredCaught: charging upload traffic violates
// the ingress-only discipline (P4 ordering guard).
func TestPolicerBuggyEgressMeteredCaught(t *testing.T) {
	buggy := func(env Env) {
		env.ExpireState()
		if !env.FrameIntact() || !env.EtherIsIPv4() || !env.IPv4HeaderValid() {
			env.Drop()
			return
		}
		_ = env.PacketFromInternal() // BUG: direction ignored, everything metered
		h, ok := env.LookupBucket()
		if ok {
			env.Rejuvenate(h)
		} else if h, ok = env.CreateBucket(); !ok {
			env.Drop()
			return
		}
		if env.Charge(h) {
			env.Forward()
		} else {
			env.Drop()
		}
	}
	rep, err := verifyLogic(buggy)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("metered-egress bug not caught")
	}
	if len(rep.P2Violations) == 0 {
		t.Fatalf("expected P2/P4 discipline violations, got %s", rep.Summary())
	}
}

// TestPolicerBuggyDoubleOutputCaught: emitting two output actions for
// one packet breaks the single-output discipline.
func TestPolicerBuggyDoubleOutputCaught(t *testing.T) {
	buggy := func(env Env) {
		env.ExpireState()
		if !env.FrameIntact() || !env.EtherIsIPv4() || !env.IPv4HeaderValid() {
			env.Drop()
			return
		}
		if env.PacketFromInternal() {
			env.Passthrough()
			env.Forward() // BUG: second output
			return
		}
		env.Drop()
	}
	rep, err := verifyLogic(buggy)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("double-output bug not caught")
	}
}
