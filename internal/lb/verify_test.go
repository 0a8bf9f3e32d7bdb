package lb

import (
	"testing"
	"time"

	"vignat/internal/flow"
	"vignat/internal/libvig"
)

// TestLBVerified runs the kit-derived pipeline on the balancer's
// stateless logic: the roadmap's "verify the LB composition" item —
// path enumeration with the CHT and sticky-table models, P2/P4
// discipline, and solver entailment of the steering specification,
// with zero unmodeled state operations (every Env call below is a
// model; an unmodeled one could not execute under the engine at all).
func TestLBVerified(t *testing.T) {
	rep, err := Verify()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("proof failed: %s\n%v", rep.Summary(), rep.Failures())
	}
	// 6 guard fail-paths + client{non-VIP, VIP{sticky hit, miss{cht
	// miss, create ok, create full}}} + backend{reply hit, miss}
	// = 6 + 1 + 4 + 2 = 13 feasible paths.
	if rep.Paths != 13 {
		t.Fatalf("paths %d, want 13", rep.Paths)
	}
	t.Log(rep.Summary())
}

// TestLBReasonsConsistent cross-checks the declared reason taxonomy
// against the path enumeration — in both Passthrough orientations,
// since the taxonomy's drop classes flip with the configuration.
func TestLBReasonsConsistent(t *testing.T) {
	for _, passthrough := range []bool{true, false} {
		cfg := Config{
			VIP: flow.MakeAddr(10, 0, 0, 1), Capacity: 16, Timeout: time.Second,
			MaxBackends: 4, Passthrough: passthrough,
		}
		rep, err := Kit(cfg, libvig.NewVirtualClock(0)).VerifyReasons()
		if err != nil {
			t.Fatal(err)
		}
		if !rep.OK() {
			t.Fatalf("passthrough=%v: taxonomy drifted: %s\n%v",
				passthrough, rep.Summary(), rep.Failures)
		}
		t.Logf("passthrough=%v: %s", passthrough, rep.Summary())
	}
}

// TestLBBuggyDeadBackendSteerCaught: ignoring the CHT's "no live
// backend" answer and pinning the flow anyway steers traffic at a dead
// (never-selected) backend — the capability discipline rejects the
// unminted handle.
func TestLBBuggyDeadBackendSteerCaught(t *testing.T) {
	buggy := func(env Env) {
		env.ExpireState()
		if !env.FrameIntact() || !env.EtherIsIPv4() || !env.IPv4HeaderValid() ||
			!env.NotFragment() || !env.L4Supported() || !env.L4HeaderIntact() {
			env.Drop()
			return
		}
		if env.PacketFromClient() {
			if !env.DstIsVIP() {
				env.Passthrough()
				return
			}
			if h, ok := env.LookupSticky(); ok {
				env.Rejuvenate(h)
				env.ForwardToBackend(h)
				return
			}
			b, _ := env.SelectBackend() // BUG: liveness answer ignored
			h, ok := env.CreateSticky(b)
			if !ok {
				env.Drop()
				return
			}
			env.ForwardToBackend(h)
			return
		}
		if h, ok := env.LookupReply(); ok {
			env.Rejuvenate(h)
			env.ForwardToClient(h)
			return
		}
		env.Passthrough()
	}
	rep, err := verifyLogic(buggy)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("dead-backend steer not caught")
	}
	if len(rep.P2Violations) == 0 {
		t.Fatalf("expected P2 capability violations, got %s", rep.Summary())
	}
}

// TestLBBuggyNonStickyRemapCaught: selecting a backend fresh for every
// packet (skipping the sticky table) remaps live flows mid-stream —
// the stickiness discipline rejects selection without a preceding
// miss, and the hit-path spec has no pinned entry to entail.
func TestLBBuggyNonStickyRemapCaught(t *testing.T) {
	buggy := func(env Env) {
		env.ExpireState()
		if !env.FrameIntact() || !env.EtherIsIPv4() || !env.IPv4HeaderValid() ||
			!env.NotFragment() || !env.L4Supported() || !env.L4HeaderIntact() {
			env.Drop()
			return
		}
		if env.PacketFromClient() {
			if !env.DstIsVIP() {
				env.Passthrough()
				return
			}
			// BUG: never consults the sticky table — every packet
			// re-selects through the CHT.
			b, ok := env.SelectBackend()
			if !ok {
				env.Drop()
				return
			}
			h, ok := env.CreateSticky(b)
			if !ok {
				env.Drop()
				return
			}
			env.ForwardToBackend(h)
			return
		}
		if h, ok := env.LookupReply(); ok {
			env.Rejuvenate(h)
			env.ForwardToClient(h)
			return
		}
		env.Passthrough()
	}
	rep, err := verifyLogic(buggy)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("non-sticky remap not caught")
	}
	if len(rep.P2Violations) == 0 {
		t.Fatalf("expected stickiness-discipline violations, got %s", rep.Summary())
	}
}

// TestLBBuggyVIPLeakCaught: passing a backend reply through unmodified
// instead of restoring the VIP source leaks the backend's real address
// to the client — the reply-path spec demands the VIP-restoring
// forward.
func TestLBBuggyVIPLeakCaught(t *testing.T) {
	buggy := func(env Env) {
		env.ExpireState()
		if !env.FrameIntact() || !env.EtherIsIPv4() || !env.IPv4HeaderValid() ||
			!env.NotFragment() || !env.L4Supported() || !env.L4HeaderIntact() {
			env.Drop()
			return
		}
		if env.PacketFromClient() {
			if !env.DstIsVIP() {
				env.Passthrough()
				return
			}
			if h, ok := env.LookupSticky(); ok {
				env.Rejuvenate(h)
				env.ForwardToBackend(h)
				return
			}
			b, ok := env.SelectBackend()
			if !ok {
				env.Drop()
				return
			}
			h, ok := env.CreateSticky(b)
			if !ok {
				env.Drop()
				return
			}
			env.ForwardToBackend(h)
			return
		}
		if h, ok := env.LookupReply(); ok {
			env.Rejuvenate(h)
		}
		env.Passthrough() // BUG: reply leaves with the backend's source address
	}
	rep, err := verifyLogic(buggy)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("VIP leak not caught")
	}
	if len(rep.P1Failures) == 0 {
		t.Fatalf("expected P1 failures, got %s", rep.Summary())
	}
}

// TestLBBuggyDoubleOutputCaught: emitting two output actions for one
// packet breaks the single-output discipline.
func TestLBBuggyDoubleOutputCaught(t *testing.T) {
	buggy := func(env Env) {
		env.ExpireState()
		if !env.FrameIntact() || !env.EtherIsIPv4() || !env.IPv4HeaderValid() ||
			!env.NotFragment() || !env.L4Supported() || !env.L4HeaderIntact() {
			env.Drop()
			return
		}
		if env.PacketFromClient() {
			_ = env.DstIsVIP()
			env.Passthrough()
			env.Drop() // BUG: second output
			return
		}
		env.Passthrough()
	}
	rep, err := verifyLogic(buggy)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("double-output bug not caught")
	}
}
