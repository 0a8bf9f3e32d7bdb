// Differential RFC 3022 conformance: every NAT in the repository runs
// on the engine through long randomized traces — session creation,
// replies, rejuvenation, expiry, capacity pressure, junk — while the
// executable oracle checks each observable action: over each transport,
// and through live worker-count changes. This is the
// implementation-facing complement of the trace-level P1 proof.
package spec_test

import (
	"testing"
	"time"

	"vignat/internal/flow"
	"vignat/internal/libvig"
	"vignat/internal/nat"
	"vignat/internal/netfilter"
	"vignat/internal/nf"
	"vignat/internal/nf/nfkit/nfkittest"
	"vignat/internal/unverified"
	"vignat/internal/vigor/spec"
)

func natConfig(capacity int, texp time.Duration) nat.Config {
	return nat.Config{
		Capacity: capacity, Timeout: texp, ExternalIP: extIP,
		PortBase: confPortBase, InternalPort: 0, ExternalPort: 1,
	}
}

func natOracle(capacity int, texp time.Duration) *spec.Oracle {
	return spec.NewOracle(capacity, texp.Nanoseconds(), extIP, confPortBase, capacity)
}

// natTrace is the NAT rows' trace: one packet a step from an internal
// client pool, half of them clients', with replies, strays at the
// external address and untranslatable packets, the clock stepping up to
// 40 ms against a one-second timeout.
func natTrace(seed int64, steps int, pool []flow.ID) nfkittest.Trace {
	return nfkittest.Trace{
		Seed: seed, Steps: steps, Clients: pool, ClientsInternal: true, Texp: confTimeout, Tick: 25,
		Mix: nfkittest.Mix{Client: 5, Reply: 3, Stray: 1, ICMP: 1},
	}
}

// buildNAT builds one of the three NATs, each entered as an nf.NF (the
// verified NAT through its adapter).
func buildNAT(t *testing.T, name string, clock libvig.Clock) nf.NF {
	t.Helper()
	var n nf.NF
	var err error
	switch name {
	case "verified":
		var v *nat.NAT
		if v, err = nat.New(natConfig(confCap, confTimeout), clock); err == nil {
			n = nat.AsNF(v)
		}
	case "unverified":
		n, err = unverified.New(confCap, extIP, confPortBase, confTimeout, clock)
	case "netfilter":
		n, err = netfilter.New(confCap, extIP, confPortBase, confTimeout, clock)
	}
	if err != nil {
		t.Fatal(err)
	}
	return n
}

var natNames = []string{"verified", "unverified", "netfilter"}

// TestRFC3022ConformanceRandomized is the big differential test: 20k
// random packets against the oracle, per NAT, with 48 flows contending
// for 32 sessions.
func TestRFC3022ConformanceRandomized(t *testing.T) {
	for _, name := range natNames {
		t.Run(name, func(t *testing.T) {
			clock := libvig.NewVirtualClock(0)
			r := newRig(t, buildNAT(t, name, clock), clock, nf.Config{})
			play(t, clock, natTrace(42, 20000, clients(48, 5, 3)), []*nfkittest.Rig{r},
				natJudge(natOracle(confCap, confTimeout)), nil)
		})
	}
}

// TestConformanceExpiryBoundary drives the exact expiry boundary: a
// reply at age == Texp must be dropped, at age just below must pass —
// for all three NATs, in lockstep with the oracle.
func TestConformanceExpiryBoundary(t *testing.T) {
	for _, name := range natNames {
		t.Run(name, func(t *testing.T) {
			clock := libvig.NewVirtualClock(0)
			r := newRig(t, buildNAT(t, name, clock), clock, nf.Config{})
			j := natJudge(natOracle(confCap, confTimeout))
			step := func(id flow.ID, internal bool, at libvig.Time) nfkittest.Out {
				clock.Set(at)
				p := nfkittest.Packet{ID: id, Internal: internal, Frame: nfkittest.Frame(id, 4, 0)}
				o, ok := exchange(t, r, at, p)[0]
				if err := j(p, o, ok, at); err != nil {
					t.Fatalf("t=%d: %v", at, err)
				}
				return o
			}
			id := flow.ID{SrcIP: flow.MakeAddr(10, 0, 0, 1), SrcPort: 1234, DstIP: flow.MakeAddr(1, 1, 1, 1), DstPort: 80, Proto: flow.UDP}
			ext, err := tuple(step(id, true, 1000))
			if err != nil {
				t.Fatal(err)
			}
			texp := confTimeout.Nanoseconds()
			step(ext.Reverse(), false, 1000+texp-1)   // just below Texp: passes, rejuvenates
			step(ext.Reverse(), false, 1000+2*texp-1) // exactly Texp since: dropped
		})
	}
}

// TestTransportSpecConformance runs the trace with the engine's packet
// I/O carried by each transport — in-memory rings, UDP datagrams, unix
// SOCK_SEQPACKET — with the flow cache off and on: 12 flows against 8
// sessions and a clock that jumps past the timeout one step in ten.
// The NF, the engine and the oracle are identical; only the Transport
// under the ports changes, which is what makes "-transport udp" on the
// daemon a claim rather than a hope.
func TestTransportSpecConformance(t *testing.T) {
	for _, kind := range []string{"mem", "udp", "unix"} {
		t.Run(kind, func(t *testing.T) {
			t.Parallel()
			cacheLegs(t, func(t *testing.T, fastPath int) {
				t.Parallel()
				clock := libvig.NewVirtualClock(0)
				n, err := nat.NewSharded(natConfig(8, confTimeout), clock, 1)
				if err != nil {
					t.Fatal(err)
				}
				tr := natTrace(7, 1000, clients(12, 3, 2))
				tr.Jump = 10
				play(t, clock, tr, []*nfkittest.Rig{newRig(t, n, clock, nf.Config{FastPath: fastPath}, kind)},
					natJudge(natOracle(8, confTimeout)), nil)
			})
		})
	}
}

// TestReshardConformanceUnderTraffic is the acceptance test of the live
// control plane's worker-count verb: the NAT trace through the full
// engine (multi-queue ports, RSS steering, flow cache) with two live
// worker-count changes in the middle — 2 → 4 → 3 — while the oracle,
// which has no idea a reshard happened, checks every packet. If the
// quiesce-copy-switch migration drops a session, loses a timestamp,
// breaks a translation, or mis-steers a direction, the very next packets
// of that session diverge from the spec. The capacity divides by every
// worker count on the schedule, and 24 flows against 96/4 slots a shard
// keep a shard from filling while the oracle's one table has room.
func TestReshardConformanceUnderTraffic(t *testing.T) {
	const capacity = 96
	clock := libvig.NewVirtualClock(0)
	n, err := nat.NewSharded(natConfig(capacity, confTimeout), clock, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Four queue pairs, the most workers on the schedule; migration must
	// also survive the flow cache's reseed.
	r, err := nfkittest.NewRig(n, "mem", 4, nf.Config{Workers: 2, Clock: clock, FastPath: 1024})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = r.Close() })
	// reshardTo changes the worker count and asserts the move was
	// hitless: every live session arrived, with records actually carried.
	reshardTo := func(workers int) {
		liveBefore, migratedBefore := n.Flows(), n.Migrated()
		if err := r.Engine.SetWorkers(workers); err != nil {
			t.Fatalf("SetWorkers(%d): %v", workers, err)
		}
		if r.Engine.Workers() != workers || n.Shards() != workers {
			t.Fatalf("after SetWorkers(%d): %d workers, %d shards", workers, r.Engine.Workers(), n.Shards())
		}
		if dropped := n.MigrationDropped(); dropped != 0 {
			t.Fatalf("reshard to %d dropped %d state records", workers, dropped)
		}
		if live := n.Flows(); live != liveBefore {
			t.Fatalf("reshard to %d: %d live sessions before, %d after", workers, liveBefore, live)
		}
		if liveBefore > 0 && n.Migrated() == migratedBefore {
			t.Fatalf("reshard to %d with %d live sessions migrated no records", workers, liveBefore)
		}
	}
	o := natOracle(capacity, confTimeout)
	play(t, clock, natTrace(43, 15000, clients(24, 5, 3)), []*nfkittest.Rig{r}, natJudge(o), func(step int) {
		switch step {
		case 5000:
			reshardTo(4)
		case 10000:
			reshardTo(3)
		}
	})
	// The final composition still satisfies the NAT's own conservation
	// law, and agrees with the oracle on the live population.
	if st := n.Stats(); int(st.FlowsCreated-st.FlowsExpired) != n.Flows() {
		t.Fatalf("flow accounting broken across reshards: created %d − expired %d ≠ live %d",
			st.FlowsCreated, st.FlowsExpired, n.Flows())
	}
	if n.Flows() != o.Size() {
		t.Fatalf("NAT holds %d sessions, oracle %d", n.Flows(), o.Size())
	}
}
