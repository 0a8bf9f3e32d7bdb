// Differential policer spec conformance: the sharded per-subscriber
// token-bucket policer is driven on the engine — multi-queue RSS ports,
// one worker per shard, burst processing — with long randomized traces
// (steady subscribers, trains past the budget, egress passthrough,
// runts, and expiry churn) while the executable policer oracle checks
// every observable action. The oracle's refill law is exact integer
// arithmetic, so verdict agreement is demanded bit-for-bit with no
// tolerance window. This is the implementation-facing complement of the
// NAT's RFC 3022 conformance, for the repository's fourth stateful NF.
package spec_test

import (
	"testing"
	"time"

	"vignat/internal/flow"
	"vignat/internal/libvig"
	"vignat/internal/nf"
	"vignat/internal/nf/nfkit/nfkittest"
	"vignat/internal/policer"
	"vignat/internal/vigor/spec"
)

const (
	polRate  = int64(50_000) // bytes/second per subscriber
	polBurst = int64(2_000)  // bytes of depth
	polTexp  = 500 * time.Millisecond
)

// TestPolicerConformanceOnPipeline is the acceptance-criterion test:
// over 10k packets through the sharded policer on four workers, 48
// subscribers over UDP, TCP and ICMP, with trains past the budget and
// quiet spells past the timeout, and zero oracle divergences — plus the
// long-run budget law over the whole trace. The policer's capacity is
// far above the subscriber universe, so the oracle runs unbounded: a
// shard filling would be a divergence by construction (checked at the
// end).
func TestPolicerConformanceOnPipeline(t *testing.T) {
	cacheLegs(t, func(t *testing.T, fastPath int) {
		const shards = 4
		clock := libvig.NewVirtualClock(0)
		pol, err := policer.NewSharded(policer.Config{Rate: polRate, Burst: polBurst, Capacity: 4096, Timeout: polTexp}, clock, shards)
		if err != nil {
			t.Fatal(err)
		}
		o := spec.NewPolicerOracle(polRate, polBurst, 0, polTexp.Nanoseconds())
		var conformed int64
		tr := nfkittest.Trace{
			Seed: 31, Steps: 1800, Burst: 12, Clients: subscribers(48, 3), Texp: polTexp, Tick: 8, Jump: 29, Payload: 1200,
			Mix: nfkittest.Mix{Client: 5, Train: 2, Reply: 1, Runt: 2},
		}
		play(t, clock, tr, []*nfkittest.Rig{newRig(t, pol, clock, nf.Config{Workers: shards, FastPath: fastPath})},
			policerJudge(o, &conformed), nil)
		if impl, specN := pol.Subscribers(), o.Size(); impl != specN {
			t.Fatalf("policer tracks %d subscribers, oracle %d", impl, specN)
		}
		for s := range shards {
			if p := pol.ShardPolicer(s); p.Subscribers() >= p.Config().Capacity {
				t.Fatalf("shard %d filled (%d subscribers); capacity pressure invalidates the unbounded oracle", s, p.Subscribers())
			}
		}
		// The long-run budget law: every conformed byte was paid from a
		// bucket filled at admission (Burst each) or refilled (at most
		// rate·elapsed per tracked subscriber).
		st := pol.Stats()
		if budget := int64(st.BucketsCreated)*polBurst + (int64(clock.Now())/1e9+1)*polRate*48; conformed > budget {
			t.Fatalf("long-run rate violated: %d conformed bytes > budget %d", conformed, budget)
		}
		if st.Processed < 10000 || st.Conformed == 0 || st.DroppedOverRate == 0 || st.DroppedMalformed == 0 ||
			st.Passthrough == 0 || st.BucketsExpired == 0 {
			t.Fatalf("churn too weak to mean anything: %+v", st)
		}
		if int(st.BucketsCreated-st.BucketsExpired) != pol.Subscribers() {
			t.Fatalf("subscriber accounting mismatch: created %d − expired %d ≠ tracked %d",
				st.BucketsCreated, st.BucketsExpired, pol.Subscribers())
		}
		t.Logf("conformance: %d conformed bytes, %+v", conformed, st)
	})
}

// TestPolicerOracleClockRegression drives implementation and oracle in
// lockstep through a non-monotonic timestamp sequence: a regression
// must mint tokens on neither side, and — the divergence this pins —
// the oracle's refill clock must hold its high-water mark exactly like
// TokenBucket's, so the regressed interval is never paid out twice
// when time recovers.
func TestPolicerOracleClockRegression(t *testing.T) {
	id := subscribers(1, 1)[0]
	frame := nfkittest.Frame(id, 40, 0)
	L := int64(len(frame))
	p, err := policer.New(policer.Config{Rate: 1000, Burst: 2 * L, Capacity: 4, Timeout: time.Hour}, libvig.NewVirtualClock(0))
	if err != nil {
		t.Fatal(err)
	}
	oracle := spec.NewPolicerOracle(1000, 2*L, 4, time.Hour.Nanoseconds())
	a := policer.AsNF(p).(nf.FastPather)
	pkts, verdicts := []nf.Pkt{{Frame: frame}}, make([]nf.Verdict, 1)
	step := func(now libvig.Time) {
		t.Helper()
		a.ProcessBatchAt(pkts, verdicts, now)
		got := policer.VerdictDrop
		if verdicts[0] == nf.Forward {
			got = policer.VerdictConform
		}
		if err := oracle.Step(id.DstIP, int(L), true, true, now, got); err != nil {
			t.Fatalf("t=%d: %v", now, err)
		}
	}
	step(1_000_000_000) // admit: full burst 2L, charge → L left
	step(1_000_000_000) // drain to zero
	step(500_000_000)   // regression: no refill, must drop on both sides
	step(1_000_000_000) // back at the mark: still no elapsed time, must drop
	// 1 ms past the mark at 1000 B/s refills exactly 1 byte — nowhere
	// near a frame; a double-paid regression interval would conform.
	step(1_001_000_000)
	if st := p.Stats(); st.Conformed != 2 || st.DroppedOverRate != 3 {
		t.Fatalf("stats %+v, want 2 conformed / 3 over-rate", st)
	}
}

// TestPolicerConformanceCapacityStrict drives a one-shard policer with
// an exactly-sized oracle (cap enforced), pinning the
// table-full-drops-fresh-subscribers clause the pipeline test's
// unbounded oracle cannot see: twice the capacity's worth of
// subscribers keep the table under constant pressure, with expiry
// freeing room.
func TestPolicerConformanceCapacityStrict(t *testing.T) {
	const capacity = 8
	clock := libvig.NewVirtualClock(0)
	pol, err := policer.NewSharded(policer.Config{Rate: polRate, Burst: polBurst, Capacity: capacity, Timeout: polTexp}, clock, 1)
	if err != nil {
		t.Fatal(err)
	}
	o := spec.NewPolicerOracle(polRate, polBurst, capacity, polTexp.Nanoseconds())
	pool := subscribers(2*capacity, 1)
	for i := range pool {
		pool[i].DstIP, pool[i].DstPort = flow.MakeAddr(10, 9, 0, byte(i)), 8080
	}
	sawFull := false
	tr := nfkittest.Trace{Seed: 5, Steps: 4000, Clients: pool, Texp: polTexp, Tick: 6, Payload: 400, Mix: nfkittest.Mix{Client: 1}}
	play(t, clock, tr, []*nfkittest.Rig{newRig(t, pol, clock, nf.Config{})}, policerJudge(o, nil), func(int) {
		sawFull = sawFull || pol.Subscribers() == capacity
	})
	if impl, specN := pol.Subscribers(), o.Size(); impl != specN {
		t.Fatalf("policer tracks %d subscribers, oracle %d", impl, specN)
	}
	if !sawFull || pol.Stats().DroppedTableFull == 0 {
		t.Fatalf("no sustained capacity pressure (full=%v, stats %+v)", sawFull, pol.Stats())
	}
}
