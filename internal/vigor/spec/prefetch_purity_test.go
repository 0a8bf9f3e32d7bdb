// Prefetch purity on the sharded NAT: the burst-wide prefetch stage is
// reads and scratch only, so the NAT as declared and with the hook
// stripped from its Decl must give bit-identical outputs, final table
// contents, counters and reason counts, and both must satisfy the RFC
// 3022 oracle.
package spec_test

import (
	"testing"
	"time"

	"vignat/internal/libvig"
	"vignat/internal/nat"
	"vignat/internal/nf"
	"vignat/internal/nf/nfkit"
	"vignat/internal/nf/nfkit/nfkittest"
)

// TestPrefetchObservationallyPureNAT runs the two on two shards, in
// bursts of up to 24 packets so that each shard's run has packets to
// prefetch for, with the clock jumping past the timeout one burst in
// 31.
func TestPrefetchObservationallyPureNAT(t *testing.T) {
	const capacity, texp = 64, 300 * time.Millisecond
	cacheLegs(t, func(t *testing.T, fastPath int) {
		clock := libvig.NewVirtualClock(0)
		decls := [2]nfkit.Decl[*nat.NAT]{nat.Kit(natConfig(capacity, texp), clock), nat.Kit(natConfig(capacity, texp), clock)}
		if decls[0].Prefetch == nil {
			t.Fatal("the NAT declares no Prefetch hook")
		}
		decls[1].Prefetch = nil
		var nats [2]*nfkit.Sharded[*nat.NAT]
		rigs := make([]*nfkittest.Rig, 2)
		for i, d := range decls {
			var err error
			if nats[i], err = nfkit.NewSharded(d, 2); err != nil {
				t.Fatal(err)
			}
			rigs[i] = newRig(t, nats[i], clock, nf.Config{Workers: 2, FastPath: fastPath})
		}
		tr := natTrace(97, 1500, clients(32, 5, 3))
		tr.Burst, tr.Texp, tr.Tick, tr.Jump, tr.Mix.Client = 24, texp, 6, 31, 4
		play(t, clock, tr, rigs, natJudge(natOracle(capacity, texp)), nil)
		var created, expired uint64
		for shard, core := range nats[0].Cores() {
			sameFinalState(t, "prefetch vs none", decls[0], core, nats[1].Core(shard))
			created, expired = created+core.Stats().FlowsCreated, expired+core.Stats().FlowsExpired
		}
		if created == 0 || expired == 0 {
			t.Fatalf("churn too weak to mean anything: %d flows created, %d expired", created, expired)
		}
	})
}
