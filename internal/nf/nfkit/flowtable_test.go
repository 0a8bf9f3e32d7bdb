package nfkit_test

import (
	"testing"

	"vignat/internal/fastpath"
	"vignat/internal/firewall"
	"vignat/internal/flow"
	"vignat/internal/lb"
	"vignat/internal/libvig"
	"vignat/internal/nat"
	"vignat/internal/nf"
	"vignat/internal/nf/nfkit"
)

const deathCap = 8

// deathKey is session i's client-side tuple: to the VIP for the
// balancer, to anywhere for the other two.
func deathKey(i int, vip bool) fastpath.Key {
	id := flow.ID{
		SrcIP: flow.MakeAddr(10, 0, 0, byte(1+i)), SrcPort: uint16(20000 + i),
		DstIP: flow.MakeAddr(93, 184, 216, 34), DstPort: 80, Proto: flow.UDP,
	}
	if vip {
		id.DstIP, id.DstPort = confVIP, 443
	}
	return fastpath.Key{ID: id, FromInternal: true}
}

// TestFlowTableEveryDeathKillsGuards: whichever way a record dies —
// expiry, Remove, the balancer's backend drain — the guard a flow cache
// was issued for it is dead afterwards and the survivors' guards are
// not, a refused Add's rollback revives nothing, and map and chain
// agree on what is live throughout. One table under three NFs: it fails
// for all of them if the one erasure path loses its Bump.
func TestFlowTableEveryDeathKillsGuards(t *testing.T) {
	clock := libvig.NewVirtualClock(0)
	n, err := nat.New(nat.Config{Capacity: deathCap, Timeout: confTimeout,
		ExternalIP: flow.MakeAddr(198, 18, 1, 1), PortBase: 1000, InternalPort: 0, ExternalPort: 1}, clock)
	if err != nil {
		t.Fatal(err)
	}
	everyDeath(t, "vignat", clock, n.Table().FlowTable, false, nat.AsNF(n), nil)

	fw, err := firewall.New(deathCap, confTimeout, clock)
	if err != nil {
		t.Fatal(err)
	}
	everyDeath(t, "firewall", clock, fw.Table(), false, firewall.AsNF(fw), nil)

	b, err := lb.New(lb.Config{VIP: confVIP, VIPPort: 443, Capacity: deathCap, Timeout: confTimeout,
		MaxBackends: 2, ClientsInternal: true}, clock)
	if err != nil {
		t.Fatal(err)
	}
	// One backend, so draining it is the death of every sticky.
	backend, err := b.AddBackend(flow.MakeAddr(10, 1, 0, 10), clock.Now())
	if err != nil {
		t.Fatal(err)
	}
	everyDeath(t, "viglb", clock, b.Table(), true, lb.AsNF(b), func() {
		if err := b.RemoveBackend(backend); err != nil {
			t.Fatal(err)
		}
	})
}

// everyDeath runs the legs of TestFlowTableEveryDeathKillsGuards on one
// NF's table. drain, when set, is the NF's own bulk erasure, expected
// to kill every live record.
func everyDeath[V any](t *testing.T, name string, clock *libvig.VirtualClock, tbl *nfkit.FlowTable[V], vip bool, f nf.NF, drain func()) {
	t.Helper()
	// admit opens sessions [from, to) a millisecond apart and returns the
	// guard the flow cache would be issued for each.
	admit := func(from, to int) map[int]fastpath.Guard {
		guards := map[int]fastpath.Guard{}
		for i := from; i < to; i++ {
			clock.Advance(1_000_000)
			if v := f.Process(craft(deathKey(i, vip).ID), true); v != nf.Forward {
				t.Fatalf("%s: session %d not admitted: %v", name, i, v)
			}
			_, g, ok := tbl.Offer(deathKey(i, vip))
			if !ok {
				t.Fatalf("%s: session %d admitted but not offered", name, i)
			}
			guards[i] = g
		}
		return guards
	}
	// check demands that exactly the sessions in dead have died: their
	// guards are dead and their keys gone, everyone else's are not, and
	// the table's structures agree.
	check := func(leg string, guards map[int]fastpath.Guard, dead func(i int) bool) {
		t.Helper()
		live := 0
		for i, g := range guards {
			_, _, found := tbl.Offer(deathKey(i, vip))
			if g.Live() == dead(i) || found == dead(i) {
				t.Fatalf("%s after %s: session %d (dead=%v): guard live=%v, still offered=%v", name, leg, i, dead(i), g.Live(), found)
			}
			if !dead(i) {
				live++
			}
		}
		if tbl.Size() != live {
			t.Fatalf("%s after %s: table holds %d records, %d sessions are live", name, leg, tbl.Size(), live)
		}
		if err := tbl.CheckInvariant(); err != nil {
			t.Fatalf("%s after %s: %v", name, leg, err)
		}
	}

	// Expiry takes the oldest half.
	guards := admit(0, 4)
	f.Expire(clock.Now() + confTimeout.Nanoseconds() - 2_000_000 + 1)
	check("expiry", guards, func(i int) bool { return i < 2 })

	// Remove takes one of the rest.
	idx, _ := tbl.LookupFst(deathKey(2, vip).ID, deathKey(2, vip).ID.Hash())
	if err := tbl.Remove(idx); err != nil {
		t.Fatalf("%s: remove: %v", name, err)
	}
	check("Remove", guards, func(i int) bool { return i < 3 })

	// A refused Add rolls its index back: the index it took and returned
	// was a dead session's, and nothing of that session comes back.
	survivor := *tbl.Value(firstIndex(tbl))
	if _, ok := tbl.Add(survivor, deathKey(3, vip).ID.Hash(), clock.Now()); ok {
		t.Fatalf("%s: a record under a key already present was added", name)
	}
	check("a refused Add", guards, func(i int) bool { return i < 3 })

	if drain != nil {
		for i, g := range admit(4, 7) {
			guards[i] = g
		}
		drain()
		check("the drain", guards, func(int) bool { return true })
	}
}

// firstIndex is the index of the table's oldest record.
func firstIndex[V any](tbl *nfkit.FlowTable[V]) (idx int) {
	tbl.ForEach(func(i int, _ *V, _ libvig.Time) bool { idx = i; return false })
	return idx
}
