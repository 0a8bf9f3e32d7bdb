package nfkit_test

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"vignat/internal/firewall"
	"vignat/internal/flow"
	"vignat/internal/lb"
	"vignat/internal/libvig"
	"vignat/internal/nat"
	"vignat/internal/netstack"
	"vignat/internal/nf"
	"vignat/internal/nf/nfkit"
	"vignat/internal/nf/nfkit/nfkittest"
	"vignat/internal/policer"
)

// fuzzSessions bounds the session universe of one fuzz run: more than
// cntCap, so tables fill and a repartition can overflow a shard.
const fuzzSessions = 24

// stateCase is one stateful declaration under FuzzStateFixpoint.
type stateCase[C any] struct {
	name string
	// family is the sharded family steering must find the records of;
	// every other declared family is replicated.
	family string
	// fromInternal is the side session frames (frame) enter on.
	fromInternal bool
	frame        func(i int) []byte
	s            *nfkit.Sharded[C]
	decl         nfkit.Decl[C]
	// reshard is the NF's own verb (the NAT's also re-pins steering).
	reshard func(n int) error
	// churn, when set, is the NF's control-plane mutation (the
	// balancer's backend add/remove).
	churn func(arg byte)
}

// FuzzStateFixpoint drives each of the four stateful declarations with a
// packet / reply / clock-advance / control-churn sequence decoded from
// the input, then demands of the declared record families that
//
//	(i) a reshard to the same count is a fixpoint: every core's dump —
//	payloads, stamps, expiry order — is what it was;
//	(ii) 2 → 4 → 3 preserves the multiset of sharded records minus
//	exactly MigrationDropped and every shard's copy of the replicated
//	ones, and every surviving record is where the declared ShardOf
//	steers its session's packets, giving them the translation they had
//	(a NAT flow its original external port);
//	(iii) the counter arrays are conserved cell by cell.
func FuzzStateFixpoint(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0, 2, 1, 1, 0, 3, 2, 9, 0, 4, 1, 2})
	f.Add(bytes.Repeat([]byte{0, 0, 0, 7, 0, 13, 3, 1, 2, 5, 0, 21, 1, 7, 3, 2}, 6))
	f.Fuzz(func(t *testing.T, data []byte) {
		clock := libvig.NewVirtualClock(0)
		ext := flow.MakeAddr(93, 184, 216, 34)
		host := func(i int) flow.Addr { return flow.MakeAddr(10, 0, 0, byte(1+i)) }

		natCfg := nat.Config{Capacity: cntCap, Timeout: confTimeout, ExternalIP: flow.MakeAddr(198, 18, 1, 1),
			PortBase: 1000, InternalPort: 0, ExternalPort: 1}
		n, err := nat.NewSharded(natCfg, clock, 2)
		if err != nil {
			t.Fatal(err)
		}
		fuzzState(t, data, clock, stateCase[*nat.NAT]{name: "vignat", family: "flows", fromInternal: true,
			s: n.Sharded, decl: nat.Kit(natCfg, clock), reshard: n.Reshard,
			frame: func(i int) []byte {
				return craft(flow.ID{SrcIP: host(i), SrcPort: uint16(20000 + i), DstIP: ext, DstPort: 80, Proto: flow.UDP})
			}})

		fw, err := firewall.NewSharded(cntCap, confTimeout, clock, 2)
		if err != nil {
			t.Fatal(err)
		}
		fuzzState(t, data, clock, stateCase[*firewall.Firewall]{name: "firewall", family: "sessions", fromInternal: true,
			s: fw.Sharded, decl: firewall.Kit(cntCap, confTimeout, clock), reshard: fw.Reshard,
			frame: func(i int) []byte {
				return craft(flow.ID{SrcIP: host(i), SrcPort: uint16(20000 + i), DstIP: ext, DstPort: 80, Proto: flow.TCP})
			}})

		lbCfg := lb.Config{VIP: confVIP, VIPPort: 443, Capacity: cntCap, Timeout: confTimeout, MaxBackends: 4}
		b, err := lb.NewSharded(lbCfg, clock, 2)
		if err != nil {
			t.Fatal(err)
		}
		backendIP := func(k byte) flow.Addr { return flow.MakeAddr(10, 1, 0, 10+k%4) }
		slots := map[flow.Addr]int{}
		churn := func(k byte) {
			ip := backendIP(k)
			if slot, live := slots[ip]; live {
				if err := b.RemoveBackend(slot); err != nil {
					t.Fatalf("viglb: drain %v: %v", ip, err)
				}
				delete(slots, ip)
			} else if slots[ip], err = b.AddBackend(ip, clock.Now()); err != nil {
				t.Fatalf("viglb: add %v: %v", ip, err)
			}
		}
		churn(0)
		churn(1)
		fuzzState(t, data, clock, stateCase[*lb.Balancer]{name: "viglb", family: "stickies", fromInternal: false,
			s: b.Sharded, decl: lb.Kit(lbCfg, clock), reshard: b.Reshard, churn: churn,
			frame: func(i int) []byte {
				return craft(flow.ID{SrcIP: flow.MakeAddr(203, 0, 113, byte(1+i)), SrcPort: uint16(20000 + i),
					DstIP: confVIP, DstPort: 443, Proto: flow.UDP})
			}})

		// A budget no run can exhaust: every hit conforms.
		polCfg := policer.Config{Rate: 1 << 30, Burst: 1 << 30, Capacity: cntCap, Timeout: confTimeout}
		pol, err := policer.NewSharded(polCfg, clock, 2)
		if err != nil {
			t.Fatal(err)
		}
		fuzzState(t, data, clock, stateCase[*policer.Policer]{name: "vigpol", family: "subscribers", fromInternal: false,
			s: pol.Sharded, decl: policer.Kit(polCfg, clock), reshard: pol.Reshard,
			frame: func(i int) []byte {
				return craft(flow.ID{SrcIP: ext, SrcPort: 443, DstIP: host(i), DstPort: 8080, Proto: flow.UDP})
			}})
	})
}

// fuzzState is FuzzStateFixpoint for one declaration.
func fuzzState[C any](t *testing.T, data []byte, clock *libvig.VirtualClock, c stateCase[C]) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("%s: %s", c.name, fmt.Sprintf(format, args...))
	}
	// lastOut[i] is session i's latest forwarded frame as it left.
	lastOut := map[int][]byte{}
	send := func(i int) (forwarded bool, out []byte) {
		out = c.frame(i)
		if nfkittest.Send(c.s, out, c.fromInternal) != nf.Forward {
			return false, nil
		}
		lastOut[i] = out
		return true, out
	}
	for ; len(data) >= 2; data = data[2:] {
		i := int(data[1]) % fuzzSessions
		switch data[0] % 4 {
		case 0:
			send(i)
		case 1: // the reply to session i's last forwarded packet
			if out, ok := lastOut[i]; ok {
				var p netstack.Packet
				if err := p.Parse(out); err != nil {
					fail("unparseable output: %v", err)
				}
				nfkittest.Send(c.s, craft(p.FlowID().Reverse()), !c.fromInternal)
			}
		case 2: // up to two timeouts, in sixteenths
			clock.Advance(int64(data[1]%32) * confTimeout.Nanoseconds() / 16)
			c.s.Expire(clock.Now())
		case 3:
			if c.churn != nil {
				c.churn(data[1])
			} else {
				nfkittest.Send(c.s, []byte{0xde, 0xad}, data[1]%2 == 0)
			}
		}
	}

	isSharded := func(rec string) bool { return strings.HasPrefix(rec, c.family+" ") }
	dumps := func() (perCore [][]string, sharded []string, counters []uint64) {
		for _, core := range c.s.Cores() {
			recs := c.decl.Snapshot(core)
			perCore = append(perCore, recs)
			for _, r := range recs {
				if isSharded(r) {
					sharded = append(sharded, r)
				}
			}
			vec := c.decl.Counters(core)
			if counters == nil {
				counters = make([]uint64, len(vec))
			}
			for j, v := range vec {
				counters[j] += v
			}
		}
		sort.Strings(sharded)
		return perCore, sharded, counters
	}
	replicated := func(recs []string) (out []string) {
		for _, r := range recs {
			if !isSharded(r) {
				out = append(out, r)
			}
		}
		return out
	}

	// (i) The same count: a fixpoint, core by core.
	before, _, countersBefore := dumps()
	droppedBefore := c.s.MigrationDropped()
	if err := c.reshard(c.s.Shards()); err != nil {
		fail("reshard to the same count: %v", err)
	}
	after, _, countersAfter := dumps()
	if !reflect.DeepEqual(before, after) {
		fail("snapshot → restore → snapshot is no fixpoint:\n%+v\n%+v", before, after)
	}
	if c.s.MigrationDropped() != droppedBefore || !reflect.DeepEqual(countersBefore, countersAfter) {
		fail("a same-count reshard dropped records or moved counters: %v → %v", countersBefore, countersAfter)
	}

	// (ii), (iii) 2 → 4 → 3.
	for _, shards := range []int{4, 3} {
		perCore, sharded, counters := dumps()
		dropped := c.s.MigrationDropped()
		if err := c.reshard(shards); err != nil {
			fail("reshard to %d: %v", shards, err)
		}
		perCoreAfter, shardedAfter, countersAfter := dumps()
		if !reflect.DeepEqual(counters, countersAfter) {
			fail("reshard to %d moved counters: %v → %v", shards, counters, countersAfter)
		}
		lost := int(c.s.MigrationDropped() - dropped)
		if len(shardedAfter) != len(sharded)-lost {
			fail("reshard to %d: %d records before, %d after, %d counted dropped", shards, len(sharded), len(shardedAfter), lost)
		}
		for _, r := range shardedAfter { // survivors ⊆ before, as multisets
			at := sort.SearchStrings(sharded, r)
			if at == len(sharded) || sharded[at] != r {
				fail("reshard to %d invented or altered record %s", shards, r)
			}
			sharded = append(sharded[:at], sharded[at+1:]...)
		}
		for i, recs := range perCoreAfter {
			if want, got := replicated(perCore[0]), replicated(recs); !reflect.DeepEqual(want, got) {
				fail("reshard to %d: shard %d's replicated state %+v, want %+v", shards, i, got, want)
			}
		}

		// Every surviving record is found by its session's packets: a
		// session either hits (forwarded, nothing created, the same
		// bytes out as before the move) or has no record anywhere.
		live, _ := c.s.Occupancy(c.family)
		hits := 0
		for i := 0; i < fuzzSessions; i++ {
			was, had := lastOut[i]
			had = had && was != nil
			was = append([]byte(nil), was...)
			liveBefore, _ := c.s.Occupancy(c.family)
			forwarded, out := send(i)
			if liveNow, _ := c.s.Occupancy(c.family); !forwarded || liveNow != liveBefore {
				continue
			}
			hits++
			if !had || !bytes.Equal(was, out) {
				fail("after reshard to %d session %d leaves as % x, left as % x before", shards, i, out, was)
			}
		}
		if hits != live {
			fail("after reshard to %d steering finds %d of %d live records", shards, hits, live)
		}
	}
}
