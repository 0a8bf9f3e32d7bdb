package nat

import (
	"testing"
	"time"

	"vignat/internal/flow"
	"vignat/internal/libvig"
	"vignat/internal/netstack"
	"vignat/internal/nf"
	"vignat/internal/nf/nfkit/nfkittest"
)

// TestReshardPreservesTranslations pins the NAT codec end to end: a
// 2 → 4 → 3 reshard carries every flow to its port-range home with
// its translation, its steering, and its liveness stamp intact, and
// the counters stay continuous (restore never re-creates).
func TestReshardPreservesTranslations(t *testing.T) {
	const (
		capacity = 96
		nFlows   = 24
		timeout  = time.Minute
	)
	clock := libvig.NewVirtualClock(0)
	extIP := flow.MakeAddr(198, 18, 1, 1)
	s, err := NewSharded(Config{
		Capacity: capacity, Timeout: timeout, ExternalIP: extIP,
		PortBase: 1000, InternalPort: 0, ExternalPort: 1,
	}, clock, 2)
	if err != nil {
		t.Fatal(err)
	}

	mkFrame := func(id flow.ID) []byte {
		fs := &netstack.FrameSpec{ID: id, PayloadLen: 4}
		return netstack.Craft(make([]byte, netstack.FrameLen(fs)), fs)
	}
	parse := func(frame []byte) flow.ID {
		var p netstack.Packet
		if err := p.Parse(frame); err != nil {
			t.Fatal(err)
		}
		return p.FlowID()
	}

	// Sessions established at distinct times — flow i at i ms — so the
	// post-reshard expiry sweep can prove the stamps moved too.
	ids := make([]flow.ID, nFlows)
	ext := make([]flow.ID, nFlows)
	for i := range ids {
		ids[i] = flow.ID{
			SrcIP: flow.MakeAddr(10, 0, 0, byte(1+i)), SrcPort: uint16(20000 + i),
			DstIP: flow.MakeAddr(93, 184, 216, 34), DstPort: 80, Proto: flow.UDP,
		}
		clock.Set(libvig.Time(i) * 1_000_000)
		f := mkFrame(ids[i])
		if v := nfkittest.Send(s, f, true); v != nf.Forward {
			t.Fatalf("flow %d: outbound verdict %v", i, v)
		}
		ext[i] = parse(f)
	}

	checkAll := func(when string) {
		if got := s.Flows(); got != nFlows {
			t.Fatalf("%s: %d live flows, want %d", when, got, nFlows)
		}
		if st := s.Stats(); st.FlowsCreated != nFlows || st.FlowsExpired != 0 {
			t.Fatalf("%s: created %d expired %d; restore must not re-create", when, st.FlowsCreated, st.FlowsExpired)
		}
		if dropped := s.MigrationDropped(); dropped != 0 {
			t.Fatalf("%s: %d records dropped", when, dropped)
		}
		per := capacity / s.Shards()
		for i, id := range ids {
			// The flow kept its external port, so it lives on the shard
			// whose range holds that port, at the index the port names.
			off := int(ext[i].SrcPort) - 1000
			tbl := s.ShardNAT(off / per).Table()
			idx, ok := tbl.LookupSnd(ext[i].Reverse(), 0)
			if !ok || idx != off%per {
				t.Fatalf("%s: flow %d: LookupExt on shard %d: (%d, %v), port names index %d", when, i, off/per, idx, ok, off%per)
			}
			if f, _ := tbl.Flow(idx); f.IntKey != id || f.ExtPort() != ext[i].SrcPort {
				t.Fatalf("%s: flow %d: shard %d index %d holds %v", when, i, off/per, idx, &f)
			}
			// Outbound still translates to the same external tuple, via
			// the steering override if the flow's hash no longer matches
			// its port-range home.
			f := mkFrame(id)
			if v := nfkittest.Send(s, f, true); v != nf.Forward {
				t.Fatalf("%s: flow %d outbound verdict %v", when, i, v)
			}
			if got := parse(f); got != ext[i] {
				t.Fatalf("%s: flow %d translation moved: %v → %v", when, i, ext[i], got)
			}
			// The reply direction still finds the session.
			r := mkFrame(ext[i].Reverse())
			if v := nfkittest.Send(s, r, false); v != nf.Forward {
				t.Fatalf("%s: flow %d reply verdict %v", when, i, v)
			}
			if got := parse(r); got != id.Reverse() {
				t.Fatalf("%s: flow %d reply rewrite: %v, want %v", when, i, got, id.Reverse())
			}
		}
	}

	if err := s.Reshard(4); err != nil {
		t.Fatalf("reshard to 4: %v", err)
	}
	if s.Migrated() == 0 {
		t.Fatal("reshard to 4 migrated nothing")
	}
	checkAll("after 2→4")
	if err := s.Reshard(3); err != nil {
		t.Fatalf("reshard to 3: %v", err)
	}
	checkAll("after 4→3")

	// Stamp fidelity: the checks above rejuvenated everything at the
	// current clock, all at once. Re-stamp each flow at its own time
	// again, reshard once more, and expire at a deadline that splits
	// the population exactly in half.
	base := clock.Now()
	for i, id := range ids {
		clock.Set(base + libvig.Time(i)*1_000_000)
		f := mkFrame(id)
		if v := nfkittest.Send(s, f, true); v != nf.Forward {
			t.Fatalf("re-stamp flow %d: %v", i, v)
		}
	}
	if err := s.Reshard(2); err != nil {
		t.Fatalf("reshard to 2: %v", err)
	}
	deadline := base + libvig.Time(nFlows/2-1)*1_000_000 + libvig.Time(timeout.Nanoseconds())
	clock.Set(deadline)
	s.Expire(clock.Now())
	if got := s.Flows(); got != nFlows/2 {
		t.Fatalf("stamps drifted across reshard: %d flows survive the split deadline, want %d", got, nFlows/2)
	}
	if st := s.Stats(); st.FlowsExpired != nFlows/2 {
		t.Fatalf("expiry counter: %d, want %d", st.FlowsExpired, nFlows/2)
	}
}
