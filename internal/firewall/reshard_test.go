package firewall

import (
	"testing"
	"time"

	"vignat/internal/flow"
	"vignat/internal/libvig"
	"vignat/internal/netstack"
	"vignat/internal/nf"
	"vignat/internal/nf/nfkit/nfkittest"
)

// TestReshardPreservesSessions pins the firewall codec: sessions
// survive a 2 → 3 reshard with their hole-punch semantics intact —
// replies of migrated sessions pass, unsolicited traffic still drops.
func TestReshardPreservesSessions(t *testing.T) {
	const nSessions = 24
	clock := libvig.NewVirtualClock(0)
	s, err := NewSharded(256, time.Minute, clock, 2)
	if err != nil {
		t.Fatal(err)
	}

	mkFrame := func(id flow.ID) []byte {
		fs := &netstack.FrameSpec{ID: id, PayloadLen: 4}
		return netstack.Craft(make([]byte, netstack.FrameLen(fs)), fs)
	}
	ids := make([]flow.ID, nSessions)
	for i := range ids {
		ids[i] = flow.ID{
			SrcIP: flow.MakeAddr(10, 0, 0, byte(1+i)), SrcPort: uint16(20000 + i),
			DstIP: flow.MakeAddr(93, 184, 216, byte(1+i%5)), DstPort: 443, Proto: flow.TCP,
		}
		clock.Advance(1_000_000)
		if v := nfkittest.Send(s, mkFrame(ids[i]), true); v != nf.Forward {
			t.Fatalf("session %d: outbound verdict %v", i, v)
		}
	}

	if err := s.Reshard(3); err != nil {
		t.Fatalf("reshard to 3: %v", err)
	}
	if s.Migrated() == 0 {
		t.Fatal("reshard migrated nothing")
	}
	if dropped := s.MigrationDropped(); dropped != 0 {
		t.Fatalf("%d records dropped", dropped)
	}
	if got, _ := s.Occupancy("sessions"); got != nSessions {
		t.Fatalf("%d sessions after reshard, want %d", got, nSessions)
	}
	for i, id := range ids {
		if v := nfkittest.Send(s, mkFrame(id.Reverse()), false); v != nf.Forward {
			t.Fatalf("session %d: reply dropped after reshard (verdict %v)", i, v)
		}
	}
	if got, _ := s.Occupancy("sessions"); got != nSessions {
		t.Fatalf("replies changed the session count: %d", got)
	}
	// The punch-through stays a punch-through, not a pass-all.
	junk := flow.ID{
		SrcIP: flow.MakeAddr(203, 0, 113, 9), SrcPort: 4444,
		DstIP: flow.MakeAddr(10, 0, 0, 1), DstPort: 5555, Proto: flow.TCP,
	}
	if v := nfkittest.Send(s, mkFrame(junk), false); v != nf.Drop {
		t.Fatalf("unsolicited external verdict %v, want Drop", v)
	}
}
