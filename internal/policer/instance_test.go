package policer

import (
	"testing"
	"time"

	"vignat/internal/flow"
	"vignat/internal/libvig"
	"vignat/internal/nf"
	"vignat/internal/nf/nfkit/nfkittest"
	"vignat/internal/nf/telemetry"
)

// TestInstanceMatchesInterface: prodProcessPacket, the generated
// instance every production path runs, and ProcessPacket, the function
// the proof covers, agree packet for packet over one randomized trace —
// verdicts, frames, counters and state. A refill of about one frame
// between a subscriber's packets and a 16-subscriber table make the
// trace clip and fill.
func TestInstanceMatchesInterface(t *testing.T) {
	cfg := Config{Rate: 300, Burst: 3000, Capacity: 16, Timeout: time.Second}
	var clients []flow.ID
	for i := 0; i < 24; i++ {
		clients = append(clients, subscriberID(i))
	}
	nfkittest.Differential(t, Kit(cfg, libvig.NewVirtualClock(0)), nil,
		func(p *Policer, pkt *nf.Pkt, now libvig.Time) (nf.Verdict, telemetry.ReasonID) {
			e := &p.env
			e.reset(pkt, now)
			ProcessPacket(e)
			return e.done()
		},
		nfkittest.Trace{Clients: clients, Texp: cfg.Timeout, Steps: 4000, Jump: 300, Vary: 8, Payload: 1400})
}
