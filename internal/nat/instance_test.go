package nat

import (
	"testing"
	"time"

	"vignat/internal/flow"
	"vignat/internal/libvig"
	"vignat/internal/nat/stateless"
	"vignat/internal/nf"
	"vignat/internal/nf/nfkit/nfkittest"
)

// TestInstanceMatchesInterface: prodProcessPacket, the generated
// instance every production path runs, and stateless.ProcessPacket, the
// function the proof covers, agree packet for packet over one
// randomized trace — verdicts, rewritten frames, counters and state.
// The table holds 16 flows, so the trace fills it.
func TestInstanceMatchesInterface(t *testing.T) {
	cfg := Config{Capacity: 16, Timeout: time.Second, ExternalIP: tExtIP, PortBase: 1000, ExternalPort: 1}
	var clients []flow.ID
	for i := 0; i < 24; i++ {
		clients = append(clients, intKey(8*i))
	}
	nfkittest.Differential(t, Kit(cfg, libvig.NewVirtualClock(0)), nil,
		func(n *NAT, pkt *nf.Pkt, now libvig.Time) nf.Verdict {
			e := &n.env
			e.reset(pkt, now)
			stateless.ProcessPacket(e)
			return verdictOf(e.done())
		},
		nfkittest.Trace{Clients: clients, ClientsInternal: true, Texp: cfg.Timeout, Steps: 4000, Jump: 300, Vary: 8, Payload: 1400})
}
