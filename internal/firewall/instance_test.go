package firewall

import (
	"testing"
	"time"

	"vignat/internal/flow"
	"vignat/internal/libvig"
	"vignat/internal/nf"
	"vignat/internal/nf/nfkit/nfkittest"
)

// TestInstanceMatchesInterface: prodProcessPacket, the generated
// instance every production path runs, and ProcessPacket, the function
// the proof covers, agree packet for packet over one randomized trace —
// verdicts, frames, counters and state. The table holds 16 sessions, so
// the trace fills it.
func TestInstanceMatchesInterface(t *testing.T) {
	var clients []flow.ID
	for i := 0; i < 24; i++ {
		clients = append(clients, outKey(8*i))
	}
	nfkittest.Differential(t, Kit(16, time.Second, libvig.NewVirtualClock(0)), nil,
		func(fw *Firewall, pkt *nf.Pkt, now libvig.Time) nf.Verdict {
			e := &fw.env
			e.reset(pkt, now)
			ProcessPacket(e)
			if e.done() == VerdictDrop {
				return nf.Drop
			}
			return nf.Forward
		},
		nfkittest.Trace{Clients: clients, ClientsInternal: true, Texp: time.Second, Steps: 4000, Jump: 300, Vary: 8, Payload: 1400})
}
