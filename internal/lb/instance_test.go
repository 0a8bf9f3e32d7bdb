package lb

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
// verdicts, rewritten frames, counters and state. Clients reach the VIP
// and miss it, backends answer and strangers do not, the 16-entry
// sticky table fills, and late in the trace the backends are removed.
func TestInstanceMatchesInterface(t *testing.T) {
	vip := flow.MakeAddr(198, 18, 10, 10)
	cfg := Config{VIP: vip, VIPPort: 443, Capacity: 16, Timeout: time.Second, MaxBackends: 4}
	var clients []flow.ID
	for i := 0; i < 24; i++ {
		dst, port := vip, uint16(443)
		if i%4 == 3 {
			dst, port = flow.MakeAddr(93, 184, 216, 34), 80
		}
		clients = append(clients, flow.ID{
			SrcIP: flow.MakeAddr(203, 0, 113, byte(1+i)), SrcPort: uint16(20000 + 8*i),
			DstIP: dst, DstPort: port, Proto: flow.UDP,
		})
	}
	nfkittest.Differential(t, Kit(cfg, libvig.NewVirtualClock(0)),
		func(b *Balancer, step int) {
			for i := 0; i < 3; i++ {
				var err error
				switch step {
				case 0:
					_, err = b.AddBackend(flow.MakeAddr(10, 1, 0, byte(10+i)), 0)
				case 3200:
					err = b.RemoveBackend(i)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
		},
		func(b *Balancer, pkt *nf.Pkt, now libvig.Time) (nf.Verdict, telemetry.ReasonID) {
			e := &b.env
			e.reset(pkt, now)
			ProcessPacket(e)
			return e.done()
		},
		nfkittest.Trace{Clients: clients, Texp: cfg.Timeout, Steps: 4000, Jump: 300, Vary: 8, Payload: 1400})
}
