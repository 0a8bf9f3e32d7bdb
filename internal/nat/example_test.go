package nat_test

import (
	"fmt"
	"log"

	"vignat/internal/flow"
	"vignat/internal/libvig"
	"vignat/internal/nat"
	"vignat/internal/netstack"
	"vignat/internal/nf"
	"vignat/internal/nf/nfkit"
)

// Build a verified NAT, push a session through it both ways, inspect
// the rewrites, and prove the NAT you just ran — the five-minute tour
// of the API.
func Example() {
	// 1. Configure: external IP, table capacity (CAP), expiry (Texp).
	cfg := nat.Config{ExternalIP: flow.MakeAddr(203, 0, 113, 1), ExternalPort: 1}
	if err := cfg.Validate(); err != nil { // CAP and Texp take their defaults
		log.Fatal(err)
	}
	clock := libvig.NewVirtualClock(0)
	n, err := nat.New(cfg, clock)
	if err != nil {
		log.Fatal(err)
	}

	// 2. An internal host opens a connection to a web server.
	session := flow.ID{
		SrcIP:   flow.MakeAddr(10, 0, 0, 42),
		SrcPort: 51234,
		DstIP:   flow.MakeAddr(93, 184, 216, 34),
		DstPort: 80,
		Proto:   flow.TCP,
	}
	spec := &netstack.FrameSpec{ID: session, PayloadLen: 12}
	frame := netstack.Craft(make([]byte, netstack.FrameLen(spec)), spec)
	fmt.Println("outbound before NAT:", tuple(frame))

	// 3. The NAT runs behind its adapter, the nf.NF the engine drives:
	// hand it a burst (here of one packet) and it rewrites in place and
	// tells you what it did. Forward means out the other interface.
	a := nat.AsNF(n)
	pkts := []nf.Pkt{{Frame: frame, FromInternal: true /* from internal interface */}}
	verdicts := make([]nf.Verdict, len(pkts))
	a.ProcessBatch(pkts, verdicts)
	fmt.Println("verdict:", verdicts[0])
	fmt.Println("outbound after NAT: ", tuple(frame))

	// 4. The server replies to the translated endpoint...
	reply := netstack.Craft(make([]byte, 2048), &netstack.FrameSpec{
		ID: tuple(frame).Reverse(), PayloadLen: 20,
	})
	fmt.Println("reply before NAT:   ", tuple(reply))

	// 5. ...and the NAT forwards it back to the internal host.
	pkts[0] = nf.Pkt{Frame: reply, FromInternal: false /* from external interface */}
	a.ProcessBatch(pkts, verdicts)
	fmt.Println("verdict:", verdicts[0])
	fmt.Println("reply after NAT:    ", tuple(reply))

	// 6. State is visible for inspection.
	fmt.Printf("live flows: %d (capacity %d)\n", n.Table().Size(), cfg.Capacity)

	// 7. And the NAT you just ran is the NAT that gets verified: its
	// declaration for this configuration carries the proof.
	report, err := nfkit.VerifySym(*nat.Kit(cfg, clock).Sym, nfkit.ModelExact, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(report.Summary())
	// Output:
	// outbound before NAT: tcp 10.0.0.42:51234>93.184.216.34:80
	// verdict: forward
	// outbound after NAT:  tcp 203.0.113.1:1>93.184.216.34:80
	// reply before NAT:    tcp 93.184.216.34:80>203.0.113.1:1
	// verdict: forward
	// reply after NAT:     tcp 93.184.216.34:80>10.0.0.42:51234
	// live flows: 1 (capacity 65535)
	// PROOF COMPLETE (vignat, exact model): 11 paths, 109 tasks; P1: 0, P2: 0, P4: 0, P5: 0
}

func tuple(frame []byte) flow.ID {
	var p netstack.Packet
	if err := p.Parse(frame); err != nil {
		log.Fatal(err)
	}
	return p.FlowID()
}
