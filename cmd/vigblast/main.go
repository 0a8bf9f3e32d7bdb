// Command vigblast is the wire-mode traffic source for NFs whose
// client side vigwire cannot play (vigwire speaks the NAT's RFC 3022
// dialect and runs lock-step against its oracle). vigblast is
// open-loop: it crafts client or subscriber frames and sends each as
// one datagram — the dpdk socket transports' frames-as-datagrams
// framing, over UDP or a unix SOCK_SEQPACKET connection — to a daemon's
// external-port socket, paced by -interval, never waiting for replies.
// That is exactly the shape the wire smoke test needs to hold a viglb
// or vigpol daemon under live traffic while control-plane verbs land on
// /control/v1, and, unpaced, to hand a daemon bursts to batch.
//
// Usage:
//
//	vigblast -peer 127.0.0.1:19301 -kind lb -flows 64 -packets 4000
//	vigblast -peer 127.0.0.1:19401 -kind policer -flows 32 -packets 4000
//	vigblast -transport unix -peer /tmp/nat-ext -interval 0 -packets 20000
//
// -kind lb sends distinct client tuples to the viglb VIP
// (198.18.10.10:443, the address cmd/viglb hardcodes), pinning one
// sticky flow per client. -kind policer sends downstream frames to
// distinct subscriber IPs in 10.0.0.0/16, creating one token bucket
// each.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"time"

	"vignat/internal/flow"
	"vignat/internal/netstack"
)

func craft(id flow.ID, payload int) []byte {
	spec := &netstack.FrameSpec{ID: id, PayloadLen: payload}
	return netstack.Craft(make([]byte, netstack.FrameLen(spec)), spec)
}

func main() {
	transport := flag.String("transport", "udp", "wire backend: udp or unix (must match the daemon's)")
	peer := flag.String("peer", "", "daemon socket to blast (its external port's queue-0 address; unix: its path prefix)")
	kind := flag.String("kind", "lb", "frame shape: lb (client→VIP) or policer (downstream→subscriber)")
	flows := flag.Int("flows", 64, "distinct client/subscriber tuples to cycle through")
	packets := flag.Int("packets", 4000, "total datagrams to send")
	interval := flag.Duration("interval", 200*time.Microsecond, "gap between datagrams (open-loop pacing)")
	payload := flag.Int("payload", 64, "UDP payload bytes per frame")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "vigblast: %v\n", err)
		os.Exit(1)
	}
	if *peer == "" {
		fail(fmt.Errorf("-peer is required"))
	}
	frames := make([][]byte, *flows)
	for i := range frames {
		var id flow.ID
		switch *kind {
		case "lb":
			id = flow.ID{
				SrcIP:   flow.MakeAddr(203, 0, byte(i>>8), byte(1+i)),
				SrcPort: uint16(20000 + i),
				DstIP:   flow.MakeAddr(198, 18, 10, 10),
				DstPort: 443,
				Proto:   flow.UDP,
			}
		case "policer":
			id = flow.ID{
				SrcIP:   flow.MakeAddr(198, 51, 100, 7),
				SrcPort: 443,
				DstIP:   flow.MakeAddr(10, 0, byte(i>>8), byte(1+i)),
				DstPort: 8080,
				Proto:   flow.UDP,
			}
		default:
			fail(fmt.Errorf("unknown -kind %q (want lb or policer)", *kind))
		}
		frames[i] = craft(id, *payload)
	}

	network, addr := "udp", *peer
	if *transport == "unix" {
		network, addr = "unixpacket", *peer+".q0"
	} else if *transport != "udp" {
		fail(fmt.Errorf("unknown -transport %q (want udp or unix)", *transport))
	}
	conn, err := net.Dial(network, addr)
	if err != nil {
		fail(err)
	}
	defer conn.Close()
	for p := 0; p < *packets; p++ {
		if _, err := conn.Write(frames[p%len(frames)]); err != nil {
			fail(fmt.Errorf("datagram %d: %w", p, err))
		}
		time.Sleep(*interval)
	}
	fmt.Printf("vigblast: sent %d %s datagrams (%d flows) to %s\n", *packets, *kind, *flows, *peer)
}
