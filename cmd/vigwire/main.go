// Command vigwire is the one traffic generator for a daemon in wire
// mode (vignat -transport udp|unix). Both of its modes play the wire
// through the same tester-side endpoints the transport conformance
// suite uses (dpdk/transporttest).
//
// -mode oracle (the default) owns both ends of a NAT's wire — the
// plain NAT or the gateway chain, whose other elements pass this
// traffic through — generating MoonGen-style flows into its internal
// port, collecting the translated packets off its external port,
// answering them as the remote servers would, and checking every
// observation against the executable RFC 3022 oracle, lock-step: the
// same differential check the in-memory conformance suite runs, across
// process boundaries and a real kernel transport. It exits 0 iff every
// outbound packet came back translated exactly as the spec demands and
// every reply was un-translated back to the right internal host —
// including the return path, which is where NAT bugs hide.
//
// -mode blast sends the built-in cohort of the catalog row -nf names
// (vignat's own in-memory traffic: lb clients to the VIP, policer
// subscribers, NAT flows, …) into the side that cohort enters, one
// frame per datagram, paced by -interval (0 = unpaced), never waiting
// for replies: what a daemon needs to be held under live traffic while
// control verbs land on /control/v1, or handed bursts to batch.
//
// A typical two-process session (see the README's transport section):
//
//	vignat -verify=false -transport udp \
//	    -int-local 127.0.0.1:19001 -int-peer 127.0.0.1:29001 \
//	    -ext-local 127.0.0.1:19101 -ext-peer 127.0.0.1:29101 &
//	vigwire -transport udp \
//	    -int-local 127.0.0.1:29001 -int-peer 127.0.0.1:19001 \
//	    -ext-local 127.0.0.1:29101 -ext-peer 127.0.0.1:19101
//	vigwire -mode blast -nf lb -transport udp \
//	    -ext-local 127.0.0.1:29101 -ext-peer 127.0.0.1:19101 -interval 0
package main

import (
	"flag"
	"fmt"
	"io"
	"net/netip"
	"os"
	"time"

	"vignat/internal/catalog"
	"vignat/internal/dpdk/transporttest"
	"vignat/internal/flow"
	"vignat/internal/moongen"
	"vignat/internal/nat"
	"vignat/internal/nat/stateless"
	"vignat/internal/netstack"
	"vignat/internal/vigor/spec"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are vigwire's flags.
type options struct {
	mode, nf, transport                  string
	intLocal, intPeer, extLocal, extPeer string
	flows, packets                       int
	// oracle
	capacity, portBase int
	timeout, recvWait  time.Duration
	extIP              string
	// blast
	interval time.Duration
}

// run is vigwire's exit status: 2 for a bad flag, mode or -nf, 1 for
// anything else that fails.
func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("vigwire", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.mode, "mode", "oracle", "oracle (RFC 3022 lock-step against nat or gateway) or blast (open-loop cohort of -nf)")
	fs.StringVar(&o.nf, "nf", "nat", "the daemon's catalog row: oracle takes nat or gateway; blast sends that row's cohort")
	fs.StringVar(&o.transport, "transport", "udp", "wire backend: udp or unix (must match the daemon's)")
	fs.StringVar(&o.intLocal, "int-local", "", "this process's internal-side endpoint (the daemon's -int-peer)")
	fs.StringVar(&o.intPeer, "int-peer", "", "the daemon's internal port address (its -int-local)")
	fs.StringVar(&o.extLocal, "ext-local", "", "this process's external-side endpoint (the daemon's -ext-peer)")
	fs.StringVar(&o.extPeer, "ext-peer", "", "the daemon's external port address (its -ext-local)")
	fs.IntVar(&o.flows, "flows", 64, "concurrent flows to generate")
	fs.IntVar(&o.packets, "packets", 1024, "oracle: outbound packets to send; blast: frames to send")
	fs.IntVar(&o.capacity, "capacity", nat.DefaultCapacity, "oracle: the NAT's flow-table capacity (oracle state bound)")
	fs.DurationVar(&o.timeout, "timeout", 2*time.Second, "oracle: the NAT's Texp (oracle expiry; keep it well above the run length)")
	fs.StringVar(&o.extIP, "ext-ip", "198.18.1.1", "oracle: the NAT's external IP")
	fs.IntVar(&o.portBase, "port-base", nat.DefaultPortBase, "oracle: first external port the NAT hands out")
	fs.DurationVar(&o.recvWait, "recv-timeout", 5*time.Second, "oracle: per-packet wait before declaring the NAT dropped it")
	fs.DurationVar(&o.interval, "interval", 200*time.Microsecond, "blast: gap between frames (0 = unpaced)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "vigwire: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	var err error
	switch o.mode {
	case "oracle":
		if o.nf != "nat" && o.nf != "gateway" {
			fmt.Fprintf(stderr, "vigwire: the oracle is RFC 3022's: -nf nat or gateway, not %q\n", o.nf)
			return 2
		}
		err = oracle(stdout, &o)
	case "blast":
		row, ok := catalog.Find(catalog.Rows, o.nf)
		if !ok || row.Cohort == nil {
			fmt.Fprintf(stderr, "vigwire: unknown nf %q\n", o.nf)
			return 2
		}
		err = blast(stdout, &o, row)
	default:
		fmt.Fprintf(stderr, "vigwire: unknown mode %q (want oracle or blast)\n", o.mode)
		return 2
	}
	if err != nil {
		fmt.Fprintf(stderr, "vigwire: %v\n", err)
		return 1
	}
	return 0
}

func (o *options) validate() error {
	if o.flows < 1 || o.packets < 1 {
		return fmt.Errorf("-flows and -packets must be positive (have %d and %d)", o.flows, o.packets)
	}
	return nil
}

func newWire(transport, local, peer string) (transporttest.Wire, error) {
	if local == "" || peer == "" {
		return nil, fmt.Errorf("local and peer endpoints are required")
	}
	var (
		w interface {
			transporttest.Wire
			SetPeer(string) error
		}
		err error
	)
	switch transport {
	case "udp":
		w, err = transporttest.NewUDPWire(local)
	case "unix":
		w, err = transporttest.NewUnixWire(local)
	default:
		return nil, fmt.Errorf("unknown transport %q (want udp or unix)", transport)
	}
	if err != nil {
		return nil, err
	}
	if err := w.SetPeer(peer); err != nil {
		_ = w.Close()
		return nil, err
	}
	return w, nil
}

// parseAddr reads a dotted-quad IPv4 address, refusing anything else.
func parseAddr(s string) (flow.Addr, error) {
	ip, err := netip.ParseAddr(s)
	if err != nil || !ip.Is4() {
		return 0, fmt.Errorf("bad IPv4 address %q", s)
	}
	b := ip.As4()
	return flow.MakeAddr(b[0], b[1], b[2], b[3]), nil
}

// blast sends row's cohort into the side it enters.
func blast(w io.Writer, o *options, row *catalog.Row) error {
	if err := o.validate(); err != nil {
		return err
	}
	co := catalog.Defaults()
	co.Flows = o.flows
	frames, fromInternal, err := row.Cohort(co)
	if err != nil {
		return err
	}
	side, local, peer := "external", o.extLocal, o.extPeer
	if fromInternal {
		side, local, peer = "internal", o.intLocal, o.intPeer
	}
	wire, err := newWire(o.transport, local, peer)
	if err != nil {
		return fmt.Errorf("%s wire (%s cohort enters there): %w", side, o.nf, err)
	}
	defer wire.Close()
	for p := 0; p < o.packets; p++ {
		if !wire.Send(frames[p%len(frames)], 0) {
			return fmt.Errorf("frame %d: send failed (is the daemon up?)", p)
		}
		if o.interval > 0 {
			time.Sleep(o.interval)
		}
	}
	fmt.Fprintf(w, "vigwire: sent %d %s frames (%d flows) to %s\n", o.packets, o.nf, o.flows, peer)
	return nil
}

// oracle runs the RFC 3022 lock-step exchange.
func oracle(w io.Writer, o *options) error {
	if err := o.validate(); err != nil {
		return err
	}
	extIP, err := parseAddr(o.extIP)
	if err != nil {
		return err
	}
	if o.intLocal == "" || o.intPeer == "" || o.extLocal == "" || o.extPeer == "" {
		return fmt.Errorf("all four endpoints are required: -int-local -int-peer -ext-local -ext-peer")
	}
	intWire, err := newWire(o.transport, o.intLocal, o.intPeer)
	if err != nil {
		return fmt.Errorf("internal wire: %w", err)
	}
	defer intWire.Close()
	extWire, err := newWire(o.transport, o.extLocal, o.extPeer)
	if err != nil {
		return fmt.Errorf("external wire: %w", err)
	}
	defer extWire.Close()

	nFlows := o.flows
	specs, err := moongen.MakeFlows(0, nFlows, 0, flow.UDP)
	if err != nil {
		return err
	}
	oracle := spec.NewOracle(o.capacity, o.timeout.Nanoseconds(), extIP, uint16(o.portBase), o.capacity)

	// Phase 1 — outbound, lock-step: each internal packet must emerge on
	// the external wire rewritten exactly as Fig. 6 demands. The
	// external tuple the NAT picked is adopted per flow for the replies.
	extTuple := make([]flow.ID, nFlows)
	known := make([]bool, nFlows)
	recvBuf := make([]byte, 4096)
	frame := make([]byte, 2048)
	var pkt netstack.Packet
	for i := 0; i < o.packets; i++ {
		f := &specs[i%nFlows]
		out := frame[:len(f.Frame())]
		copy(out, f.Frame()) // the NAT rewrites in place on its side; keep ours pristine
		if !intWire.Send(out, 0) {
			return fmt.Errorf("outbound packet %d: send failed (is the NAT up?)", i)
		}
		obs := spec.Observed{Verdict: stateless.VerdictDrop}
		if n, ok := extWire.Recv(recvBuf, o.recvWait); ok {
			if err := pkt.Parse(recvBuf[:n]); err != nil {
				return fmt.Errorf("outbound packet %d: NAT emitted an unparseable frame: %v", i, err)
			}
			obs = spec.Observed{Verdict: stateless.VerdictToExternal, Tuple: pkt.FlowID()}
			extTuple[i%nFlows] = pkt.FlowID()
			known[i%nFlows] = true
		}
		if err := oracle.Step(f.ID, true, true, time.Now().UnixNano(), obs); err != nil {
			return fmt.Errorf("outbound packet %d diverged from RFC 3022: %w", i, err)
		}
	}

	// Phase 2 — return traffic: every established flow answers once,
	// and the NAT must translate it back to the right internal host.
	// This is the leg that catches inverted-lookup and
	// unsolicited-forwarding bugs.
	replies := 0
	for fi := 0; fi < nFlows; fi++ {
		if !known[fi] {
			continue
		}
		reply := moongen.ReplyFrame(frame, extTuple[fi])
		if !extWire.Send(reply, 0) {
			return fmt.Errorf("reply for flow %d: send failed", fi)
		}
		obs := spec.Observed{Verdict: stateless.VerdictDrop}
		if n, ok := intWire.Recv(recvBuf, o.recvWait); ok {
			if err := pkt.Parse(recvBuf[:n]); err != nil {
				return fmt.Errorf("reply for flow %d: NAT emitted an unparseable frame: %v", fi, err)
			}
			obs = spec.Observed{Verdict: stateless.VerdictToInternal, Tuple: pkt.FlowID()}
		}
		if err := oracle.Step(extTuple[fi].Reverse(), false, true, time.Now().UnixNano(), obs); err != nil {
			return fmt.Errorf("reply for flow %d diverged from RFC 3022: %w", fi, err)
		}
		replies++
	}

	fmt.Fprintf(w, "vigwire: %d outbound + %d return packets over %s, RFC 3022 oracle clean (%d sessions)\n",
		o.packets, replies, o.transport, oracle.Size())
	return nil
}
