package nfkittest

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"vignat/internal/dpdk"
	"vignat/internal/dpdk/transporttest"
	"vignat/internal/flow"
	"vignat/internal/libvig"
	"vignat/internal/netstack"
	"vignat/internal/nf"
)

// Rig is one NF on the engine, the stand every conformance suite and
// every experiment drives. The tester holds a wire to each of the
// engine's two ports: the in-memory rings a kernel-bypass NF polls
// ("mem"), or kernel sockets ("udp", "unix"), so that every frame
// crosses the kernel's receive and send paths inside the engine's Poll.
type Rig struct {
	Engine *nf.Pipeline
	pools  []*dpdk.Mempool
	ports  [2]*dpdk.Port // internal, external
	// wires are the tester's ends of the two ports; drained counts the
	// frames read off each so far.
	wires   [2]transporttest.Wire
	drained [2]uint64
	// chunk is the most frames the tester queues before the engine
	// polls: half the in-memory RX ring, or what a socket's default
	// buffer holds with room to spare (a blocked send would wait on a
	// Poll that only the tester's goroutine makes).
	chunk   int
	closers []io.Closer
	dir     string
	buf     []byte
}

// Out is one frame the engine transmitted: the side it left on and its
// bytes.
type Out struct {
	Internal bool
	Frame    string
}

// String shows o's side and bytes, the latter in hex.
func (o Out) String() string { return fmt.Sprintf("{internal=%v % x}", o.Internal, o.Frame) }

// NewRig runs n on the engine over transport ("mem", "udp" or "unix"),
// with queues RX/TX queue pairs a port (at least one a worker). cfg
// sets the workers, the clock, the flow cache and telemetry; the rig
// fills in the ports.
func NewRig(n nf.NF, transport string, queues int, cfg nf.Config) (*Rig, error) {
	r := &Rig{chunk: 8 * nf.DefaultBurst, buf: make([]byte, dpdk.DataRoomSize)}
	if transport != "mem" {
		r.chunk = 2 * nf.DefaultBurst
	}
	err := r.wire(transport, max(queues, cfg.Workers, 1), cfg.Clock)
	if err == nil {
		cfg.Internal, cfg.External = r.ports[0], r.ports[1]
		r.Engine, err = nf.NewPipeline(n, cfg)
	}
	if err != nil {
		r.release()
		return nil, err
	}
	return r, nil
}

// wire gives the rig a port on each side, each with a pool a queue, and
// the tester a wire to each.
func (r *Rig) wire(transport string, queues int, clock libvig.Clock) (err error) {
	if transport == "unix" {
		if r.dir, err = os.MkdirTemp("", "vigrig"); err != nil {
			return err
		}
	}
	for side, name := range []string{"int", "ext"} {
		cfg := dpdk.SocketConfig{Clock: clock}
		switch transport {
		case "udp":
			w, err := transporttest.NewUDPWire("127.0.0.1:0")
			if err != nil {
				return err
			}
			r.closers, r.wires[side] = append(r.closers, w), w
			cfg.Local, cfg.Peer = "127.0.0.1:0", w.LocalAddr()
		case "unix":
			cfg.Local, cfg.Peer = filepath.Join(r.dir, "nf-"+name), filepath.Join(r.dir, "wire-"+name)
			w, err := transporttest.NewUnixWire(cfg.Peer)
			if err != nil {
				return err
			}
			r.closers, r.wires[side] = append(r.closers, w), w
			if err := w.SetPeer(cfg.Local); err != nil {
				return err
			}
		}
		port, pools, err := nf.NewTransportPort(transport, uint16(side), queues, 1024/queues, cfg)
		if err != nil {
			return err
		}
		r.ports[side], r.pools, r.closers = port, append(r.pools, pools...), append(r.closers, port)
		switch w := r.wires[side].(type) {
		case nil:
			r.wires[side] = &transporttest.MemWire{Port: port}
		case *transporttest.UDPWire:
			if err := w.SetPeer(port.Transport().(*dpdk.UDPTransport).LocalAddr(0)); err != nil {
				return err
			}
		}
	}
	return nil
}

// release closes the rig's ports and wires and removes their directory.
func (r *Rig) release() {
	for _, c := range r.closers {
		_ = c.Close()
	}
	r.closers = nil
	_ = os.RemoveAll(r.dir)
}

// Close drains what the engine transmitted and releases the rig. It
// fails if a pool still holds an mbuf: every frame received must have
// been sent on or freed. A second Close does nothing.
func (r *Rig) Close() error {
	if r.closers == nil {
		return nil
	}
	err := r.Drain(nil)
	r.release()
	return err
}

// Chunk is the most frames the tester should send before the engine
// polls them.
func (r *Rig) Chunk() int { return r.chunk }

// Send hands frame to the tester's wire on the internal or the external
// side, stamped now where the wire stamps.
func (r *Rig) Send(frame []byte, internal bool, now libvig.Time) error {
	w := r.wires[1]
	if internal {
		w = r.wires[0]
	}
	if !w.Send(frame, now) {
		return errors.New("nfkittest: wire refused a frame")
	}
	return nil
}

// Poll runs the engine at least once and until it has consumed want
// frames, and returns the time its Poll calls took. A socket port may
// answer its first poll empty while it accepts the tester's connection,
// so idle polls are retried for a while before the rig gives up.
func (r *Rig) Poll(want int) (time.Duration, error) {
	start := time.Now()
	for consumed, idle := 0, 0; consumed < want || idle+consumed == 0; {
		n, err := r.Engine.Poll()
		if err != nil {
			return 0, err
		}
		if n == 0 {
			if idle++; idle > 1000 {
				return 0, fmt.Errorf("nfkittest: engine idle with %d frames sent", want-consumed)
			}
		}
		consumed += n
	}
	return time.Since(start), nil
}

// Drain reads every frame the engine has transmitted off the tester's
// wires into outs, keyed by sequence tag (see Frame), or drops them with
// outs nil. It then checks that no pool holds an mbuf.
func (r *Rig) Drain(outs map[uint32]Out) error {
	for side, port := range r.ports {
		for want := port.Stats().TxPackets; r.drained[side] < want; r.drained[side]++ {
			n, ok := r.wires[side].Recv(r.buf, time.Second)
			if !ok {
				return fmt.Errorf("nfkittest: %d transmitted frames never reached the tester", want-r.drained[side])
			}
			if outs == nil {
				continue
			}
			seq := binary.BigEndian.Uint32(r.buf[8:12])
			if _, dup := outs[seq]; dup || n < netstack.EthHeaderLen {
				return fmt.Errorf("nfkittest: a second frame, or a runt, left tagged %d", seq)
			}
			outs[seq] = Out{Internal: side == 0, Frame: string(r.buf[:n])}
		}
	}
	for _, pool := range r.pools {
		if n := pool.InUse(); n != 0 {
			return fmt.Errorf("nfkittest: rig leaked %d mbufs", n)
		}
	}
	return nil
}

// Frame crafts id's frame with payload bytes of payload, its sequence
// tag seq in the last four bytes of its source MAC, which no NF
// rewrites.
func Frame(id flow.ID, payload int, seq uint32) []byte {
	s := &netstack.FrameSpec{ID: id, PayloadLen: payload}
	binary.BigEndian.PutUint32(s.SrcMAC[2:], seq)
	return netstack.Craft(make([]byte, netstack.FrameLen(s)), s)
}
