// Package transporttest holds the tester's side of a dpdk.Transport
// and the shared conformance fixture every backend must pass (its
// tests): the same burst, steering, overflow, conservation, and
// failure-mode checks run against the in-memory rings and both
// kernel-socket wires. A transport that passes is substitutable under
// every NF in the repository — the spec suites check protocol
// behavior, the fixture checks the I/O contract those suites stand on.
// Its tester-side endpoints (Wire) are also what cmd/vigwire plays the
// wire with and what nfkittest.Rig drives an NF through.
package transporttest

import (
	"fmt"
	"net"
	"sync"
	"time"

	"vignat/internal/dpdk"
	"vignat/internal/libvig"
)

// Wire is the tester's end of a port's packet transport: what MoonGen
// plugs into. Send injects one frame toward the middlebox; Recv
// collects one frame the middlebox transmitted, waiting up to timeout.
// The in-memory implementation is the lock-step harness the oracle
// tests have always used; the UDP and unix implementations are real
// kernel endpoints talking to a Port running a socket transport —
// the same observation surface, over an actual wire.
type Wire interface {
	// Send injects frame toward the middlebox, stamped now where the
	// backend supports explicit timestamps (the in-memory wire; socket
	// wires stamp at kernel read time). Reports whether the frame was
	// handed to the wire — not whether the far end kept it.
	Send(frame []byte, now libvig.Time) bool
	// Recv copies the next middlebox-transmitted frame into buf,
	// waiting up to timeout, and reports its length and whether a frame
	// arrived.
	Recv(buf []byte, timeout time.Duration) (int, bool)
	Close() error
}

// wireRecvBuf sizes socket-wire read buffers above DataRoomSize so an
// oversize frame arrives intact rather than masquerading as a valid
// truncation.
const wireRecvBuf = 2 * dpdk.DataRoomSize

// --- in-memory wire ---

// MemWire adapts a Port on the in-memory transport to the Wire
// interface: Send is DeliverRx, Recv drains the TX rings.
type MemWire struct {
	Port *dpdk.Port
}

// Send implements Wire via the port's RSS-steered delivery.
func (w *MemWire) Send(frame []byte, now libvig.Time) bool {
	return w.Port.DeliverRx(frame, now)
}

// Recv implements Wire by polling the TX rings. The lock-step
// harnesses see their frame on the first poll; concurrent pipelines
// are polled until the deadline.
func (w *MemWire) Recv(buf []byte, timeout time.Duration) (int, bool) {
	var one [1]*dpdk.Mbuf
	deadline := time.Now().Add(timeout)
	for {
		if w.Port.DrainTx(one[:]) == 1 {
			m := one[0]
			n := copy(buf, m.Data)
			_ = m.Pool().Free(m)
			return n, true
		}
		if time.Now().After(deadline) {
			return 0, false
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// Close implements Wire; the in-memory wire holds nothing to release.
func (w *MemWire) Close() error { return nil }

// --- UDP wire ---

// UDPWire is a kernel UDP endpoint playing the tester: one socket,
// sending to the middlebox port's queue-0 address (its software RSS
// re-steers) and receiving whatever any middlebox queue transmits here.
type UDPWire struct {
	conn *net.UDPConn
	peer *net.UDPAddr
}

// NewUDPWire binds a UDP socket at local ("127.0.0.1:0" for
// ephemeral). Set the target with SetPeer before sending.
func NewUDPWire(local string) (*UDPWire, error) {
	laddr, err := net.ResolveUDPAddr("udp4", local)
	if err != nil {
		return nil, fmt.Errorf("transporttest: udp wire %q: %w", local, err)
	}
	conn, err := net.ListenUDP("udp4", laddr)
	if err != nil {
		return nil, fmt.Errorf("transporttest: udp wire: %w", err)
	}
	return &UDPWire{conn: conn}, nil
}

// LocalAddr returns the wire's bound "ip:port" — the middlebox
// transport's Peer.
func (w *UDPWire) LocalAddr() string { return w.conn.LocalAddr().String() }

// SetPeer targets the middlebox's queue-0 receive address.
func (w *UDPWire) SetPeer(addr string) error {
	peer, err := net.ResolveUDPAddr("udp4", addr)
	if err != nil {
		return fmt.Errorf("transporttest: udp wire peer %q: %w", addr, err)
	}
	w.peer = peer
	return nil
}

// Send implements Wire as one datagram to the middlebox.
func (w *UDPWire) Send(frame []byte, now libvig.Time) bool {
	if w.peer == nil {
		return false
	}
	_, err := w.conn.WriteToUDP(frame, w.peer)
	return err == nil
}

// Recv implements Wire with a read deadline.
func (w *UDPWire) Recv(buf []byte, timeout time.Duration) (int, bool) {
	scratch := make([]byte, wireRecvBuf)
	_ = w.conn.SetReadDeadline(time.Now().Add(timeout))
	n, _, err := w.conn.ReadFromUDP(scratch)
	if err != nil {
		return 0, false
	}
	return copy(buf, scratch[:n]), true
}

// Close implements Wire.
func (w *UDPWire) Close() error { return w.conn.Close() }

// --- unix SOCK_SEQPACKET wire ---

// UnixWire is a kernel SOCK_SEQPACKET endpoint playing the tester: it
// listens at "<local>.q0" (where every middlebox TX queue connects)
// and dials the middlebox's own queue-0 listener to send. Inbound
// connections are read by per-connection goroutines into a shared
// frame channel, so Recv observes all middlebox TX queues merged —
// the same view MemWire's DrainTx sweep gives.
type UnixWire struct {
	listener *net.UnixListener
	frames   chan []byte

	mu     sync.Mutex
	conns  []*net.UnixConn
	out    *net.UnixConn
	peer   string
	closed bool
}

// NewUnixWire listens at "<local>.q0". Set the middlebox path prefix
// with SetPeer before sending.
func NewUnixWire(local string) (*UnixWire, error) {
	path := local + ".q0"
	l, err := net.ListenUnix("unixpacket", &net.UnixAddr{Name: path, Net: "unixpacket"})
	if err != nil {
		return nil, fmt.Errorf("transporttest: unix wire %s: %w", path, err)
	}
	w := &UnixWire{listener: l, frames: make(chan []byte, 1024)}
	go w.acceptLoop()
	return w, nil
}

// SetPeer targets the middlebox's path prefix (its queue-0 listener).
func (w *UnixWire) SetPeer(prefix string) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.peer = prefix
	return nil
}

func (w *UnixWire) acceptLoop() {
	for {
		conn, err := w.listener.AcceptUnix()
		if err != nil {
			return // listener closed
		}
		w.mu.Lock()
		if w.closed {
			w.mu.Unlock()
			_ = conn.Close()
			return
		}
		w.conns = append(w.conns, conn)
		w.mu.Unlock()
		go w.readLoop(conn)
	}
}

func (w *UnixWire) readLoop(conn *net.UnixConn) {
	scratch := make([]byte, wireRecvBuf)
	for {
		n, err := conn.Read(scratch)
		if err != nil || n == 0 {
			return
		}
		frame := make([]byte, n)
		copy(frame, scratch[:n])
		select {
		case w.frames <- frame:
		default: // tester overrun: the wire drops, like a saturated capture box
		}
	}
}

// Send implements Wire, dialing the middlebox lazily and redialing
// after a broken connection.
func (w *UnixWire) Send(frame []byte, now libvig.Time) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return false
	}
	if w.out == nil {
		if w.peer == "" {
			return false
		}
		conn, err := net.DialUnix("unixpacket", nil,
			&net.UnixAddr{Name: w.peer + ".q0", Net: "unixpacket"})
		if err != nil {
			return false
		}
		w.out = conn
	}
	if _, err := w.out.Write(frame); err != nil {
		_ = w.out.Close()
		w.out = nil
		return false
	}
	return true
}

// Recv implements Wire from the merged frame channel.
func (w *UnixWire) Recv(buf []byte, timeout time.Duration) (int, bool) {
	select {
	case frame := <-w.frames:
		return copy(buf, frame), true
	case <-time.After(timeout):
		return 0, false
	}
}

// Close implements Wire, shutting the listener and every connection.
func (w *UnixWire) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	conns := w.conns
	w.conns = nil
	out := w.out
	w.out = nil
	w.mu.Unlock()
	err := w.listener.Close()
	for _, c := range conns {
		_ = c.Close()
	}
	if out != nil {
		_ = out.Close()
	}
	return err
}
