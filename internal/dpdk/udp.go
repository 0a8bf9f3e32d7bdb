package dpdk

import (
	"fmt"
	"syscall"
	"unsafe"
)

// UDPTransport carries frames as UDP datagrams between processes: one
// nonblocking SOCK_DGRAM socket per queue (the queue's pollable
// descriptor, see sock.go), bound to consecutive local ports, every
// queue transmitting to the single peer endpoint (the far end's
// software RSS puts each frame on the queue its flow belongs to).
// Datagram boundaries are frame boundaries, so no framing layer is
// needed; like a real wire, delivery is lossy under pressure — a full
// receiver drops, it does not backpressure the sender.
type UDPTransport struct {
	sock
	peerAddr syscall.RawSockaddrInet4 // what sock.peer points at
	local    []*syscall.SockaddrInet4 // per-queue bound addresses (after ephemeral resolution)
}

var _ Transport = (*UDPTransport)(nil)

// NewUDPTransport opens cfg.Queues UDP sockets bound to consecutive
// ports starting at cfg.Local's (0 = ephemeral; read the result back
// with LocalAddr).
func NewUDPTransport(cfg SocketConfig) (*UDPTransport, error) {
	c := cfg.withDefaults()
	if c.Local == "" {
		c.Local = "127.0.0.1:0"
	}
	base, err := parseUDPAddr(c.Local)
	if err != nil {
		return nil, err
	}
	t := &UDPTransport{local: make([]*syscall.SockaddrInet4, c.Queues)}
	if err := t.init("udp", c); err != nil {
		_ = t.Close()
		return nil, err
	}
	for q := range t.queues {
		if err := t.bindOn(q, base); err != nil {
			_ = t.Close()
			return nil, err
		}
	}
	if c.Peer != "" {
		if err := t.SetPeer(c.Peer); err != nil {
			_ = t.Close()
			return nil, err
		}
	}
	return t, nil
}

// bindOn opens queue q's socket at base's port + q.
func (t *UDPTransport) bindOn(q int, base *syscall.SockaddrInet4) error {
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_DGRAM|syscall.SOCK_NONBLOCK, 0)
	if err != nil {
		return fmt.Errorf("dpdk: udp socket: %w", err)
	}
	t.queues[q].fd = fd
	if err := setSndBuf(fd, &t.cfg); err != nil {
		return err
	}
	bind := *base
	if base.Port != 0 {
		bind.Port = base.Port + q
	}
	if err := syscall.Bind(fd, &bind); err != nil {
		return fmt.Errorf("dpdk: udp bind %s+%d: %w", t.cfg.Local, q, err)
	}
	sa, err := syscall.Getsockname(fd)
	if err != nil {
		return fmt.Errorf("dpdk: udp getsockname: %w", err)
	}
	bound, ok := sa.(*syscall.SockaddrInet4)
	if !ok {
		return fmt.Errorf("dpdk: udp getsockname: unexpected family")
	}
	t.local[q] = bound
	return nil
}

// LocalAddr returns queue q's bound "ip:port" (resolving ephemeral
// binds), for handing to the far end as its Peer.
func (t *UDPTransport) LocalAddr(q int) string {
	sa := t.local[q]
	return fmt.Sprintf("%d.%d.%d.%d:%d", sa.Addr[0], sa.Addr[1], sa.Addr[2], sa.Addr[3], sa.Port)
}

// SetPeer (re)targets transmission; call before traffic. It is what
// brings every queue's TX side up: each transmits on its own socket.
func (t *UDPTransport) SetPeer(addr string) error {
	sa, err := parseUDPAddr(addr)
	if err != nil {
		return err
	}
	t.peerAddr = syscall.RawSockaddrInet4{Family: syscall.AF_INET, Addr: sa.Addr}
	port := (*[2]byte)(unsafe.Pointer(&t.peerAddr.Port)) // network byte order
	port[0], port[1] = byte(sa.Port>>8), byte(sa.Port)
	t.peer, t.peerLen = (*byte)(unsafe.Pointer(&t.peerAddr)), syscall.SizeofSockaddrInet4
	for q := range t.queues {
		t.queues[q].tx = t.queues[q].fd
	}
	return nil
}
