package dpdk

import (
	"fmt"
	"os"
	"syscall"
)

// UnixTransport carries frames over unix-domain SOCK_SEQPACKET
// connections: sequenced, reliable, message-boundary-preserving — the
// closest AF_UNIX comes to a lossless NIC-to-NIC cable. Each queue
// listens at "<local>.q<N>", the listener and every connection it
// accepts registered in one epoll set per queue (the queue's pollable
// descriptor, see sock.go); transmission connects to the peer's
// queue-0 listener (the far end's software RSS re-steers, so one
// endpoint suffices), and unlike UDP the kernel backpressures: a full
// peer turns into EAGAIN, which TxBurst surfaces as a rejected tail
// the caller retries or frees — mbuf conservation under short writes
// is exactly the discipline the fixture checks.
type UnixTransport struct {
	sock
	localPath, peerPath string
}

var _ Transport = (*UnixTransport)(nil)

// NewUnixTransport opens cfg.Queues SOCK_SEQPACKET listeners at
// "<cfg.Local>.q<N>" (stale socket files are replaced).
func NewUnixTransport(cfg SocketConfig) (*UnixTransport, error) {
	c := cfg.withDefaults()
	if c.Local == "" {
		return nil, fmt.Errorf("dpdk: unix transport needs a local path")
	}
	t := &UnixTransport{localPath: c.Local, peerPath: c.Peer}
	if err := t.init("unix", c); err != nil {
		_ = t.Close()
		return nil, err
	}
	t.dial = t.connect
	for q := range t.queues {
		if err := t.listenOn(q); err != nil {
			_ = t.Close()
			return nil, err
		}
	}
	return t, nil
}

// listenOn opens queue q's listener and the epoll set it lives in.
func (t *UnixTransport) listenOn(q int) error {
	qu := &t.queues[q]
	var err error
	if qu.fd, err = syscall.EpollCreate1(0); err != nil {
		return fmt.Errorf("dpdk: unix epoll: %w", err)
	}
	if qu.listen, err = syscall.Socket(syscall.AF_UNIX, syscall.SOCK_SEQPACKET|syscall.SOCK_NONBLOCK, 0); err != nil {
		return fmt.Errorf("dpdk: unix socket: %w", err)
	}
	if err := setSndBuf(qu.listen, &t.cfg); err != nil {
		return err
	}
	path := t.LocalAddr(q)
	_ = os.Remove(path)
	if err := syscall.Bind(qu.listen, &syscall.SockaddrUnix{Name: path}); err != nil {
		return fmt.Errorf("dpdk: unix bind %s: %w", path, err)
	}
	if err := syscall.Listen(qu.listen, 8); err != nil {
		return fmt.Errorf("dpdk: unix listen %s: %w", path, err)
	}
	ev := syscall.EpollEvent{Events: syscall.EPOLLIN, Fd: int32(qu.listen)}
	if err := syscall.EpollCtl(qu.fd, syscall.EPOLL_CTL_ADD, qu.listen, &ev); err != nil {
		return fmt.Errorf("dpdk: unix epoll add %s: %w", path, err)
	}
	return nil
}

func unixQueuePath(prefix string, q int) string { return fmt.Sprintf("%s.q%d", prefix, q) }

// LocalAddr returns queue q's listening path.
func (t *UnixTransport) LocalAddr(q int) string { return unixQueuePath(t.localPath, q) }

// SetPeer (re)targets transmission at another transport's path prefix;
// call before traffic.
func (t *UnixTransport) SetPeer(prefix string) error {
	t.peerPath = prefix
	return nil
}

// connect dials the peer's queue-0 listener for qu's TX side, lazily,
// from TxBurst. A missing or refusing peer leaves the link down.
func (t *UnixTransport) connect(qu *sockQueue) bool {
	if t.peerPath == "" {
		return false
	}
	fd, err := syscall.Socket(syscall.AF_UNIX, syscall.SOCK_SEQPACKET|syscall.SOCK_NONBLOCK, 0)
	if err != nil {
		return false
	}
	if setSndBuf(fd, &t.cfg) != nil ||
		syscall.Connect(fd, &syscall.SockaddrUnix{Name: unixQueuePath(t.peerPath, 0)}) != nil {
		_ = syscall.Close(fd)
		return false
	}
	qu.tx = fd
	return true
}

// Close shuts every listener, connection, and TX descriptor and
// removes the socket files; in-flight bursts end gracefully.
func (t *UnixTransport) Close() error {
	for q := range t.queues {
		if t.queues[q].listen >= 0 && !t.closed.Load() {
			_ = os.Remove(t.LocalAddr(q))
		}
	}
	return t.sock.Close()
}
