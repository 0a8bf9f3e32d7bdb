package dpdk

import (
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"vignat/internal/libvig"
)

// This file is the whole I/O path of the socket transports: the kernel
// is the wire, frames are datagrams, and one burst is a handful of
// syscalls whatever its size. Every queue has one pollable descriptor —
// a datagram transport's socket, or a connection-oriented transport's
// epoll set holding its listener and accepted connections — plus, on a
// multi-queue transport, an eventfd that announces re-steered frames. An
// idle worker blocks on them (WaitRx, over both of its ports at once or
// the external one alone); a burst asks the descriptor what is ready
// before touching anything, so a listener is accepted from only when a
// peer is pending and a connection is read only when it has frames,
// recvmmsg(2) taking as many as the burst has room for and sendmmsg(2)
// sending the whole TX burst. udp.go and unix.go only open, bind and
// dial.
//
// What a NIC does in hardware — receive timestamping and RSS steering —
// happens here in software: frames are stamped with the configured
// clock at read time, and a frame the RSS function steers to a
// different queue than the socket it arrived on is re-steered through
// that queue's staging channel (the indirection-table hop a NIC
// performs before DMA). Everything mbuf-shaped obeys the same
// conservation discipline as the in-memory backend.

// DefaultStagingDepth bounds each queue's software-RSS re-steering
// buffer (frames parked for a queue other than the receiving socket's).
// Overflow drops count as RxDropped on the receiving queue.
const DefaultStagingDepth = 512

// SocketConfig parameterizes a socket transport.
type SocketConfig struct {
	// Queues is the number of RX/TX queue pairs (default 1).
	Queues int
	// Local is the receive address. UDP: "host:port", where queue q
	// binds port+q (port 0 binds ephemeral ports; read them back with
	// LocalAddr). Unix: a filesystem path prefix, where queue q listens
	// at "<Local>.q<q>".
	Local string
	// Peer is where transmitted frames go. UDP: "host:port" (the far
	// end's queue-0 socket). Unix: the far end's path prefix (frames
	// connect to "<Peer>.q0"). The receiving side's software RSS
	// re-steers to the right queue, so one peer endpoint suffices. May
	// be empty at construction and set later with SetPeer (before
	// traffic); transmitting with no peer drops like a NIC with no
	// link.
	Peer string
	// Clock stamps received frames (Mbuf.RxTime). Defaults to the
	// system clock — wire backends live on real time.
	Clock libvig.Clock
	// SndBuf, when positive, sets SO_SNDBUF on every socket (tests use
	// a tiny buffer to force backpressure quickly).
	SndBuf int
}

func (cfg *SocketConfig) withDefaults() SocketConfig {
	c := *cfg
	if c.Queues == 0 {
		c.Queues = 1
	}
	if c.Clock == nil {
		c.Clock = libvig.NewSystemClock()
	}
	return c
}

// WireStats counts what one queue of a socket transport asked of the
// kernel. Frames over syscalls is the batching the wire achieved; the
// in-memory transport makes no syscalls and reads zero throughout.
type WireStats struct {
	RxSyscalls uint64 // readiness queries, accepts and recvmmsg calls
	RxFrames   uint64 // frames those recvmmsg calls returned
	TxSyscalls uint64 // sendmmsg calls
	TxAgain    uint64 // sendmmsg calls the kernel refused with EAGAIN/ENOBUFS
}

// wireCounters is WireStats as its queue keeps it: written by the one
// goroutine driving the queue, readable by a scrape at any time.
type wireCounters struct {
	rxSyscalls, rxFrames, txSyscalls, txAgain atomic.Uint64
}

// mmsgBatch is how many frames one recvmmsg/sendmmsg call carries at
// most; a larger burst takes more than one call.
const mmsgBatch = 32

// mmsghdr is struct mmsghdr: a msghdr and the byte count the kernel
// reports for it.
type mmsghdr struct {
	hdr syscall.Msghdr
	len uint32
}

// mmsg is one queue's recvmmsg/sendmmsg scratch, wired once at
// construction: every header points at its own iovec, the receive
// iovecs point at rxBufs, the transmit iovecs are pointed at the
// burst's mbufs call by call.
type mmsg struct {
	rxHdrs [mmsgBatch]mmsghdr
	rxIovs [mmsgBatch]syscall.Iovec
	rxBufs [mmsgBatch][DataRoomSize]byte
	txHdrs [mmsgBatch]mmsghdr
	txIovs [mmsgBatch]syscall.Iovec
}

func newMmsg() *mmsg {
	v := &mmsg{}
	for i := range v.rxHdrs {
		v.rxIovs[i].Base = &v.rxBufs[i][0]
		v.rxIovs[i].SetLen(DataRoomSize)
		v.rxHdrs[i].hdr.Iov = &v.rxIovs[i]
		v.rxHdrs[i].hdr.Iovlen = 1
		v.txHdrs[i].hdr.Iov = &v.txIovs[i]
		v.txHdrs[i].hdr.Iovlen = 1
	}
	return v
}

// stagedFrame is a frame parked between the socket it arrived on and
// the queue RSS steers it to, carrying its read-time stamp. It returns
// to the free ring of the queue that staged it (from) once the target
// queue has copied it into an mbuf.
type stagedFrame struct {
	buf    [DataRoomSize]byte
	n      int
	rxTime libvig.Time
	from   int
}

// sockQueue is the per-queue state shared by the socket transports.
// stats follows the single-writer discipline: only the goroutine
// driving queue q's bursts touches queues[q].stats — including the
// RxDropped counted when q's socket receives a frame it must re-steer
// and the target's staging buffer is full (the drop charges the
// receiving queue, whose goroutine is the one running).
type sockQueue struct {
	// mu keeps a concurrent Close from pulling the descriptors out from
	// under a burst. It is uncontended on the packet path (one goroutine
	// per queue) and never held across a blocking call.
	mu sync.Mutex
	// fd is the queue's pollable descriptor, fixed at construction: a
	// datagram transport's socket, or the epoll set a connection-oriented
	// transport keeps listen and conns in.
	fd     int
	listen int   // accepts peers into the epoll set; -1 on a datagram transport
	conns  []int // accepted connections, all registered in the epoll set
	tx     int   // where TxBurst sends; -1 while the link is down
	events [8]syscall.EpollEvent
	// wake is the eventfd a WaitRx on this queue also watches, so a frame
	// another queue's burst re-steers here ends the wait (-1 on a
	// single-queue transport, which re-steers nothing). parked keeps it
	// off the common path: the waiter raises it before re-checking
	// staging, and place signals only when it can take it back down, so a
	// wait costs at most one eventfd write and a burst that finds nobody
	// waiting makes no syscall for it.
	wake   int
	parked atomic.Bool

	stats   PortStats
	io      wireCounters
	vec     *mmsg
	staging chan *stagedFrame
	// free recycles the staged frames this queue's receive path
	// allocated, so steady-state re-steering allocates nothing.
	free chan *stagedFrame
}

// sock is the common core of UDPTransport and UnixTransport.
type sock struct {
	name   string
	cfg    SocketConfig // defaults applied; read-only after construction
	portID uint16
	pools  []*Mempool
	clock  libvig.Clock
	// rss holds a func(frame []byte) int, atomically swappable so the
	// control plane can re-steer live traffic (reshard) while the
	// per-queue poll goroutines keep receiving.
	rss    atomic.Value
	queues []sockQueue
	closed atomic.Bool
	// dial brings a connection-oriented queue's TX link up, reporting
	// whether qu.tx is now usable; nil on a datagram transport, whose
	// queues transmit on their own socket.
	dial func(qu *sockQueue) bool
	// peer is the destination every sendmmsg header names (a raw
	// sockaddr); nil on a connected link.
	peer    *byte
	peerLen uint32
}

func (s *sock) init(name string, cfg SocketConfig) error {
	s.name, s.cfg, s.clock = name, cfg, cfg.Clock
	s.queues = make([]sockQueue, cfg.Queues)
	for q := range s.queues {
		qu := &s.queues[q]
		qu.fd, qu.listen, qu.tx, qu.wake = -1, -1, -1, -1
		qu.vec = newMmsg()
		qu.staging = make(chan *stagedFrame, DefaultStagingDepth)
		// Sized to every frame the queue can have parked on the others
		// at once, so a recycled frame always finds room.
		qu.free = make(chan *stagedFrame, (cfg.Queues-1)*DefaultStagingDepth)
	}
	if cfg.Queues == 1 {
		return nil
	}
	for q := range s.queues {
		fd, _, e := syscall.RawSyscall(syscall.SYS_EVENTFD2, 0, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
		if e != 0 {
			return fmt.Errorf("dpdk: eventfd: %w", e)
		}
		s.queues[q].wake = int(fd)
	}
	return nil
}

func (s *sock) Name() string { return s.name }
func (s *sock) Queues() int  { return len(s.queues) }

func (s *sock) SetRSS(fn func(frame []byte) int) { s.rss.Store(fn) }

// loadRSS returns the current steering function, nil when none is set.
func (s *sock) loadRSS() func(frame []byte) int {
	v := s.rss.Load()
	if v == nil {
		return nil
	}
	return v.(func(frame []byte) int)
}

func (s *sock) QueueStats(q int) PortStats { return s.queues[q].stats }

// WireStats returns queue q's syscall counters; safe under traffic.
func (s *sock) WireStats(q int) WireStats {
	io := &s.queues[q].io
	return WireStats{
		RxSyscalls: io.rxSyscalls.Load(),
		RxFrames:   io.rxFrames.Load(),
		TxSyscalls: io.txSyscalls.Load(),
		TxAgain:    io.txAgain.Load(),
	}
}

// Bind attaches the port identity and per-queue RX mempools.
func (s *sock) Bind(portID uint16, pools []*Mempool) error {
	if len(pools) != len(s.queues) {
		return fmt.Errorf("dpdk: %d pools for %d queues", len(pools), len(s.queues))
	}
	s.portID = portID
	s.pools = pools
	return nil
}

// steerOf maps a received frame to its RSS queue.
func (s *sock) steerOf(frame []byte) int {
	rss := s.loadRSS()
	if rss == nil || len(s.queues) == 1 {
		return -1 // no re-steering configured: stay on the receiving queue
	}
	q := rss(frame) % len(s.queues)
	if q < 0 {
		q = 0
	}
	return q
}

// makeMbuf allocates from queue q's pool and fills in the frame plus
// RX metadata, counting the packet (or the pool-exhaustion drop) on q.
func (s *sock) makeMbuf(q int, frame []byte, now libvig.Time) *Mbuf {
	qu := &s.queues[q]
	m := s.pools[q].Alloc()
	if m == nil {
		qu.stats.RxDropped++
		return nil
	}
	_ = m.SetFrame(frame) // length pre-checked against DataRoomSize
	m.Port = s.portID
	m.RxTime = now
	qu.stats.RxPackets++
	return m
}

// place routes one frame received on queue rq: frames RSS keeps on rq
// become mbufs immediately, and frames steered elsewhere park in the
// target queue's staging channel for its next RxBurst, waking that
// queue's worker if it is blocked in WaitRx. Returns the updated fill
// count of bufs.
func (s *sock) place(rq int, frame []byte, now libvig.Time, bufs []*Mbuf, n int) int {
	tq := s.steerOf(frame)
	if tq < 0 || tq == rq {
		if m := s.makeMbuf(rq, frame, now); m != nil {
			bufs[n] = m
			n++
		}
		return n
	}
	qu := &s.queues[rq]
	var sf *stagedFrame
	select {
	case sf = <-qu.free:
	default:
		sf = &stagedFrame{from: rq}
	}
	sf.n, sf.rxTime = copy(sf.buf[:], frame), now
	tqu := &s.queues[tq]
	select {
	case tqu.staging <- sf:
		if tqu.parked.CompareAndSwap(true, false) {
			one := uint64(1)
			_, _, _ = syscall.RawSyscall(syscall.SYS_WRITE, uintptr(tqu.wake), uintptr(unsafe.Pointer(&one)), 8)
		}
	default:
		qu.stats.RxDropped++ // staging full: charge the receiver
		qu.recycle(sf)
	}
	return n
}

// drainStaging moves re-steered frames parked for queue q into bufs.
func (s *sock) drainStaging(q int, bufs []*Mbuf) int {
	n := 0
	for n < len(bufs) {
		select {
		case sf := <-s.queues[q].staging:
			if m := s.makeMbuf(q, sf.buf[:sf.n], sf.rxTime); m != nil {
				bufs[n] = m
				n++
			}
			s.queues[sf.from].recycle(sf)
		default:
			return n
		}
	}
	return n
}

// RxBurst receives up to len(bufs) frames on queue q: parked
// re-steered frames first, then whatever the queue's descriptor says
// is ready. A datagram socket is its own readiness query (an empty one
// answers EAGAIN); a connection-oriented queue asks its epoll set
// without blocking, accepts one pending peer when the listener is
// readable (asking again, since a fresh connection usually arrives
// with frames behind it), and reads only the connections reported
// readable. A read of zero bytes is the peer's FIN; the connection is
// retired, and a reconnecting peer is accepted like any other.
func (s *sock) RxBurst(q int, bufs []*Mbuf) int {
	qu := &s.queues[q]
	qu.mu.Lock()
	defer qu.mu.Unlock()
	if s.closed.Load() {
		return 0
	}
	n := s.drainStaging(q, bufs)
	if qu.listen < 0 {
		n, _ = s.recvBatch(q, qu.fd, bufs, n)
		return n
	}
	for again := true; again && n < len(bufs); {
		again = false
		nev := epollReady(qu.fd, qu.events[:])
		qu.io.rxSyscalls.Add(1)
		for _, ev := range qu.events[:nev] {
			if n == len(bufs) {
				break // level-triggered: what is left is reported again
			}
			fd := int(ev.Fd)
			if fd == qu.listen {
				again = s.accept(qu) || again
				continue
			}
			var gone bool
			if n, gone = s.recvBatch(q, fd, bufs, n); gone {
				qu.retire(fd)
			}
		}
	}
	return n
}

// accept takes one pending connection off queue qu's listener into its
// epoll set, reporting whether it did.
func (s *sock) accept(qu *sockQueue) bool {
	fd, _, e := syscall.RawSyscall6(syscall.SYS_ACCEPT4, uintptr(qu.listen), 0, 0, syscall.SOCK_NONBLOCK, 0, 0)
	qu.io.rxSyscalls.Add(1)
	if e != 0 {
		return false // the peer gave up first, or the listener is closed
	}
	ev := syscall.EpollEvent{Events: syscall.EPOLLIN, Fd: int32(fd)}
	if err := syscall.EpollCtl(qu.fd, syscall.EPOLL_CTL_ADD, int(fd), &ev); err != nil {
		_ = syscall.Close(int(fd))
		return false
	}
	qu.conns = append(qu.conns, int(fd))
	return true
}

// recycle returns a staged frame this queue allocated to its free ring.
func (qu *sockQueue) recycle(sf *stagedFrame) {
	select {
	case qu.free <- sf:
	default: // cannot happen while the ring holds every frame the queue can stage
	}
}

// retire closes an accepted connection (which also leaves the epoll
// set) and forgets it.
func (qu *sockQueue) retire(fd int) {
	_ = syscall.Close(fd)
	for i, c := range qu.conns {
		if c == fd {
			qu.conns = append(qu.conns[:i], qu.conns[i+1:]...)
			return
		}
	}
}

// recvBatch reads frames from fd into bufs[n:] with recvmmsg until the
// socket is drained (a short count — no read is spent on learning
// EAGAIN) or the burst is full, returning the new fill count and
// whether fd is finished: a connection that read end-of-stream or a
// hard error. Oversize frames are dropped and counted, never truncated
// into a valid-looking prefix (the kernel flags them MSG_TRUNC); each
// frame kept gets its own clock stamp.
func (s *sock) recvBatch(q, fd int, bufs []*Mbuf, n int) (int, bool) {
	qu := &s.queues[q]
	v := qu.vec
	for n < len(bufs) {
		want := min(len(bufs)-n, mmsgBatch)
		r, _, e := syscall.RawSyscall6(syscall.SYS_RECVMMSG, uintptr(fd),
			uintptr(unsafe.Pointer(&v.rxHdrs[0])), uintptr(want), syscall.MSG_DONTWAIT, 0, 0)
		qu.io.rxSyscalls.Add(1)
		if e == syscall.EINTR {
			continue
		}
		if e != 0 {
			return n, !wouldBlock(e)
		}
		got, fin, frames := int(r), false, uint64(0)
		for i := 0; i < got; i++ {
			h := &v.rxHdrs[i]
			switch {
			case h.len == 0 && qu.listen >= 0:
				fin = true // every message after end-of-stream reads empty too
				continue
			case h.hdr.Flags&syscall.MSG_TRUNC != 0:
				qu.stats.RxDropped++
			default:
				n = s.place(q, v.rxBufs[i][:h.len], s.clock.Now(), bufs, n)
			}
			frames++
		}
		qu.io.rxFrames.Add(frames)
		if fin || got < want {
			return n, fin
		}
	}
	return n, false
}

// TxBurst sends up to len(bufs) frames on queue q with sendmmsg,
// freeing the mbufs the kernel took. A send that would block — the
// peer's buffers are full, real backpressure — rejects the tail back
// to the caller with every mbuf conserved, and so does a link that is
// down (no peer set, or nobody listening there: a NIC with no cable).
// A short count is not yet a verdict: the next call names the reason.
// A hard error consumes the one frame it was reported for as
// TxDropped; on a connection it also retires the descriptor, and the
// rest of the burst redials.
func (s *sock) TxBurst(q int, bufs []*Mbuf) int {
	qu := &s.queues[q]
	qu.mu.Lock()
	defer qu.mu.Unlock()
	v := qu.vec
	n := 0
send:
	for n < len(bufs) && !s.closed.Load() {
		if qu.tx < 0 && (s.dial == nil || !s.dial(qu)) {
			break
		}
		batch := bufs[n:min(len(bufs), n+mmsgBatch)]
		for i, m := range batch {
			v.txIovs[i].Base = unsafe.SliceData(m.Data)
			v.txIovs[i].SetLen(len(m.Data))
			v.txHdrs[i].hdr.Name, v.txHdrs[i].hdr.Namelen = s.peer, s.peerLen
		}
		r, _, e := syscall.RawSyscall6(sysSendmmsg, uintptr(qu.tx),
			uintptr(unsafe.Pointer(&v.txHdrs[0])), uintptr(len(batch)), syscall.MSG_DONTWAIT|syscall.MSG_NOSIGNAL, 0, 0)
		qu.io.txSyscalls.Add(1)
		switch {
		case e == 0:
			for _, m := range batch[:r] {
				_ = m.Pool().Free(m)
			}
			qu.stats.TxPackets += uint64(r)
			n += int(r)
		case e == syscall.EINTR:
		case wouldBlock(e):
			qu.io.txAgain.Add(1)
			break send // caller keeps bufs[n:]
		default:
			qu.stats.TxDropped++ // sent into a broken link: consumed, not delivered
			_ = bufs[n].Pool().Free(bufs[n])
			n++
			if s.dial != nil {
				_ = syscall.Close(qu.tx)
				qu.tx = -1
			}
		}
	}
	qu.stats.TxDropped += uint64(len(bufs) - n)
	return n
}

// Close shuts every descriptor; in-flight bursts end gracefully.
func (s *sock) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	for q := range s.queues {
		qu := &s.queues[q]
		qu.mu.Lock()
		fds := append([]int{qu.fd, qu.listen}, qu.conns...)
		if qu.tx != qu.fd { // a datagram queue transmits on the socket it receives on
			fds = append(fds, qu.tx)
		}
		for _, fd := range fds {
			if fd >= 0 {
				_ = syscall.Close(fd)
			}
		}
		qu.conns, qu.tx = nil, -1
		qu.mu.Unlock()
	}
	// Any burst that could still signal an eventfd held its queue's lock
	// when closed was set, and has now been waited out; later ones see
	// closed and return before they place anything.
	for q := range s.queues {
		if fd := s.queues[q].wake; fd >= 0 {
			_ = syscall.Close(fd)
		}
	}
	return nil
}

// park readies queue q for a blocking wait: it returns the queue's
// descriptor and eventfd (-1 if none), or reports that there is nothing
// to wait for — re-steered frames are already parked for the queue, or
// the transport is closed. The parked flag goes up before staging is
// read and place reads it after staging a frame, so a frame staged while
// the worker waits is either seen here or signalled; a signal missed
// anyway would only leave the frame to the wait's timeout.
func (s *sock) park(q int) (fd, wake int, ready bool) {
	qu := &s.queues[q]
	qu.parked.Store(true)
	return qu.fd, qu.wake, s.closed.Load() || len(qu.staging) > 0
}

// unpark ends queue q's wait, consuming the eventfd's signal when the
// wait saw one. A signal that lands after the wait has returned is
// consumed by the next wait, which it ends at once: one spare poll.
func (s *sock) unpark(q int, woken bool) {
	qu := &s.queues[q]
	qu.parked.Store(false)
	if woken {
		var n uint64
		_, _, _ = syscall.RawSyscall(syscall.SYS_READ, uintptr(qu.wake), uintptr(unsafe.Pointer(&n)), 8)
	}
}

// pollFd is struct pollfd, pollIn its POLLIN.
type pollFd struct {
	fd              int32
	events, revents int16
}

const pollIn = 0x1

// WaitRx blocks until queue q of one of ports has something to receive —
// frames, a peer waiting to be accepted, or a frame another queue
// re-steered to it — or d passes: one ppoll(2) over the queue's
// descriptors on every port named, so traffic on any of them ends the
// wait at once. It is how a wire-mode worker parks (nf.Config.IdleWait):
// one that found nothing names both of its ports, one that has just
// sent requests out of the external port names that port alone to wake
// for their replies. A port with nothing to poll, such as one on the
// in-memory transport, contributes nothing, and the call then only
// sleeps. A signal does not end the wait. At most two ports, a
// worker's pair, may be named.
func WaitRx(q int, d time.Duration, ports ...*Port) {
	var fds [2 * 2]pollFd // each port's descriptor and eventfd
	for i := range fds {
		fds[i] = pollFd{fd: -1, events: pollIn}
	}
	ready := false
	for i, p := range ports {
		if p.sock != nil {
			fd, wake, r := p.sock.park(q)
			fds[2*i].fd, fds[2*i+1].fd = int32(fd), int32(wake)
			ready = ready || r
		}
	}
	if !ready {
		// A signal — the Go runtime preempts a thread by one — cuts ppoll
		// short with EINTR; the wait then resumes for what is left of d.
		for end := time.Now().Add(d); d > 0; d = time.Until(end) {
			ts := syscall.NsecToTimespec(d.Nanoseconds())
			if _, _, e := syscall.Syscall6(syscall.SYS_PPOLL, uintptr(unsafe.Pointer(&fds[0])), uintptr(2*len(ports)),
				uintptr(unsafe.Pointer(&ts)), 0, 0, 0); e != syscall.EINTR {
				break
			}
		}
	}
	for i, p := range ports {
		if p.sock != nil {
			p.sock.unpark(q, fds[2*i+1].revents&pollIn != 0)
		}
	}
}

// Sleep blocks the calling thread for d at the kernel timer's
// resolution. time.Sleep will not do for the tens of microseconds a
// wire-mode worker moderates its wakes by: an otherwise idle process
// sleeps in the runtime's netpoller, whose timeout counts whole
// milliseconds.
func Sleep(d time.Duration) {
	ts := syscall.NsecToTimespec(d.Nanoseconds())
	_ = syscall.Nanosleep(&ts, nil) // an early return on a signal only shortens the gap
}

// epollReady asks epoll set epfd what is ready without blocking.
func epollReady(epfd int, events []syscall.EpollEvent) int {
	n, _, e := syscall.RawSyscall6(syscall.SYS_EPOLL_PWAIT, uintptr(epfd),
		uintptr(unsafe.Pointer(&events[0])), uintptr(len(events)), 0, 0, 0)
	if e != 0 {
		return 0
	}
	return int(n)
}

// setSndBuf applies the configured send buffer size to fd.
func setSndBuf(fd int, cfg *SocketConfig) error {
	if cfg.SndBuf > 0 {
		if err := syscall.SetsockoptInt(fd, syscall.SOL_SOCKET, syscall.SO_SNDBUF, cfg.SndBuf); err != nil {
			return fmt.Errorf("dpdk: SO_SNDBUF: %w", err)
		}
	}
	return nil
}

// wouldBlock reports the errnos that mean "retry later" rather than a
// failed send/receive.
func wouldBlock(e syscall.Errno) bool {
	return e == syscall.EAGAIN || e == syscall.EWOULDBLOCK || e == syscall.ENOBUFS
}

// parseUDPAddr resolves a numeric "host:port" into a sockaddr (no DNS:
// transports must not block on resolution; an empty host means
// loopback).
func parseUDPAddr(addr string) (*syscall.SockaddrInet4, error) {
	host, portStr, err := net.SplitHostPort(addr)
	if err != nil {
		return nil, fmt.Errorf("dpdk: udp address %q: %w", addr, err)
	}
	port, err := strconv.Atoi(portStr)
	if err != nil || port < 0 || port > 65535 {
		return nil, fmt.Errorf("dpdk: udp address %q: bad port", addr)
	}
	sa := &syscall.SockaddrInet4{Port: port}
	if host == "" {
		host = "127.0.0.1"
	}
	ip := net.ParseIP(host)
	if ip == nil {
		return nil, fmt.Errorf("dpdk: udp address %q: host must be a literal IP", addr)
	}
	v4 := ip.To4()
	if v4 == nil {
		return nil, fmt.Errorf("dpdk: udp address %q: IPv4 only", addr)
	}
	copy(sa.Addr[:], v4)
	return sa, nil
}
