package dpdk

// Transport is the per-queue packet-I/O engine under a Port: the layer
// that owns framing, receive timestamping, per-queue statistics, and
// the mbuf conservation discipline, while Port keeps the stable DPDK
// API surface the NFs program against. The in-memory ring pair
// (MemTransport) is the first implementation — the shim the testbed
// drives — and the socket transports (UDPTransport, UnixTransport) are
// real wire backends carrying frames between processes.
//
// Ownership contract (identical to rte_eth semantics, and what the
// leak checker enforces):
//
//   - RxBurst fills bufs with mbufs allocated from the queue's bound
//     mempool; ownership of returned mbufs transfers to the caller.
//   - TxBurst returns how many leading mbufs the transport accepted;
//     ownership of accepted mbufs transfers to the transport (which
//     transmits and frees them, or parks them for a wire-side drain),
//     while rejected mbufs remain with the caller — a short write or
//     EAGAIN must never strand or double-free an mbuf.
//
// Concurrency contract: distinct queues may be used by distinct
// goroutines concurrently; a single queue is single-caller per
// direction. Bind happens before traffic; SetRSS may be called again
// while traffic flows (the steering swap is atomic — a live reshard
// re-programs RSS the way a NIC's indirection table is rewritten),
// and in-flight frames see either the old or the new function. Close
// may race with in-flight bursts: they return 0 / reject gracefully.
type Transport interface {
	// Name identifies the backend ("mem", "udp", "unix") in flags,
	// stats, and bench metadata.
	Name() string
	// Queues returns the number of RX/TX queue pairs.
	Queues() int
	// Bind attaches the transport to its port identity and per-queue RX
	// mempools (len == Queues()); called exactly once, by the Port
	// constructor, before any traffic.
	Bind(portID uint16, pools []*Mempool) error
	// SetRSS installs the software receive-side-scaling function:
	// received frames are steered to queue fn(frame) mod Queues(). A
	// nil fn restores the default (frames stay on the queue whose
	// socket/ring they arrived on; for the mem backend, queue 0).
	SetRSS(fn func(frame []byte) int)
	// RxBurst receives up to len(bufs) frames from queue q.
	RxBurst(q int, bufs []*Mbuf) int
	// TxBurst transmits up to len(bufs) frames on queue q.
	TxBurst(q int, bufs []*Mbuf) int
	// QueueStats returns queue q's counters.
	QueueStats(q int) PortStats
	// Close releases the backend's resources (sockets, files). The mem
	// backend's rings survive Close so parked mbufs stay drainable.
	Close() error
}
