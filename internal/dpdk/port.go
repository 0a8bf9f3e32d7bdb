package dpdk

import (
	"errors"
	"fmt"

	"vignat/internal/libvig"
)

// Default queue depths, matching the RX/TX descriptor counts VigNAT
// configures.
const (
	DefaultRxQueue = 512
	DefaultTxQueue = 512
)

// PortStats counts a port's traffic, mirroring rte_eth_stats.
type PortStats struct {
	RxPackets uint64 // ipackets
	TxPackets uint64 // opackets
	RxDropped uint64 // imissed: RX queue full, mempool empty, oversize frame
	TxDropped uint64 // TX queue full / send failed
}

// add accumulates other into s (per-queue → per-port aggregation).
func (s *PortStats) add(other PortStats) {
	s.RxPackets += other.RxPackets
	s.TxPackets += other.TxPackets
	s.RxDropped += other.RxDropped
	s.TxDropped += other.TxDropped
}

// Port is a polled network port with one or more RX/TX queue pairs,
// RSS-style, layered over a pluggable Transport that owns the actual
// packet I/O. The NF side uses RxBurst/TxBurst (queue 0) or the
// queue-indexed variants against any backend; the wire side
// (DeliverRx/DrainTx) is the in-memory backend's harness surface —
// with a socket transport the kernel is the wire, and those methods
// report nothing to deliver or drain.
//
// Concurrency contract: distinct queues may be used by distinct
// goroutines concurrently — a queue's rings/sockets, mempool, and
// counters are touched only through that queue's methods. A single
// queue is single-producer single-consumer per direction, exactly like
// an rte_ring in its default mode. Stats() aggregates across queues
// and must not race with live traffic; call it from the wire/NF
// goroutine or after a join.
type Port struct {
	ID uint16
	tr Transport
	// mem caches the concrete in-memory transport so the hot RxBurst/
	// TxBurst path on the default backend is a direct call, not an
	// interface dispatch (the ≤3% in-memory regression budget), and so
	// the wire-side harness methods know whether a wire exists at all.
	mem   *MemTransport
	pools []*Mempool
}

// NewPort creates a single-queue in-memory port with the given queue
// depths, drawing RX mbufs from pool — the shape the paper's
// single-core NAT uses.
func NewPort(id uint16, rxDepth, txDepth int, pool *Mempool) (*Port, error) {
	if pool == nil {
		return nil, errors.New("dpdk: port needs a mempool")
	}
	return NewMultiQueuePort(id, 1, rxDepth, txDepth, []*Mempool{pool})
}

// NewMultiQueuePort creates an in-memory port with nQueues RX/TX queue
// pairs. pools supplies the per-queue RX mempools: either one pool per
// queue (len nQueues — required for concurrent per-queue use) or a
// single shared pool (len 1 — fine for lock-step single-threaded
// harnesses).
func NewMultiQueuePort(id uint16, nQueues, rxDepth, txDepth int, pools []*Mempool) (*Port, error) {
	tr, err := NewMemTransport(nQueues, rxDepth, txDepth)
	if err != nil {
		return nil, err
	}
	return NewPortOn(id, tr, pools)
}

// NewPortOn creates a port over an existing transport (mem, udp, unix,
// or anything else implementing Transport). pools supplies the
// per-queue RX mempools: one per queue, or a single shared pool for
// lock-step harnesses.
func NewPortOn(id uint16, tr Transport, pools []*Mempool) (*Port, error) {
	if tr == nil {
		return nil, errors.New("dpdk: port needs a transport")
	}
	nQueues := tr.Queues()
	if nQueues < 1 {
		return nil, errors.New("dpdk: port needs at least one queue")
	}
	if len(pools) != 1 && len(pools) != nQueues {
		return nil, fmt.Errorf("dpdk: %d pools for %d queues (want 1 shared or one per queue)", len(pools), nQueues)
	}
	expanded := make([]*Mempool, nQueues)
	for q := 0; q < nQueues; q++ {
		pool := pools[0]
		if len(pools) == nQueues {
			pool = pools[q]
		}
		if pool == nil {
			return nil, errors.New("dpdk: port needs a mempool")
		}
		expanded[q] = pool
	}
	if err := tr.Bind(id, expanded); err != nil {
		return nil, err
	}
	p := &Port{ID: id, tr: tr, pools: expanded}
	p.mem, _ = tr.(*MemTransport)
	return p, nil
}

// Transport returns the backend carrying this port's traffic.
func (p *Port) Transport() Transport { return p.tr }

// Queues returns the number of RX/TX queue pairs.
func (p *Port) Queues() int { return len(p.pools) }

// Pool returns the mempool backing a single-queue port's RX path. On a
// multi-queue port there is no "the" pool — each queue has its own
// allocator precisely so workers never share one — and silently
// returning queue 0's pool has bitten callers that then accounted or
// freed against the wrong allocator. It panics there; use
// QueuePool(q).
func (p *Port) Pool() *Mempool {
	if len(p.pools) > 1 {
		panic(fmt.Sprintf("dpdk: Pool() on a %d-queue port is ambiguous; use QueuePool(q)", len(p.pools)))
	}
	return p.pools[0]
}

// QueuePool returns the mempool backing queue q's RX path.
func (p *Port) QueuePool(q int) *Mempool { return p.pools[q] }

// SetRSS installs the receive-side steering function: received frames
// are placed on queue fn(frame) mod Queues(). A nil fn restores the
// default. This is the software analogue of programming the NIC's RSS
// hash/indirection table; nf.Pipeline installs the sharded NF's own
// steering function here so the wire and the workers agree on flow
// placement. On the in-memory backend steering happens at DeliverRx;
// socket backends re-steer frames between queues after the kernel
// hands them over (software RSS on the RX side).
func (p *Port) SetRSS(fn func(frame []byte) int) { p.tr.SetRSS(fn) }

// Stats returns the port counters aggregated across queues.
func (p *Port) Stats() PortStats {
	var s PortStats
	for q := range p.pools {
		s.add(p.tr.QueueStats(q))
	}
	return s
}

// QueueStats returns queue q's counters.
func (p *Port) QueueStats(q int) PortStats { return p.tr.QueueStats(q) }

// Close releases the backend's resources (sockets, files). Safe on the
// in-memory backend (a no-op: rings stay drainable).
func (p *Port) Close() error { return p.tr.Close() }

// WireStats returns queue q's syscall counters, all zero on a transport
// that makes no syscalls (the in-memory one). Unlike QueueStats it may
// be called while traffic flows.
func (p *Port) WireStats(q int) WireStats {
	if w, ok := p.tr.(interface{ WireStats(q int) WireStats }); ok {
		return w.WireStats(q)
	}
	return WireStats{}
}

// rxFD returns the descriptor WaitRx polls for queue q (-1: the
// transport has none) and whether the queue has frames already.
func (p *Port) rxFD(q int) (fd int, ready bool) {
	if s, ok := p.tr.(interface{ rxFD(q int) (int, bool) }); ok {
		return s.rxFD(q)
	}
	return -1, false
}

// --- NF side (the DPDK API surface VigNAT uses) ---

// RxBurst receives up to len(bufs) packets from queue 0 into bufs,
// returning the count. Ownership of returned mbufs transfers to the
// caller, which must either TxBurst them or Free them — the leak check
// depends on it.
func (p *Port) RxBurst(bufs []*Mbuf) int { return p.RxBurstQueue(0, bufs) }

// RxBurstQueue receives up to len(bufs) packets from queue q.
func (p *Port) RxBurstQueue(q int, bufs []*Mbuf) int {
	if p.mem != nil {
		return p.mem.RxBurst(q, bufs)
	}
	return p.tr.RxBurst(q, bufs)
}

// TxBurst enqueues up to len(bufs) packets on queue 0 for
// transmission, returning how many were accepted. Ownership of
// accepted mbufs transfers to the transport; rejected ones remain with
// the caller (DPDK semantics: the caller must free them or retry).
func (p *Port) TxBurst(bufs []*Mbuf) int { return p.TxBurstQueue(0, bufs) }

// TxBurstQueue enqueues up to len(bufs) packets on queue q.
func (p *Port) TxBurstQueue(q int, bufs []*Mbuf) int {
	if p.mem != nil {
		return p.mem.TxBurst(q, bufs)
	}
	return p.tr.TxBurst(q, bufs)
}

// --- wire side (the in-memory backend's harness surface) ---

// DeliverRx places a frame arriving from the wire at time now into the
// RX queue the RSS function steers it to. Only the in-memory backend
// has a software wire; on socket backends the kernel delivers, and
// DeliverRx reports false.
func (p *Port) DeliverRx(frame []byte, now libvig.Time) bool {
	if p.mem == nil {
		return false
	}
	return p.mem.DeliverRx(frame, now)
}

// DeliverRxQueue places a frame directly on queue q, bypassing RSS
// (tests and per-worker wire drivers that pre-steer their traffic).
func (p *Port) DeliverRxQueue(q int, frame []byte, now libvig.Time) bool {
	if p.mem == nil {
		return false
	}
	return p.mem.DeliverRxQueue(q, frame, now)
}

// DrainTx removes up to len(bufs) transmitted frames from the TX
// queues (sweeping queue 0 upward) for the wire to carry; in-memory
// backend only (socket backends transmit and free at TxBurst).
func (p *Port) DrainTx(bufs []*Mbuf) int {
	if p.mem == nil {
		return 0
	}
	return p.mem.DrainTx(bufs)
}

// DrainTxQueue removes up to len(bufs) transmitted frames from queue
// q's TX ring; in-memory backend only.
func (p *Port) DrainTxQueue(q int, bufs []*Mbuf) int {
	if p.mem == nil {
		return 0
	}
	return p.mem.DrainTxQueue(q, bufs)
}

// RxQueueLen returns the total RX buffering across queues (tests and
// end-of-run mbuf accounting). Socket backends hold no mbufs at rest:
// frames buffer in the kernel until RxBurst allocates for them.
func (p *Port) RxQueueLen() int {
	if p.mem == nil {
		return 0
	}
	return p.mem.RxQueueLen()
}

// TxQueueLen returns the total TX buffering across queues.
func (p *Port) TxQueueLen() int {
	if p.mem == nil {
		return 0
	}
	return p.mem.TxQueueLen()
}
