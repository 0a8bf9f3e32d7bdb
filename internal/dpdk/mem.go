package dpdk

import (
	"errors"
	"fmt"
	"sync/atomic"

	"vignat/internal/libvig"
)

// memQueue is one in-memory RX/TX ring pair: the unit a
// run-to-completion worker owns. Each queue draws RX mbufs from its
// own mempool (DPDK's rte_eth_rx_queue_setup takes a mempool per queue
// for the same reason), so two workers polling distinct queues never
// touch a shared allocator — no lock sits anywhere on the packet path.
type memQueue struct {
	rx    *libvig.Ring[*Mbuf]
	tx    *libvig.Ring[*Mbuf]
	pool  *Mempool
	stats PortStats
}

// MemTransport is the in-memory backend: per-queue RX/TX rings with
// the tester playing the wire. The NF side sees RxBurst/TxBurst like
// any other transport; the wire side (DeliverRx/DrainTx, reached
// through Port) injects frames with explicit timestamps and carries
// transmitted ones away — the lock-step harness every oracle test and
// benchmark drives.
type MemTransport struct {
	portID uint16
	queues []memQueue
	// rss holds a func(frame []byte) int, atomically swappable so the
	// control plane can re-steer mid-run (a reshard reprograms RSS while
	// the wire side keeps delivering).
	rss atomic.Value
}

var _ Transport = (*MemTransport)(nil)

// NewMemTransport creates an in-memory transport with nQueues RX/TX
// ring pairs of the given depths. Mempools attach at Bind.
func NewMemTransport(nQueues, rxDepth, txDepth int) (*MemTransport, error) {
	if nQueues < 1 {
		return nil, errors.New("dpdk: transport needs at least one queue")
	}
	t := &MemTransport{queues: make([]memQueue, nQueues)}
	for q := 0; q < nQueues; q++ {
		rx, err := libvig.NewRing[*Mbuf](rxDepth)
		if err != nil {
			return nil, fmt.Errorf("dpdk: rx ring: %w", err)
		}
		tx, err := libvig.NewRing[*Mbuf](txDepth)
		if err != nil {
			return nil, fmt.Errorf("dpdk: tx ring: %w", err)
		}
		t.queues[q] = memQueue{rx: rx, tx: tx}
	}
	return t, nil
}

// Name identifies the backend.
func (t *MemTransport) Name() string { return "mem" }

// Queues returns the number of RX/TX ring pairs.
func (t *MemTransport) Queues() int { return len(t.queues) }

// Bind attaches the port identity and per-queue RX mempools.
func (t *MemTransport) Bind(portID uint16, pools []*Mempool) error {
	if len(pools) != len(t.queues) {
		return fmt.Errorf("dpdk: %d pools for %d queues", len(pools), len(t.queues))
	}
	t.portID = portID
	for q := range t.queues {
		if pools[q] == nil {
			return errors.New("dpdk: transport needs a mempool")
		}
		t.queues[q].pool = pools[q]
	}
	return nil
}

// SetRSS installs the wire-side steering function DeliverRx consults.
// Safe to call while the wire side delivers: the swap is atomic, and a
// delivery sees either the old or the new function in full.
func (t *MemTransport) SetRSS(fn func(frame []byte) int) { t.rss.Store(fn) }

// loadRSS returns the current steering function, nil when none is set.
func (t *MemTransport) loadRSS() func(frame []byte) int {
	v := t.rss.Load()
	if v == nil {
		return nil
	}
	return v.(func(frame []byte) int)
}

// QueueStats returns queue q's counters.
func (t *MemTransport) QueueStats(q int) PortStats { return t.queues[q].stats }

// Close is a no-op: the rings survive so parked mbufs stay drainable
// (the end-of-run accounting frees them through DrainTx).
func (t *MemTransport) Close() error { return nil }

// RxBurst receives up to len(bufs) packets from queue q. Ownership of
// returned mbufs transfers to the caller.
func (t *MemTransport) RxBurst(q int, bufs []*Mbuf) int {
	rx := t.queues[q].rx
	n := 0
	for n < len(bufs) && !rx.Empty() {
		m, _ := rx.PopFront()
		bufs[n] = m
		n++
	}
	return n
}

// TxBurst enqueues up to len(bufs) packets on queue q for the wire to
// drain, returning how many were accepted. Ownership of accepted mbufs
// transfers to the transport; rejected ones remain with the caller
// (DPDK semantics: the caller must free them or retry).
func (t *MemTransport) TxBurst(q int, bufs []*Mbuf) int {
	qu := &t.queues[q]
	n := 0
	for n < len(bufs) && !qu.tx.Full() {
		_ = qu.tx.PushBack(bufs[n])
		n++
	}
	qu.stats.TxPackets += uint64(n)
	qu.stats.TxDropped += uint64(len(bufs) - n)
	return n
}

// --- wire side (used by the tester; reached through Port) ---

// DeliverRx places a frame arriving from the wire at time now into the
// RX queue the RSS function steers it to (queue 0 when none is
// configured), allocating an mbuf from that queue's pool. It reports
// whether the frame was accepted; drops are counted like a NIC's
// imissed.
func (t *MemTransport) DeliverRx(frame []byte, now libvig.Time) bool {
	q := 0
	if rss := t.loadRSS(); rss != nil && len(t.queues) > 1 {
		q = rss(frame) % len(t.queues)
		if q < 0 {
			q = 0
		}
	}
	return t.DeliverRxQueue(q, frame, now)
}

// DeliverRxQueue places a frame directly on queue q, bypassing RSS
// (tests and per-worker wire drivers that pre-steer their traffic). A
// frame aimed at a queue the port does not have is rejected rather
// than crashing the wire: a NIC cannot be handed a descriptor for a
// ring that was never set up, and a misconfigured software driver must
// not take the port down with it.
func (t *MemTransport) DeliverRxQueue(q int, frame []byte, now libvig.Time) bool {
	if q < 0 || q >= len(t.queues) {
		return false
	}
	qu := &t.queues[q]
	if qu.rx.Full() {
		qu.stats.RxDropped++
		return false
	}
	m := qu.pool.Alloc()
	if m == nil {
		qu.stats.RxDropped++
		return false
	}
	if err := m.SetFrame(frame); err != nil {
		_ = qu.pool.Free(m)
		qu.stats.RxDropped++
		return false
	}
	m.Port = t.portID
	m.RxTime = now
	_ = qu.rx.PushBack(m)
	qu.stats.RxPackets++
	return true
}

// DrainTx removes up to len(bufs) transmitted frames from the TX
// queues (sweeping queue 0 upward) for the wire to carry. Ownership
// transfers to the caller (the tester frees them after copying the
// frame onto the wire). Lock-step harnesses use this to observe all of
// a port's output regardless of which queue it left on; concurrent
// per-worker drivers use DrainTxQueue instead.
func (t *MemTransport) DrainTx(bufs []*Mbuf) int {
	n := 0
	for q := range t.queues {
		if n == len(bufs) {
			break
		}
		n += t.DrainTxQueue(q, bufs[n:])
	}
	return n
}

// DrainTxQueue removes up to len(bufs) transmitted frames from queue
// q's TX ring.
func (t *MemTransport) DrainTxQueue(q int, bufs []*Mbuf) int {
	tx := t.queues[q].tx
	n := 0
	for n < len(bufs) && !tx.Empty() {
		m, _ := tx.PopFront()
		bufs[n] = m
		n++
	}
	return n
}

// RxQueueLen returns the total RX ring occupancy across queues (tests
// and backpressure modelling).
func (t *MemTransport) RxQueueLen() int {
	n := 0
	for q := range t.queues {
		n += t.queues[q].rx.Len()
	}
	return n
}

// TxQueueLen returns the total TX ring occupancy across queues.
func (t *MemTransport) TxQueueLen() int {
	n := 0
	for q := range t.queues {
		n += t.queues[q].tx.Len()
	}
	return n
}
