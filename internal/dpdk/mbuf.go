// Package dpdk simulates the slice of DPDK that VigNAT uses: preallocated
// mbuf pools, polled ports with RX/TX rings, and burst send/receive. The
// paper's NF runs a single-core poll loop — rx_burst, process, tx_burst —
// and this package reproduces that structure so the NF code reads exactly
// like its C counterpart. There is no real NIC underneath: the testbed
// package plays the role of the wire.
package dpdk

import (
	"errors"
	"sync/atomic"

	"vignat/internal/libvig"
)

// DataRoomSize is the per-mbuf buffer size, matching DPDK's default
// RTE_MBUF_DEFAULT_DATAROOM.
const DataRoomSize = 2048

// roomStride is the distance between two data rooms in a pool's slab:
// one cache line more than a room, so that the frames' headers, which
// start every room, do not all fall into the same few L1 sets the way
// 2 KB-aligned rooms would.
const roomStride = DataRoomSize + 64

// Mbuf is a message buffer: a preallocated frame buffer plus metadata.
// Mbufs are owned by exactly one party at a time (pool, wire, or NF);
// the ownership discipline is the one Vigor's leak checker enforces —
// the paper reports catching a real leak of exactly this resource.
//
// The Mbuf itself is only the header; its data room lives in its pool's
// slab (see Mempool), and Data is the header's one reference to it.
type Mbuf struct {
	// Data is the active frame. It always starts at the mbuf's data room
	// and has the room's capacity, DataRoomSize, so the room is
	// Data[:DataRoomSize]: change it with SetFrame or SetLen, which keep
	// both, never by assignment.
	Data []byte
	// RxTime is the wire timestamp at reception (the "hardware
	// timestamp" the paper's latency measurements rely on).
	RxTime libvig.Time
	// Port is the input port index, set at RX time.
	Port uint16

	allocated bool
	pool      *Mempool
}

// SetFrame copies frame into the mbuf's data room and points Data at it.
// Frames longer than the data room are rejected.
func (m *Mbuf) SetFrame(frame []byte) error {
	if len(frame) > DataRoomSize {
		return errors.New("dpdk: frame exceeds mbuf data room")
	}
	m.Data = m.Data[:copy(m.Room(), frame)]
	return nil
}

// Room exposes the raw data room so crafting can build frames in place.
// Its capacity is exactly DataRoomSize.
func (m *Mbuf) Room() []byte { return m.Data[:DataRoomSize] }

// Pool returns the mempool that owns this mbuf (rte_mbuf keeps the same
// back pointer), so any holder can return it without knowing which port
// allocated it.
func (m *Mbuf) Pool() *Mempool { return m.pool }

// SetLen points Data at the first n bytes of the room (after in-place
// crafting).
func (m *Mbuf) SetLen(n int) { m.Data = m.Data[:n] }

// Mempool is a preallocated pool of mbufs, the analogue of
// rte_mempool/rte_pktmbuf_pool. Allocation and free are O(1) and the pool
// never grows: when it is exhausted, RX drops packets, exactly like a real
// NIC running out of descriptors.
//
// Preallocated is not resident. The headers are one array, written at
// construction, and the free stack another: both hold pointers, so both
// live on the Go heap. The data rooms are one pointer-free byte slab
// from libvig.Make — outside the heap in any but a -race build, so the
// collector neither counts nor scans it and nothing ever clears it —
// that construction never writes, so the kernel backs a room with
// memory the first time a frame is copied into it. The free list is a
// LIFO stack, so a pool only ever hands out its top few rooms — as many
// as were once checked out at the same time (HighWater) — and only
// those are ever resident. A frame in a room is valid while its mbuf's
// pool is reachable, as every mbuf (through its pool field) keeps it.
//
// One goroutine allocates from a pool and frees to it at a time (the
// worker owning its queue); HighWater alone may be read from any.
type Mempool struct {
	free  []*Mbuf
	top   int
	total int
	// low is the lowest top has been, kept by the pool's writer;
	// highWater is total-low, published for readers when low falls.
	low       int
	highWater atomic.Int64
	mem       *libvig.Backing // the slab
}

// NewMempool preallocates n mbufs (see Mempool for what becomes
// resident when).
func NewMempool(n int) (*Mempool, error) {
	if n <= 0 {
		return nil, errors.New("dpdk: mempool size must be positive")
	}
	p := &Mempool{free: make([]*Mbuf, n), top: n, total: n, low: n, mem: new(libvig.Backing)}
	headers := make([]Mbuf, n)
	slab := libvig.Make[byte](p.mem, n*roomStride)
	for i := range headers {
		off := i * roomStride
		headers[i].Data = slab[off : off : off+DataRoomSize]
		headers[i].pool = p
		p.free[i] = &headers[i]
	}
	return p, nil
}

// Alloc takes an mbuf from the pool. It returns nil when the pool is
// exhausted; callers must treat that as packet loss, not as a fatal
// error.
func (p *Mempool) Alloc() *Mbuf {
	if p.top == 0 {
		return nil
	}
	p.top--
	if p.top < p.low {
		p.low = p.top
		p.highWater.Store(int64(p.total - p.top))
	}
	m := p.free[p.top]
	m.allocated = true
	m.Data = m.Data[:0]
	m.Port = 0
	m.RxTime = 0
	return m
}

// Free returns an mbuf to its pool. Double frees are reported as errors
// (the low-level property P2 forbids them) and leave the pool intact.
func (p *Mempool) Free(m *Mbuf) error {
	if m == nil {
		return errors.New("dpdk: free of nil mbuf")
	}
	if m.pool != p {
		return errors.New("dpdk: mbuf freed to foreign pool")
	}
	if !m.allocated {
		return errors.New("dpdk: double free of mbuf")
	}
	m.allocated = false
	p.free[p.top] = m
	p.top++
	return nil
}

// InUse returns the number of mbufs currently allocated; the NF's
// loop-end leak check asserts this matches the number of frames buffered
// in rings.
func (p *Mempool) InUse() int { return p.total - p.top }

// HighWater returns the most mbufs that have been checked out of the
// pool at once: the number of data rooms it has made resident. Unlike
// InUse it may be called from any goroutine while traffic flows.
func (p *Mempool) HighWater() int { return int(p.highWater.Load()) }

// Size returns the pool's capacity.
func (p *Mempool) Size() int { return p.total }
