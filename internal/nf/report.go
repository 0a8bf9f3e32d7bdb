package nf

import (
	"fmt"
	"io"

	"vignat/internal/dpdk"
)

// FprintEngineReport writes the daemon's end-of-run engine summary: the
// pipeline's counters next to the NF's concurrency-safe snapshot, then
// every RX queue's mempool high-water mark against its size
// (port.queue=high_water/size): the data rooms the run made resident. An
// NF with flow tables adds each shard's high-water mark against its
// capacity (s<shard>=high_water/capacity, a chain's prefixed by its
// element: <elem>.s<shard>=…): the table records the run made resident.
func FprintEngineReport(w io.Writer, ps PipelineStats, snap Stats, pools []MempoolFill, tables []TableFill) {
	fmt.Fprintf(w, "  engine: polls=%d rx=%d tx=%d tx_freed=%d | NF snapshot: fwd=%d drop=%d expired=%d\n",
		ps.Polls, ps.RxPackets, ps.TxPackets, ps.TxFreed, snap.Forwarded, snap.Dropped, snap.Expired)
	fmt.Fprint(w, "  mempool high water:")
	for _, f := range pools {
		fmt.Fprintf(w, " %s.q%d=%d/%d", f.Port, f.Queue, f.HighWater, f.Size)
	}
	fmt.Fprintln(w)
	if len(tables) > 0 {
		fmt.Fprint(w, "  flow table high water:")
		for _, t := range tables {
			elem := ""
			if t.Elem != "" {
				elem = t.Elem + "."
			}
			fmt.Fprintf(w, " %ss%d=%d/%d", elem, t.Shard, t.HighWater, t.Capacity)
		}
		fmt.Fprintln(w)
	}
}

// TableFill is one shard's flow table: its capacity, and how many of its
// indices have ever been handed out — only their records are resident
// (libvig.DChain.HighWater).
type TableFill struct {
	// Elem names the chain element that keeps the table; it is empty
	// for an NF that is not a chain.
	Elem      string `json:"elem,omitempty"`
	Shard     int    `json:"shard"`
	Capacity  int    `json:"capacity"`
	HighWater int    `json:"high_water"`
}

// TableFiller is implemented by NFs whose shards keep flow tables
// (nfkit.Sharded), and by a Chain of any such. FlowTables may be called
// while the workers run.
type TableFiller interface {
	FlowTables() []TableFill
}

// FlowTablesOf returns n's flow-table fills, nil unless n is a
// TableFiller.
func FlowTablesOf(n NF) []TableFill {
	if f, ok := n.(TableFiller); ok {
		return f.FlowTables()
	}
	return nil
}

// MempoolFill is one RX queue's mempool: its size, and the most mbufs
// it has had checked out at once — the number of its data rooms that
// are resident (dpdk.Mempool.HighWater).
type MempoolFill struct {
	Port      string `json:"port"`
	Queue     int    `json:"queue"`
	Size      int    `json:"size"`
	HighWater int    `json:"high_water"`
}

// Mempools returns the fill of every RX queue's mempool, the internal
// port's queues first. Sizes never change and high-water marks are read
// atomically, so unlike Stats it may be called while the workers run.
func (p *Pipeline) Mempools() []MempoolFill {
	var out []MempoolFill
	for _, side := range []struct {
		name string
		port *dpdk.Port
	}{{"internal", p.intPort}, {"external", p.extPort}} {
		for q := 0; q < side.port.Queues(); q++ {
			pool := side.port.QueuePool(q)
			out = append(out, MempoolFill{Port: side.name, Queue: q, Size: pool.Size(), HighWater: pool.HighWater()})
		}
	}
	return out
}

// WireQueue is what one worker's queue pair did on the wire: how often
// the worker blocked waiting for traffic, waited on the external port
// for the replies to what it had just sent, or slept the moderation gap
// — the three partition its idle steps — and the syscalls its queue on
// each port made for the frames it moved.
type WireQueue struct {
	Queue      int            `json:"queue"`
	Waits      uint64         `json:"waits"`
	ReplyWaits uint64         `json:"reply_waits"`
	Sleeps     uint64         `json:"sleeps"`
	Internal   dpdk.WireStats `json:"internal"`
	External   dpdk.WireStats `json:"external"`
}

// Wire returns the wire counters of every queue pair the ports
// provision, nil unless Config.IdleWait put the pipeline in wire mode.
// Every cell has one writer and is read atomically, so unlike Stats it
// may be called while the workers run.
func (p *Pipeline) Wire() []WireQueue {
	if p.idle == nil {
		return nil
	}
	out := make([]WireQueue, len(p.idle))
	for q := range out {
		out[q] = WireQueue{
			Queue:      q,
			Waits:      p.idle[q].waits.Load(),
			ReplyWaits: p.idle[q].replyWaits.Load(),
			Sleeps:     p.idle[q].sleeps.Load(),
			Internal:   p.intPort.WireStats(q),
			External:   p.extPort.WireStats(q),
		}
	}
	return out
}

// FprintWireReport writes one line per queue pair after the engine
// report: wakes (waits + reply_waits + sleeps) against frames says how
// many packets shared one wake, frames against syscalls how many shared
// one recvmmsg or sendmmsg.
func FprintWireReport(w io.Writer, queues []WireQueue) {
	for _, q := range queues {
		fmt.Fprintf(w, "  wire q%d: waits=%d reply_waits=%d sleeps=%d", q.Queue, q.Waits, q.ReplyWaits, q.Sleeps)
		for _, side := range []struct {
			name string
			s    dpdk.WireStats
		}{{"internal", q.Internal}, {"external", q.External}} {
			fmt.Fprintf(w, " | %s: rx_syscalls=%d rx_frames=%d tx_syscalls=%d tx_eagain=%d",
				side.name, side.s.RxSyscalls, side.s.RxFrames, side.s.TxSyscalls, side.s.TxAgain)
		}
		fmt.Fprintln(w)
	}
}

// NewWorkerPorts builds the in-memory multi-queue port arrangement: one
// RX/TX queue pair per worker, each with its own mempool of poolSize
// mbufs (concurrent workers never share an allocator, as DPDK's
// per-queue rx mempools arrange). It returns the port and its pools, the
// latter for end-of-run MbufAccounting.
func NewWorkerPorts(id uint16, workers, poolSize int) (*dpdk.Port, []*dpdk.Mempool, error) {
	pools := make([]*dpdk.Mempool, workers)
	for q := range pools {
		p, err := dpdk.NewMempool(poolSize)
		if err != nil {
			return nil, nil, err
		}
		pools[q] = p
	}
	port, err := dpdk.NewMultiQueuePort(id, workers, dpdk.DefaultRxQueue, dpdk.DefaultTxQueue, pools)
	if err != nil {
		return nil, nil, err
	}
	return port, pools, nil
}

// MbufAccounting checks the conservation invariant every run must end
// with: the mbufs still checked out of the pools are exactly the ones
// sitting in still-undrained queues (want), anything else is a leak.
func MbufAccounting(want int, pools ...*dpdk.Mempool) error {
	inUse := 0
	for _, p := range pools {
		inUse += p.InUse()
	}
	if inUse != want {
		return fmt.Errorf("mbuf leak detected: %d in use, %d accounted for", inUse, want)
	}
	return nil
}
