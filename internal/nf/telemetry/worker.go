package telemetry

// TimingStride is the poll-sampling period of the timing histograms:
// one poll in TimingStride is fully instrumented (poll wall time plus
// per-burst fast/slow cost, four clock reads), the rest pay a single
// counter increment. Clock reads are the dominant telemetry cost —
// ~35ns each against polls that often carry only one 32-packet burst
// — so sampling them is what keeps the enabled engine inside its ≤3%
// budget. Histogram weights still carry real packet counts, and the
// count-based histograms (burst occupancy, TX drain) and all engine
// counters remain exact; only the timing distributions are sampled.
// Must be a power of two (the hot path masks, it does not divide).
const TimingStride = 8

// TraceSample is the trace ring's sampling period: one record per
// TraceSample packets seen on timed polls.
const TraceSample = 1024

// WorkerTel is one worker's private telemetry block: five histograms
// and the sampled trace ring, all single-writer (the worker that owns
// the queue pair). A worker never touches another worker's block, so
// the hot path has no sharing; scrapers merge at read time.
type WorkerTel struct {
	// PollNs is the wall time of one non-empty PollWorker call, timed
	// polls only (one in TimingStride).
	PollNs Hist
	// FastPktNs is the amortized per-packet cost (ns) of bursts fully
	// resolved by the established-flow cache; SlowPktNs covers every
	// other burst (full stateless-logic walk, cache misses, cold-mode
	// bypass). The split is the PR 6 fast path's first tail view.
	FastPktNs Hist
	SlowPktNs Hist
	// BurstOccupancy is the RX burst size distribution (packets per
	// non-empty RxBurst).
	BurstOccupancy Hist
	// TxDrain is the TX flush depth distribution (mbufs per non-empty
	// txFlush).
	TxDrain Hist
	// Trace is the sampled per-packet ring.
	Trace Ring
}

// PipelineTel is the engine-level telemetry: one WorkerTel per worker
// plus the sampling period. A nil *PipelineTel is the disabled state —
// the hot path checks the one pointer and does nothing else.
type PipelineTel struct {
	workers []*WorkerTel
	// Sample is the trace sampling period: every Sample-th packet
	// leaves a trace record. It is TraceSample outside tests.
	Sample uint64
}

// NewPipelineTel builds telemetry for nWorkers workers, tracing every
// TraceSample-th packet.
func NewPipelineTel(nWorkers int) *PipelineTel {
	t := &PipelineTel{workers: make([]*WorkerTel, nWorkers), Sample: TraceSample}
	for i := range t.workers {
		t.workers[i] = &WorkerTel{}
	}
	return t
}

// Worker returns worker w's block.
func (t *PipelineTel) Worker(w int) *WorkerTel { return t.workers[w] }

// Workers returns the worker count.
func (t *PipelineTel) Workers() int { return len(t.workers) }

// Snapshot is the merged scrape view.
type Snapshot struct {
	PollNs         HistSnapshot `json:"poll_ns"`
	FastPktNs      HistSnapshot `json:"fast_pkt_ns"`
	SlowPktNs      HistSnapshot `json:"slow_pkt_ns"`
	BurstOccupancy HistSnapshot `json:"burst_occupancy"`
	TxDrain        HistSnapshot `json:"tx_drain"`
}

// Snapshot merges every worker's histograms. Safe to call from any
// goroutine while workers run.
func (t *PipelineTel) Snapshot() Snapshot {
	var s Snapshot
	if t == nil {
		return s
	}
	for _, w := range t.workers {
		s.PollNs.Merge(w.PollNs.Snapshot())
		s.FastPktNs.Merge(w.FastPktNs.Snapshot())
		s.SlowPktNs.Merge(w.SlowPktNs.Snapshot())
		s.BurstOccupancy.Merge(w.BurstOccupancy.Snapshot())
		s.TxDrain.Merge(w.TxDrain.Snapshot())
	}
	return s
}

// TraceSnapshot returns all workers' buffered trace records, grouped
// by worker, oldest first within each.
func (t *PipelineTel) TraceSnapshot() []Record {
	if t == nil {
		return nil
	}
	var out []Record
	for _, w := range t.workers {
		out = append(out, w.Trace.Snapshot()...)
	}
	return out
}
