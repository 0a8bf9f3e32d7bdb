package nf

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"vignat/internal/dpdk"
	"vignat/internal/fastpath"
	"vignat/internal/libvig"
	"vignat/internal/nf/telemetry"
)

// DefaultBurst is the RX/TX burst size, matching the C NFs' 32-packet
// DPDK bursts.
const DefaultBurst = 32

// DefaultFastPathEntries is the per-worker flow-cache size the
// harnesses that turn the cache on give Config.FastPath.
const DefaultFastPathEntries = 8192

// FastPathEnv and TelemetryEnv name the environment variables the
// engine once read to switch the flow cache and telemetry on. Nothing
// in this module reads them: Config is the engine's only switch. The
// benchmark harness still strips them from its environment by these
// names, so they stay until ROADMAP item 1(g) deletes them there.
const (
	FastPathEnv  = "VIGNAT_FASTPATH"
	TelemetryEnv = "VIGNAT_TELEMETRY"
)

// Config parameterizes a Pipeline.
type Config struct {
	// Internal and External are the two dpdk ports the NF bridges.
	// Both must expose at least Workers RX/TX queue pairs; the
	// pipeline installs the NF's steering function as each port's RSS
	// function, so the wire places every frame on the queue of the
	// worker owning its flow.
	Internal, External *dpdk.Port
	// Burst is the RX/TX burst size (default DefaultBurst).
	Burst int
	// Workers is the number of run-to-completion workers (default 1).
	// Worker w owns queue pair w on both ports and shards
	// {s : s mod Workers == w} end-to-end: rx_burst → steer →
	// ProcessBatch → tx batching, all on per-worker state, so no lock
	// or shared cache line sits on the packet path. Each worker may be
	// driven from its own goroutine via PollWorker; workers beyond the
	// shard count receive no traffic.
	Workers int
	// Clock, when set, lets idle polls advance NF expiry so state
	// drains without traffic. Workers expire only the shards they own,
	// preserving the one-goroutine-per-shard guarantee.
	Clock libvig.Clock
	// FastPath sizes the per-worker established-flow cache (entries
	// per worker): packets of flows the NF has already resolved skip
	// parse dispatch, ProcessPacket, and the libVig lookups, taking a
	// pre-resolved verdict plus rewrite template instead, with outputs
	// bit-identical to the slow path (hits replay the same state
	// mutations in the same order). Zero leaves the cache off; a
	// positive value enables it at that size and requires Clock — hits
	// rejuvenate state on the NF's timeline; a negative value is an
	// error. NFs that do not implement FastPather (or decline it) are
	// unaffected either way.
	FastPath int
	// Telemetry switches the per-worker histograms and the sampled
	// trace ring on. Disabled telemetry costs the hot path one nil
	// pointer check per burst; enabled, it costs a few clock reads on
	// one poll in TimingStride (≤3%, BENCH_telemetry).
	Telemetry bool
	// TimingStride is the poll-sampling period of the timing
	// histograms when telemetry is enabled: one poll in TimingStride
	// is fully timed, the rest pay a single counter increment (default
	// telemetry.TimingStride; must be a power of two). Lock-step
	// harnesses that assert on histogram counts set 1 to time every
	// poll.
	TimingStride int
	// IdleWait, when positive, switches the worker from busy-polling to
	// the wire's idle policy, chosen by what the poll just saw. A poll
	// that found nothing runs its expiry sweep and then blocks until the
	// worker's queue on either port is readable or IdleWait passes — one
	// wait over both descriptors (dpdk.WaitRx), so wire mode burns no
	// CPU between packets, the first packet after idle is served at
	// once, and expiry keeps the IdleWait cadence. A poll whose bursts
	// did not fill has drained both queues. If it sent frames out of the
	// external port, their replies are on the way: the worker waits for
	// them on that port alone, for at most moderationGap. Otherwise, or
	// if its last idle step was already such a wait, it sleeps
	// moderationGap and then reads without asking. A poll that filled a
	// burst polls again immediately. On the in-memory transport the wait
	// is a plain sleep, so lock-step harnesses leave IdleWait zero and
	// busy-poll like DPDK.
	IdleWait time.Duration
}

// moderationGap is how long a wire-mode worker idles after a poll that
// drained its queues without filling a burst: a NIC's rx-usecs. Waking
// for every packet costs more CPU than forwarding it, so the gap lets a
// few packets share one wake. A worker that has just sent requests out
// of the external port spends the gap waiting there for their replies,
// which end it on arrival instead of landing just after the worker went
// back to sleep; every other drained poll, and the one after such a
// wait, sleeps it. The value is measured, EXPERIMENTS.md "Reply-aware
// wake": on nat_wire at 50k packets/s, gaps of 50/75/100/125 µs read a
// p50 of 90/108/121/138 µs and 4182/3683/3360/3197 ns of daemon CPU per
// packet, against 180 µs and 3153 ns for the 50 µs sleep this policy
// replaced — 100 µs is the smallest gap whose CPU stays within 15% of
// that. (A sleep overshoots by tens of µs on that host, up to ~95: up to
// 50 µs of kernel timer slack plus the VM's wake latency. A wait that a
// frame ends does not overshoot.)
const moderationGap = 100 * time.Microsecond

// PipelineStats counts engine-level events.
type PipelineStats struct {
	Polls     uint64
	RxPackets uint64
	TxPackets uint64
	TxFreed   uint64 // forwarded but rejected by the TX queue
	Dropped   uint64 // NF verdict was Drop

	FastPathHits      uint64 // verdict taken from the flow cache
	FastPathMisses    uint64 // slow path taken (includes bypassed)
	FastPathBypassed  uint64 // slow path taken unexamined (cold-mode sampling)
	FastPathEvictions uint64 // cache entries displaced or reclaimed dead
}

// add accumulates other into s (per-worker → engine aggregation).
func (s *PipelineStats) add(other PipelineStats) {
	s.Polls += other.Polls
	s.RxPackets += other.RxPackets
	s.TxPackets += other.TxPackets
	s.TxFreed += other.TxFreed
	s.Dropped += other.Dropped
	s.FastPathHits += other.FastPathHits
	s.FastPathMisses += other.FastPathMisses
	s.FastPathBypassed += other.FastPathBypassed
	s.FastPathEvictions += other.FastPathEvictions
}

// Pipeline is the shared run-to-completion engine: each worker pulls RX
// bursts from its own queue pair on both ports, steers each frame to
// the shard owning its flow, runs batched NF processing, and assembles
// TX bursts with libvig.Batcher — the rx_burst → steer → process →
// tx_burst loop every NF previously hand-rolled, replicated per core
// the way a multi-queue DPDK deployment replicates its lcore loop.
//
// Mbuf ownership is conserved: every mbuf received in a poll is either
// handed to a TX queue or freed to its pool before the poll returns —
// including on error paths — the leak discipline Vigor's checker
// enforces.
type Pipeline struct {
	nf       NF
	sharder  Sharder
	intPort  *dpdk.Port
	extPort  *dpdk.Port
	burst    int
	clock    libvig.Clock
	shardNFs []NF
	// fastNFs[s] is shard s's NF as a FastPather, nil when the shard
	// does not participate in the flow cache (read-only after
	// construction). fastHits[s] is the same shard's hit handler,
	// pre-bound at construction so a cache hit costs one indirect call.
	fastNFs  []FastPather
	fastHits []FastHitFunc
	// publishers[s] is shard s's NF as a Publisher, nil when its
	// counters are not read through a Block.
	publishers []Publisher
	// fastEntries is the per-worker cache size; 0 disables the cache.
	fastEntries int
	// tel is the engine telemetry (nil when disabled — the hot path's
	// only per-worker cost then is a nil check). It is an atomic
	// pointer because a live worker-count change rebuilds the
	// per-worker blocks while scrapers keep reading.
	tel atomic.Pointer[telemetry.PipelineTel]
	// telEpoch anchors telemetry timestamps: boundaries are captured as
	// time.Since(telEpoch), a monotonic-only read — roughly half the
	// cost of time.Now(), which also reads the wall clock the
	// histograms never use.
	telEpoch time.Time
	// telMask samples the timing instrumentation: a poll is fully
	// timed when telTick&telMask == 0 (stride from Config.TimingStride,
	// default telemetry.TimingStride).
	telMask uint64
	// idleWait is the idle-poll parking budget (0 = busy-poll). wait and
	// sleep are how a worker spends it — dpdk.WaitRx over its queue on
	// the ports named and dpdk.Sleep, fields so a test can watch the
	// policy without a clock — and idle[w] counts worker w's uses of
	// each; it is sized to the ports, not the worker set, so a scrape can
	// read it across worker-count changes.
	idleWait time.Duration
	wait     func(w int, d time.Duration, ports ...*dpdk.Port)
	sleep    func(d time.Duration)
	idle     []idleCounters
	// waitOn is what the waits name: both ports, or waitOn[1:], the
	// external one alone (slices of it pass to wait without allocating).
	waitOn [2]*dpdk.Port
	// ownerLocal[s] is the owning worker's local slot for shard s
	// (read-only between worker changes, shared by all workers).
	ownerLocal []int
	workers    []*worker

	// Control plane (control.go): ctlMu serializes management verbs,
	// pause+inPoll implement the worker quiesce handshake, base folds
	// retired workers' counters across worker-count changes, and drv
	// holds the managed drive goroutines while Start()ed.
	ctlMu sync.Mutex
	pause atomic.Bool
	base  PipelineStats
	drv   *pipeDrivers
}

// idleCounters counts one worker's idle steps by kind: blocking waits
// after an empty poll, reply waits and moderated sleeps after a drained
// one.
type idleCounters struct{ waits, replyWaits, sleeps atomic.Uint64 }

// worker is one run-to-completion execution context: a queue pair
// index, the shards it owns, and all the scratch the packet path
// needs. Nothing in here is ever touched by another goroutine.
type worker struct {
	p  *Pipeline
	id int

	shards []int // global shard ids owned: {s : s mod W == id}

	// Preallocated per-poll scratch, indexed by local shard slot: the
	// packet path allocates nothing.
	rxBufs     []*dpdk.Mbuf
	pkts       [][]Pkt
	bufs       [][]*dpdk.Mbuf
	verd       [][]Verdict
	toInternal *libvig.Batcher[*dpdk.Mbuf]
	toExternal *libvig.Batcher[*dpdk.Mbuf]
	// outbound counts the frames the external port's TX queue took in
	// the last emit — a frame dropped, by the NF or by a full or downed
	// link, is no request — whose replies a wire-mode worker waits for.
	// replied says the worker's last idle step was such a wait.
	outbound int
	replied  bool

	// cache is the worker's private flow cache (nil when disabled);
	// meta holds the per-poll pre-processing extraction results,
	// parallel to pkts. offer queues the burst positions of misses the
	// doorkeeper admitted — the only packets the post-run offer pass
	// revisits (reset per shard burst).
	cache *fastpath.Table
	meta  [][]fastpath.Meta
	offer []int32
	// Cold-mode (adaptive bypass) state: coldStreak counts consecutive
	// all-miss bursts; once it reaches coldAfter the worker goes cold
	// and probes only one in coldSample packets (coldTick phases the
	// sampling) until a sampled hit or install re-warms it.
	cold       bool
	coldStreak int
	coldTick   uint64

	// tel is this worker's private telemetry block (nil when disabled);
	// sample is the trace ring's period (copied here so the packet
	// path never reads the pipeline's swappable telemetry pointer);
	// traceTick accumulates packets toward the next trace sample and
	// telTick counts polls toward the next fully-timed one (see
	// telemetry.TimingStride).
	tel       *telemetry.WorkerTel
	sample    uint64
	traceTick uint64
	telTick   uint64

	// inPoll is the worker's half of the control-plane quiesce
	// handshake: true exactly while a PollWorker call is inside the
	// packet path (see Pipeline.Apply in control.go).
	inPoll atomic.Bool

	stats PipelineStats
}

// singleShard adapts an unsharded NF to the Sharder interface: one
// shard owning everything.
type singleShard struct{ NF }

func (s singleShard) Shards() int              { return 1 }
func (s singleShard) ShardOf([]byte, bool) int { return 0 }
func (s singleShard) Shard(int) NF             { return s.NF }

// NewPipeline binds n to the ports in cfg and installs the NF's
// steering function as both ports' RSS function.
func NewPipeline(n NF, cfg Config) (*Pipeline, error) {
	if n == nil {
		return nil, errors.New("nf: nil NF")
	}
	if cfg.Internal == nil || cfg.External == nil {
		return nil, errors.New("nf: pipeline needs both ports")
	}
	burst := cfg.Burst
	if burst == 0 {
		burst = DefaultBurst
	}
	if burst < 0 {
		return nil, errors.New("nf: negative burst")
	}
	nWorkers := cfg.Workers
	if nWorkers == 0 {
		nWorkers = 1
	}
	if nWorkers < 0 {
		return nil, errors.New("nf: negative worker count")
	}
	if cfg.Internal.Queues() < nWorkers || cfg.External.Queues() < nWorkers {
		return nil, fmt.Errorf("nf: %d workers need %d queue pairs per port (internal has %d, external %d)",
			nWorkers, nWorkers, cfg.Internal.Queues(), cfg.External.Queues())
	}
	sharder, ok := n.(Sharder)
	if !ok {
		sharder = singleShard{n}
	}
	if ns := sharder.Shards(); ns < 1 {
		return nil, fmt.Errorf("nf: %s reports %d shards", n.Name(), ns)
	}
	if cfg.FastPath < 0 {
		return nil, errors.New("nf: negative flow-cache size")
	}
	if cfg.FastPath > 0 && cfg.Clock == nil {
		return nil, errors.New("nf: the fast path needs a clock")
	}
	p := &Pipeline{
		nf:          n,
		sharder:     sharder,
		intPort:     cfg.Internal,
		extPort:     cfg.External,
		burst:       burst,
		clock:       cfg.Clock,
		idleWait:    cfg.IdleWait,
		sleep:       dpdk.Sleep,
		fastEntries: cfg.FastPath,
	}
	p.wait = dpdk.WaitRx
	p.waitOn = [2]*dpdk.Port{p.intPort, p.extPort}
	if p.idleWait > 0 {
		p.idle = make([]idleCounters, min(p.intPort.Queues(), p.extPort.Queues()))
	}
	if cfg.Telemetry {
		p.tel.Store(telemetry.NewPipelineTel(nWorkers))
		p.telEpoch = time.Now()
		stride := cfg.TimingStride
		if stride == 0 {
			stride = telemetry.TimingStride
		}
		if stride < 1 || stride&(stride-1) != 0 {
			return nil, fmt.Errorf("nf: timing stride %d is not a power of two", stride)
		}
		p.telMask = uint64(stride - 1)
	}
	if err := p.rebuild(nWorkers); err != nil {
		return nil, err
	}
	p.installRSS()
	return p, nil
}

// rebuild derives the per-shard tables and constructs nWorkers fresh
// workers from the sharder's current shard count — the shared body of
// NewPipeline and the live worker-count change (control.go). The
// caller guarantees no worker is polling.
func (p *Pipeline) rebuild(nWorkers int) error {
	nShards := p.sharder.Shards()
	if nShards < 1 {
		return fmt.Errorf("nf: %s reports %d shards", p.nf.Name(), nShards)
	}
	p.shardNFs = make([]NF, nShards)
	p.fastNFs = make([]FastPather, nShards)
	p.fastHits = make([]FastHitFunc, nShards)
	p.publishers = make([]Publisher, nShards)
	p.ownerLocal = make([]int, nShards)
	p.workers = make([]*worker, nWorkers)
	fastEntries := p.fastEntries
	anyFast := false
	for s := 0; s < nShards; s++ {
		p.shardNFs[s] = p.sharder.Shard(s)
		p.publishers[s], _ = p.shardNFs[s].(Publisher)
		p.ownerLocal[s] = s / nWorkers // local slot within the owning worker
		if fastEntries > 0 {
			if fp, ok := p.shardNFs[s].(FastPather); ok && fp.FastPathEnabled() {
				p.fastNFs[s] = fp
				p.fastHits[s] = fp.FastHitFunc()
				anyFast = true
			}
		}
	}
	if !anyFast {
		fastEntries = 0 // no participating shard: no cache, no extraction cost
	}
	p.fastEntries = fastEntries
	burst := p.burst
	tel := p.tel.Load()
	for w := 0; w < nWorkers; w++ {
		wk := &worker{
			p:      p,
			id:     w,
			rxBufs: make([]*dpdk.Mbuf, burst),
		}
		if tel != nil {
			wk.tel = tel.Worker(w)
			wk.sample = tel.Sample
		}
		for s := w; s < nShards; s += nWorkers {
			wk.shards = append(wk.shards, s)
		}
		// Worst case both ports' bursts land in one shard.
		perShard := 2 * burst
		wk.pkts = make([][]Pkt, len(wk.shards))
		wk.bufs = make([][]*dpdk.Mbuf, len(wk.shards))
		wk.verd = make([][]Verdict, len(wk.shards))
		for li := range wk.shards {
			wk.pkts[li] = make([]Pkt, 0, perShard)
			wk.bufs[li] = make([]*dpdk.Mbuf, 0, perShard)
			wk.verd[li] = make([]Verdict, perShard)
		}
		if fastEntries > 0 {
			wk.cache = fastpath.NewTable(fastEntries)
			wk.meta = make([][]fastpath.Meta, len(wk.shards))
			for li := range wk.shards {
				wk.meta[li] = make([]fastpath.Meta, perShard)
			}
			wk.offer = make([]int32, 0, perShard)
		}
		var err error
		wk.toInternal, err = libvig.NewBatcher[*dpdk.Mbuf](burst, wk.txFlush(p.intPort, w, nil))
		if err != nil {
			return err
		}
		wk.toExternal, err = libvig.NewBatcher[*dpdk.Mbuf](burst, wk.txFlush(p.extPort, w, &wk.outbound))
		if err != nil {
			return err
		}
		p.workers[w] = wk
	}
	return nil
}

// installRSS (re)programs both ports' steering: a frame's queue is its
// owning worker's index, so worker w's queue pair carries exactly its
// shards' traffic. Counts are captured by value — an RSS function
// installed before a worker-count change stays internally consistent
// until the swap replaces it, exactly like a NIC indirection table.
func (p *Pipeline) installRSS() {
	sharder := p.sharder
	ns, nw := len(p.shardNFs), len(p.workers)
	p.intPort.SetRSS(func(frame []byte) int {
		return clampShard(sharder.ShardOf(frame, true), ns) % nw
	})
	p.extPort.SetRSS(func(frame []byte) int {
		return clampShard(sharder.ShardOf(frame, false), ns) % nw
	})
}

// clampShard maps a steering result outside [0, shards) onto shard 0
// (the frame will be dropped by whichever shard sees it; the clamp only
// keeps misbehaving steering functions memory-safe).
func clampShard(s, shards int) int {
	if s < 0 || s >= shards {
		return 0
	}
	return s
}

// txFlush builds the Batcher flush function for worker w's queue on
// one output port: burst the batch out, free whatever the TX queue
// rejects (DPDK semantics — the mbuf must go back to its pool either
// way). A failed free does not abandon the rest of the batch: every
// still-owned mbuf is freed before the first error is reported, so
// ownership is conserved even on the error path. taken, when not nil,
// also counts what the queue took.
func (wk *worker) txFlush(port *dpdk.Port, q int, taken *int) func([]*dpdk.Mbuf) error {
	return func(bufs []*dpdk.Mbuf) error {
		if wk.tel != nil && len(bufs) > 0 {
			wk.tel.TxDrain.Observe(uint64(len(bufs)))
		}
		sent := port.TxBurstQueue(q, bufs)
		wk.stats.TxPackets += uint64(sent)
		if taken != nil {
			*taken += sent
		}
		var firstErr error
		for _, m := range bufs[sent:] {
			wk.stats.TxFreed++
			if err := m.Pool().Free(m); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		return firstErr
	}
}

// NF returns the pipeline's network function.
func (p *Pipeline) NF() NF { return p.nf }

// Workers returns the number of run-to-completion workers.
func (p *Pipeline) Workers() int { return len(p.workers) }

// FastPathEntries returns the per-worker flow-cache size in force: 0
// when Config.FastPath left the cache off or no shard participates.
func (p *Pipeline) FastPathEntries() int { return p.fastEntries }

// Telemetry returns the engine's telemetry block, nil when disabled.
// Snapshots of it are safe concurrently with running workers. A live
// worker-count change replaces the block (the per-worker layout
// changes with it); long-lived scrapers should call Telemetry per
// scrape rather than cache the pointer.
func (p *Pipeline) Telemetry() *telemetry.PipelineTel { return p.tel.Load() }

// Stats returns a snapshot of the engine counters: the live workers'
// aggregated with the base retired by control-plane worker changes.
// It must not be called concurrently with active PollWorker calls
// (poll from the same goroutines, call after a join, or read it
// inside Apply — the control plane's status path does).
func (p *Pipeline) Stats() PipelineStats {
	s := p.base
	for _, wk := range p.workers {
		s.add(wk.stats)
	}
	return s
}

// WorkerStats returns worker w's own counters.
func (p *Pipeline) WorkerStats(w int) PipelineStats { return p.workers[w].stats }

// Poll runs one engine iteration on every worker in turn, returning
// the total number of packets pulled from the RX queues. It is the
// lock-step single-goroutine harness (examples, oracle checks); a
// parallel deployment gives each worker its own goroutine calling
// PollWorker. All workers poll even when one fails — conservation
// first — and the first error is returned.
func (p *Pipeline) Poll() (int, error) {
	total := 0
	var firstErr error
	for w := range p.workers {
		n, err := p.PollWorker(w)
		total += n
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return total, firstErr
}

// PollWorker runs one run-to-completion iteration of worker w: RX a
// burst from its queue on each port, steer to its shards, process, TX
// through its own batchers. It returns the number of packets pulled
// from the RX queues. On an idle poll (zero packets) it advances
// expiry on the worker's own shards if a clock was configured. With
// Config.IdleWait set it also decides, before returning, how the worker
// passes the time until its next poll (block, wait up to the moderation
// gap for replies or sleep it, or neither).
//
// Distinct workers may be polled from distinct goroutines
// concurrently; a single worker must not.
func (p *Pipeline) PollWorker(w int) (int, error) {
	wk := p.workers[w]
	// Control-plane handshake (Dekker-style, both sides sequentially
	// consistent): announce the poll, then re-check the pause flag. If
	// a management verb is applying, step back out and park — Apply
	// waits until every worker's announcement is clear, so the verb
	// never observes a worker mid-poll, and the atomics give the verb's
	// mutations a happens-before edge to the next poll.
	for {
		wk.inPoll.Store(true)
		if !p.pause.Load() {
			break
		}
		wk.inPoll.Store(false)
		p.awaitResume()
	}
	defer wk.inPoll.Store(false)
	wk.stats.Polls++
	// Telemetry times the whole non-empty poll (RX, steer, process,
	// emit); idle polls are not observed, so the histogram reflects
	// work, not parking. Boundaries are monotonic-only reads against
	// the pipeline's epoch (see telEpoch), and only one poll in
	// telemetry.TimingStride is timed at all — the others pay one
	// counter increment.
	var pollStart time.Duration
	timed := false
	if wk.tel != nil {
		wk.telTick++
		timed = wk.telTick&p.telMask == 0
		if timed {
			pollStart = time.Since(p.telEpoch)
		}
	}
	for li := range wk.pkts {
		wk.pkts[li] = wk.pkts[li][:0]
		wk.bufs[li] = wk.bufs[li][:0]
	}
	nInt := wk.rxSteer(p.intPort, true)
	nExt := wk.rxSteer(p.extPort, false)
	n := nInt + nExt
	if n == 0 {
		if p.clock != nil && len(wk.shards) > 0 {
			now := p.clock.Now()
			for _, s := range wk.shards {
				if p.shardNFs[s].Expire(now) > 0 {
					p.publish(s)
				}
			}
		}
		if p.idleWait > 0 {
			// Nothing anywhere: block until either port has traffic. The
			// worker holds no NF state while parked, so a control verb
			// need not wait the park out.
			wk.inPoll.Store(false)
			wk.replied = false
			p.idle[w].waits.Add(1)
			p.wait(w, p.idleWait, p.waitOn[:]...)
		}
		return 0, nil
	}
	wk.stats.RxPackets += uint64(n)

	var now libvig.Time
	if wk.cache != nil {
		now = p.clock.Now()
	}
	tel := wk.tel
	for li, s := range wk.shards {
		np := len(wk.pkts[li])
		if np == 0 {
			continue
		}
		// On a timed poll, telemetry times the whole shard burst with two
		// clock reads and attributes the amortized per-packet cost to the
		// fast-path histogram when the cache resolved every packet, the
		// slow-path one otherwise (mixed bursts count as slow: the slow
		// fragments dominate their wall time).
		var hitsBefore uint64
		var burstStart time.Duration
		if timed {
			hitsBefore = wk.stats.FastPathHits
			burstStart = time.Since(p.telEpoch)
		}
		if wk.cache != nil && p.fastNFs[s] != nil {
			wk.processShardFast(li, s, now)
		} else {
			p.shardNFs[s].ProcessBatch(wk.pkts[li], wk.verd[li])
			p.publish(s)
		}
		if timed {
			perPkt := uint64(time.Since(p.telEpoch)-burstStart) / uint64(np)
			pureHit := wk.stats.FastPathHits-hitsBefore == uint64(np)
			if pureHit {
				tel.FastPktNs.ObserveN(perPkt, uint64(np))
			} else {
				tel.SlowPktNs.ObserveN(perPkt, uint64(np))
			}
			wk.maybeTrace(li, s, np, perPkt, pureHit, now)
		}
	}
	err := wk.emit()
	if timed {
		tel.PollNs.Observe(uint64(time.Since(p.telEpoch) - pollStart))
	}
	if p.idleWait > 0 && nInt < p.burst && nExt < p.burst {
		// Neither burst filled, so both queues are drained: let the next
		// few packets gather instead of waking for each (see
		// moderationGap). Requests just sent out of the external port
		// will be answered there, so the worker waits for that instead of
		// a timer — but not twice running, or it would wake for every
		// reply. The next poll reads without waiting.
		wk.inPoll.Store(false)
		if wk.outbound > 0 && !wk.replied {
			wk.replied = true
			p.idle[w].replyWaits.Add(1)
			p.wait(w, moderationGap, p.waitOn[1:]...)
		} else {
			wk.replied = false
			p.idle[w].sleeps.Add(1)
			p.sleep(moderationGap)
		}
	}
	return n, err
}

// publish brings shard s's Block up to date when there are no
// flow-cache counters to add: after an uncached burst or an idle sweep.
func (p *Pipeline) publish(s int) {
	if pub := p.publishers[s]; pub != nil {
		pub.Publish(FlowCache{})
	}
}

// maybeTrace leaves one sampled trace record per Sample packets seen
// on timed polls (so the effective period is Sample×TimingStride
// processed packets): the final packet of the burst that crossed the
// threshold, with the burst's amortized per-packet cost and
// best-effort reason and chain-element labels. Called only with
// telemetry enabled.
func (wk *worker) maybeTrace(li, s, np int, perPkt uint64, pureHit bool, now libvig.Time) {
	sample := wk.sample
	wk.traceTick += uint64(np)
	if wk.traceTick < sample {
		return
	}
	wk.traceTick %= sample
	i := np - 1
	pkt := wk.pkts[li][i]
	rec := telemetry.Record{
		Now:          int64(now),
		Worker:       wk.id,
		FromInternal: pkt.FromInternal,
		Forwarded:    wk.verd[li][i] == Forward,
		Elem:         -1,
		PktNs:        perPkt,
		FastPath:     pureHit,
	}
	if m := fastpath.Extract(pkt.Frame); m.OK {
		id := m.FlowID()
		rec.Src, rec.Dst = id.SrcIP.String(), id.DstIP.String()
		rec.SrcPort, rec.DstPort = id.SrcPort, id.DstPort
		rec.Proto = uint8(id.Proto)
	}
	snf := wk.p.shardNFs[s]
	if lr, ok := snf.(interface{ LastReasonName() string }); ok {
		rec.Reason = lr.LastReasonName()
	}
	if !rec.Forwarded {
		if de, ok := snf.(interface{ LastDropElem() int }); ok {
			rec.Elem = de.LastDropElem()
		}
	}
	wk.tel.Trace.Push(rec)
}

// rxSteer pulls one burst from the worker's queue on port and
// distributes the mbufs to the worker's shards. Frames whose flow the
// worker does not own (possible only when the wire bypasses RSS) are
// processed on the worker's first shard rather than touching another
// worker's state: safety never depends on correct steering, only flow
// affinity does.
func (wk *worker) rxSteer(port *dpdk.Port, fromInternal bool) int {
	p := wk.p
	cnt := port.RxBurstQueue(wk.id, wk.rxBufs)
	if wk.tel != nil && cnt > 0 {
		wk.tel.BurstOccupancy.Observe(uint64(cnt))
	}
	for i := 0; i < cnt; i++ {
		m := wk.rxBufs[i]
		if len(wk.shards) == 0 {
			// A shardless worker can process nothing; conserve the mbuf.
			wk.stats.Dropped++
			_ = m.Pool().Free(m)
			continue
		}
		li := 0
		if len(wk.shards) > 1 {
			// With one owned shard every frame lands in slot 0; only
			// multi-shard workers pay the steering parse again.
			s := clampShard(p.sharder.ShardOf(m.Data, fromInternal), len(p.shardNFs))
			if s%len(p.workers) == wk.id {
				li = p.ownerLocal[s]
			}
		}
		// Field by field into the slot: a Pkt built whole on the stack
		// and copied in stalls on store forwarding, once a packet.
		k := len(wk.pkts[li])
		wk.pkts[li] = append(wk.pkts[li], Pkt{})
		wk.pkts[li][k].Frame, wk.pkts[li][k].FromInternal = m.Data, fromInternal
		wk.bufs[li] = append(wk.bufs[li], m)
	}
	return cnt
}

// emit walks the verdicts, freeing drops and batching forwards onto
// the opposite port's queue for this worker, then flushes both TX
// batchers. Errors do not abort the walk: every mbuf of the poll is
// still freed or handed to a TX queue (a Push error means the batch
// already flushed, and txFlush conserves its whole batch), and the
// first error is reported after conservation is complete. wk.outbound
// ends as the count the external port's queue took.
func (wk *worker) emit() error {
	var firstErr error
	wk.outbound = 0
	for li := range wk.shards {
		pkts := wk.pkts[li]
		bufs := wk.bufs[li]
		verd := wk.verd[li]
		for i := range pkts {
			m := bufs[i]
			if verd[i] != Forward {
				wk.stats.Dropped++
				if err := m.Pool().Free(m); err != nil && firstErr == nil {
					firstErr = err
				}
				continue
			}
			var b *libvig.Batcher[*dpdk.Mbuf]
			if pkts[i].FromInternal {
				b = wk.toExternal
			} else {
				b = wk.toInternal
			}
			if err := b.Push(m); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	if err := wk.toInternal.Flush(); err != nil && firstErr == nil {
		firstErr = err
	}
	if err := wk.toExternal.Flush(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}
