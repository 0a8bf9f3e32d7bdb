package nf

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"vignat/internal/dpdk"
	"vignat/internal/nf/telemetry"
)

// This file is the pipeline's control plane: the quiesce handshake
// that lets management verbs mutate NF state while traffic flows, the
// managed per-worker drive goroutines, and the live worker-count
// change — the engine half of the hitless reshard (the NF half is the
// shard codec, nfkit.Sharded.Reshard).
//
// The design constraint throughout is that workers never take a lock
// on the packet path: a verb quiesces them with two sequentially
// consistent atomics (pause on the pipeline, inPoll per worker), runs
// between polls, and releases them — the same run-to-completion
// discipline DPDK control planes use, where reconfiguration happens
// at poll boundaries rather than under mutual exclusion.

// Resharder is implemented by NFs whose shard count can change live:
// Reshard(n) rebuilds the composition at n shards, migrating every
// state record to the shard owning it under the new partitioning.
// nfkit.Sharded derives the implementation from the declared record
// families; the pipeline's SetWorkers drives it.
type Resharder interface {
	Reshard(n int) error
}

// Apply runs fn with every worker quiesced at a poll boundary, then
// resumes them — the way control verbs (backend drain, rate resize)
// mutate NF state while traffic flows. The handshake is Dekker-style:
// Apply raises pause and waits for every worker's inPoll announcement
// to clear; a worker entering PollWorker announces first and checks
// pause second, so at most one side ever proceeds. Workers park
// spinning (yield, then microsleeps), which bounds the verb's traffic
// disturbance to the tail of the in-flight polls.
//
// Verbs are serialized: concurrent Apply calls queue on the control
// mutex. fn must not call back into Apply or poll the pipeline.
func (p *Pipeline) Apply(fn func() error) error {
	p.ctlMu.Lock()
	defer p.ctlMu.Unlock()
	return p.applyLocked(fn)
}

// applyLocked is Apply under an already-held control mutex.
func (p *Pipeline) applyLocked(fn func() error) error {
	p.pause.Store(true)
	defer p.pause.Store(false)
	for _, wk := range p.workers {
		for wk.inPoll.Load() {
			runtime.Gosched()
		}
	}
	return fn()
}

// awaitResume parks a poller while a control verb applies.
func (p *Pipeline) awaitResume() {
	for spins := 0; p.pause.Load(); spins++ {
		if spins < 64 {
			runtime.Gosched()
		} else {
			time.Sleep(10 * time.Microsecond)
		}
	}
}

// pipeDrivers is the managed drive state: one goroutine per worker
// looping PollWorker until stopped.
type pipeDrivers struct {
	stop    chan struct{}
	wg      sync.WaitGroup
	errOnce sync.Once
	err     error
}

// yieldEvery is how many polls a drive goroutine runs between yields.
// A wire-mode worker sleeps in syscalls and never blocks in the Go
// scheduler, so to the runtime it is one goroutine hogging its P: after
// 10 ms sysmon wants it preempted, cannot preempt a P that is inside a
// syscall, and instead retakes that P at every tick it finds it there —
// which keeps sysmon ticking at 20 µs and sends the worker back from
// every sleep through the scheduler's slow path. At the thousands of
// sleeps a second the moderated wire makes, that was a third of the
// daemon's CPU (EXPERIMENTS.md "Wire path": 1783 → 1215 ms per 5 s).
// A yield is a pass through the scheduler, which clears the mark; 16
// polls are 1–2 ms under load, and yielding four times less often
// measured the same.
const yieldEvery = 16

// Start spawns one drive goroutine per worker, each looping PollWorker
// on its own queue pair — the deployment mode wire binaries use, and
// the one that makes SetWorkers fully self-service (the pipeline owns
// the pollers, so it can stop them around the worker swap). Errors a
// poll returns are retained and reported by Stop. Idle parking follows
// Config.IdleWait exactly as when the caller drives the polls.
func (p *Pipeline) Start() error {
	p.ctlMu.Lock()
	defer p.ctlMu.Unlock()
	if p.drv != nil {
		return errors.New("nf: pipeline already started")
	}
	p.startDriversLocked()
	return nil
}

func (p *Pipeline) startDriversLocked() {
	d := &pipeDrivers{stop: make(chan struct{})}
	p.drv = d
	for w := range p.workers {
		d.wg.Add(1)
		go func(w int) {
			defer d.wg.Done()
			for polls := 1; ; polls++ {
				select {
				case <-d.stop:
					return
				default:
				}
				if polls%yieldEvery == 0 {
					runtime.Gosched()
				}
				if _, err := p.PollWorker(w); err != nil {
					d.errOnce.Do(func() { d.err = err })
				}
			}
		}(w)
	}
}

// Stop joins the drive goroutines started by Start, returning the
// first error any poll reported. Stopping an unstarted pipeline is a
// no-op. After Stop the caller may poll manually or Start again.
func (p *Pipeline) Stop() error {
	p.ctlMu.Lock()
	defer p.ctlMu.Unlock()
	return p.stopDriversLocked()
}

func (p *Pipeline) stopDriversLocked() error {
	d := p.drv
	if d == nil {
		return nil
	}
	close(d.stop)
	d.wg.Wait()
	p.drv = nil
	return d.err
}

// Running reports whether the pipeline's own drive goroutines are up.
func (p *Pipeline) Running() bool {
	p.ctlMu.Lock()
	defer p.ctlMu.Unlock()
	return p.drv != nil
}

// SetWorkers changes the pipeline to n run-to-completion workers,
// migrating the NF's shard state so established sessions survive —
// the hitless reshard. The protocol is quiesce–copy–switch:
//
//  1. stop the managed drivers (when running), so no worker polls;
//  2. sweep every RX queue of both ports through the OLD composition
//     (frames already steered under the old partitioning are settled
//     by the state that owns them);
//  3. reshard the NF through its codec, its published counters with
//     it (hitless-or-refused: a refusal leaves everything as it was);
//  4. rebuild workers, caches, and telemetry for n queues, fold the
//     old workers' engine counters into the pipeline base so Stats
//     stays continuous, and re-program both ports' RSS — only after
//     the destination shards own the state, so no frame ever lands on
//     a worker whose shard cannot resolve it;
//  5. sweep again through the NEW composition: frames the wire
//     delivered mid-change sit wherever the old steering put them
//     (possibly on queues no worker owns after a shrink) and are
//     settled now;
//  6. restart the drivers.
//
// The NF must implement Resharder and both ports must expose at least
// n queue pairs. SetWorkers may be called while the pipeline's own
// drivers run, or when nothing is polling (lock-step harnesses between
// Polls); externally driven worker goroutines must be joined first —
// the worker set they index is replaced wholesale.
func (p *Pipeline) SetWorkers(n int) error {
	p.ctlMu.Lock()
	defer p.ctlMu.Unlock()
	if n < 1 {
		return errors.New("nf: worker count must be at least 1")
	}
	if n == len(p.workers) {
		return nil
	}
	rs, ok := p.nf.(Resharder)
	if !ok {
		return fmt.Errorf("nf: %s cannot reshard live", p.nf.Name())
	}
	if p.intPort.Queues() < n || p.extPort.Queues() < n {
		return fmt.Errorf("nf: %d workers need %d queue pairs per port (internal has %d, external %d)",
			n, n, p.intPort.Queues(), p.extPort.Queues())
	}
	wasRunning := p.drv != nil
	var firstErr error
	if wasRunning {
		firstErr = p.stopDriversLocked()
	}
	// Raise pause for the duration: any straggling external poller
	// parks instead of racing the swap (managed mode has none left).
	err := p.applyLocked(func() error { return p.reshardLocked(rs, n) })
	if err != nil && firstErr == nil {
		firstErr = err
	}
	if wasRunning {
		p.startDriversLocked()
	}
	return firstErr
}

// reshardLocked is the copy-switch core of SetWorkers, run with the
// control mutex held and every worker quiesced.
func (p *Pipeline) reshardLocked(rs Resharder, n int) error {
	// Settle in-flight frames through the old composition first, so
	// the snapshot the codec takes is of a quiescent NF.
	if err := p.sweepQueues(); err != nil {
		return err
	}
	if err := rs.Reshard(n); err != nil {
		return err
	}

	// Retire the old workers' engine counters, then rebuild the worker
	// set (per-shard tables, flow caches, batchers, telemetry blocks)
	// for the new count.
	for _, wk := range p.workers {
		p.base.add(wk.stats)
	}
	if p.tel.Load() != nil {
		p.tel.Store(telemetry.NewPipelineTel(n))
	}
	if err := p.rebuild(n); err != nil {
		return err
	}
	// Only now that the destination shards own the migrated state does
	// the wire steering change.
	p.installRSS()
	// Frames delivered while the swap ran sit wherever the old
	// steering put them; settle them through the new composition.
	return p.sweepQueues()
}

// sweptFrame is one frame pulled out of a queue by sweepQueues.
type sweptFrame struct {
	m            *dpdk.Mbuf
	fromInternal bool
}

// sweepMax bounds how many frames one sweep drains per queue, so a
// wire that keeps delivering cannot wedge a reshard; the remainder is
// ordinary traffic for the workers that come up next.
const sweepMax = 4096

// sweepQueues drains every RX queue of both ports and processes the
// frames through the NF in receive-time order, each as a one-packet
// burst, transmitting forwards on queue 0 and freeing drops — the
// control plane's poll-boundary settlement. The NF steers internally
// (Sharded.ProcessBatch resolves the owning shard per frame), so the
// sweep is agnostic to which queue a frame sat on — exactly what makes
// it safe on both sides of an RSS re-program. Mbuf conservation holds
// on every path; counters fold into the pipeline base.
func (p *Pipeline) sweepQueues() error {
	var frames []sweptFrame
	bufs := make([]*dpdk.Mbuf, DefaultBurst)
	collect := func(port *dpdk.Port, fromInternal bool) {
		for q := 0; q < port.Queues(); q++ {
			for drained := 0; drained < sweepMax; {
				cnt := port.RxBurstQueue(q, bufs)
				if cnt == 0 {
					break
				}
				drained += cnt
				for i := 0; i < cnt; i++ {
					frames = append(frames, sweptFrame{bufs[i], fromInternal})
				}
			}
		}
	}
	collect(p.intPort, true)
	collect(p.extPort, false)
	if len(frames) == 0 {
		return nil
	}
	sort.SliceStable(frames, func(i, j int) bool {
		return frames[i].m.RxTime < frames[j].m.RxTime
	})
	var firstErr error
	out := make([]*dpdk.Mbuf, 1)
	one, verd := make([]Pkt, 1), make([]Verdict, 1)
	for _, f := range frames {
		p.base.RxPackets++
		one[0] = Pkt{Frame: f.m.Data, FromInternal: f.fromInternal}
		if p.nf.ProcessBatch(one, verd); verd[0] != Forward {
			p.base.Dropped++
			if err := f.m.Pool().Free(f.m); err != nil && firstErr == nil {
				firstErr = err
			}
			continue
		}
		port := p.intPort
		if f.fromInternal {
			port = p.extPort
		}
		out[0] = f.m
		if port.TxBurstQueue(0, out) == 1 {
			p.base.TxPackets++
		} else {
			p.base.TxFreed++
			if err := f.m.Pool().Free(f.m); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}
