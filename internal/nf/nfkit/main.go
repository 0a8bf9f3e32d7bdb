package nfkit

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"vignat/internal/ctlplane"
	"vignat/internal/dpdk"
	"vignat/internal/libvig"
	"vignat/internal/nf"
)

// This file is the daemon's engine side: the shared flags, port
// arrangement, pipeline wiring, in-memory drive loop, wire mode, and
// end-of-run accounting. cmd/vignat declares which NF to build and its
// traffic (internal/catalog); the kit runs the engine.

// Options are the shared engine flags (Register): -packets, -timeout,
// -capacity, -shards, -workers, -metrics, -telemetry, plus the
// transport selection (-transport with its address flags and
// -duration). Workers is resolved (0 → one per shard) and validated
// before Build runs.
type Options struct {
	Packets  int
	Timeout  time.Duration
	Capacity int
	Shards   int
	Workers  int
	Metrics  string
	// Telemetry enables the per-worker histograms and trace ring.
	Telemetry bool
	// Transport picks the packet-I/O backend: "mem" (default) drives
	// the NF with the built-in traffic over in-memory rings on a
	// virtual clock; "udp" and "unix" run the NF as a daemon on real
	// kernel sockets and the system clock, processing whatever a peer
	// process sends.
	Transport string
	// IntLocal/IntPeer and ExtLocal/ExtPeer are the wire addresses of
	// the internal and external ports (udp: "host:port" with queue q
	// bound at port+q; unix: a path prefix with queue q at
	// "<prefix>.q<q>").
	IntLocal, IntPeer, ExtLocal, ExtPeer string
	// Duration bounds a wire-mode run (0 = run until SIGINT/SIGTERM).
	Duration time.Duration
	// Control mounts the /control/v1 management API on the metrics
	// mux (wire mode only; requires -metrics).
	Control bool
	// MaxWorkers sizes the wire transports' queue pairs beyond the
	// initial worker count, leaving headroom for a live reshard to
	// grow (0 = exactly Workers queues, no growth).
	MaxWorkers int
}

// Run is what a daemon's build hands the kit to drive.
type Run struct {
	// NF is the (usually sharded) network function. The metrics
	// endpoint reads it through nf.SourceOf: its Scrape when it is an
	// nf.Scraper (nfkit.Sharded and nf.Chain are), else its NFStats,
	// which must then be safe concurrently with traffic. When it is an
	// nf.Sharder, its ShardOf pre-steers the built-in traffic per
	// worker, standing in for the NIC's hardware RSS hash.
	NF nf.NF
	// Traffic makes the in-memory run's built-in traffic: frames,
	// delivered round-robin one clock microsecond apart, and whether they
	// enter on the internal side. A wire-mode run never calls it.
	Traffic func() (frames [][]byte, fromInternal bool, err error)
	// Banner is printed before the run.
	Banner string
	// Backends, when set, is the balancer surface the control plane's
	// lb verbs drive (lb.Sharded implements it).
	Backends ctlplane.BackendManager
	// Rate, when set, is the policer surface behind the control
	// plane's resize verb (policer.Sharded implements it).
	Rate ctlplane.RateManager
}

// Build constructs the NF and its traffic once flags are parsed. The
// clock is the one the engine will drive expiry with: a VirtualClock
// advanced by the in-memory harness, or the system clock in wire mode —
// build the NF against the interface, not a concrete clock.
type Build func(clock libvig.Clock) (*Run, error)

// The two ports every run arranges.
const internalPortID, externalPortID = 0, 1

// Register registers the shared engine flags on fs, into o, with
// capacity as -capacity's default.
func (o *Options) Register(fs *flag.FlagSet, capacity int) {
	fs.IntVar(&o.Packets, "packets", 200000, "packets to push through the NF")
	fs.DurationVar(&o.Timeout, "timeout", 2*time.Second, "state inactivity expiry (Texp)")
	fs.IntVar(&o.Capacity, "capacity", capacity, "state capacity (CAP), split evenly over -shards; at most 65,535 per shard")
	fs.IntVar(&o.Shards, "shards", 1, "NF shards (disjoint state partitions)")
	fs.IntVar(&o.Workers, "workers", 0, "run-to-completion workers / RSS queue pairs (0 = one per shard)")
	fs.StringVar(&o.Metrics, "metrics", "", "serve /metrics (Prometheus text), /debug/pprof/ and /debug/trace on this address (e.g. :9090)")
	fs.BoolVar(&o.Telemetry, "telemetry", false, "per-worker latency histograms + trace ring")
	fs.StringVar(&o.Transport, "transport", "mem", "packet I/O backend: mem (in-memory harness), udp, unix")
	fs.StringVar(&o.IntLocal, "int-local", "", "wire mode: internal port's local address (udp host:port / unix path prefix)")
	fs.StringVar(&o.IntPeer, "int-peer", "", "wire mode: where the internal port transmits")
	fs.StringVar(&o.ExtLocal, "ext-local", "", "wire mode: external port's local address")
	fs.StringVar(&o.ExtPeer, "ext-peer", "", "wire mode: where the external port transmits")
	fs.DurationVar(&o.Duration, "duration", 0, "wire mode: stop after this long (0 = until SIGINT/SIGTERM)")
	fs.BoolVar(&o.Control, "control", false, "wire mode: mount the /control/v1 management API on the metrics mux (requires -metrics)")
	fs.IntVar(&o.MaxWorkers, "max-workers", 0, "wire mode: queue pairs to provision per port, headroom for live worker growth (0 = workers)")
}

// Serve builds the NF and runs it on the shared engine, writing its
// report to w. With the in-memory transport it drives the built-in
// traffic through per-worker RSS queue pairs, one goroutine per worker
// polling run-to-completion and draining TX back into the pools; with a
// socket transport it serves as a daemon (serveWire). Either way the
// run ends with the engine report and the mbuf accounting. name labels
// the metrics.
func Serve(w io.Writer, name string, o *Options, build Build) error {
	if o.Shards < 1 {
		return fmt.Errorf("shard count must be at least 1")
	}
	if o.Workers == 0 {
		o.Workers = o.Shards
	}
	if o.Workers < 1 || o.Workers > o.Shards {
		return fmt.Errorf("workers must be in [1,%d] (one queue pair per worker, shards spread across workers)", o.Shards)
	}
	var clock libvig.Clock
	switch o.Transport {
	case "", "mem":
		if o.Control {
			return fmt.Errorf("-control needs a wire transport (the in-memory harness drives workers externally, so live worker changes cannot apply)")
		}
		clock = libvig.NewVirtualClock(0)
	case "udp", "unix":
		if o.Control && o.Metrics == "" {
			return fmt.Errorf("-control needs -metrics (the management API mounts on the metrics mux)")
		}
		clock = libvig.NewSystemClock()
	default:
		return fmt.Errorf("unknown transport %q (want mem, udp, or unix)", o.Transport)
	}
	vclock, inMemory := clock.(*libvig.VirtualClock)

	b, err := build(clock)
	if err != nil {
		return err
	}
	// Queue pairs are provisioned up front (a wire peer binds to them);
	// MaxWorkers leaves headroom for the workers verb to grow into.
	queues := o.Workers
	if !inMemory && o.MaxWorkers != 0 {
		queues = o.MaxWorkers
	}
	if queues < o.Workers {
		return fmt.Errorf("-max-workers %d below -workers %d", queues, o.Workers)
	}
	intPort, intPools, err := newPort(o, "internal", internalPortID, queues, o.IntLocal, o.IntPeer, clock)
	if err != nil {
		return err
	}
	defer intPort.Close()
	extPort, extPools, err := newPort(o, "external", externalPortID, queues, o.ExtLocal, o.ExtPeer, clock)
	if err != nil {
		return err
	}
	defer extPort.Close()

	cfg := nf.Config{Internal: intPort, External: extPort, Workers: o.Workers, Clock: clock, Telemetry: o.Telemetry}
	if !inMemory {
		cfg.IdleWait = wireIdleWait
	}
	pipe, err := nf.NewPipeline(b.NF, cfg)
	if err != nil {
		return err
	}

	if o.Metrics != "" {
		m, err := nf.ServeMetrics(o.Metrics, nf.SourceOf(name, b.NF, pipe))
		if err != nil {
			return err
		}
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			_ = m.Shutdown(ctx)
		}()
		if o.Control {
			ctl, err := ctlplane.New(ctlplane.Config{
				Pipeline:   pipe,
				Clock:      clock,
				Backends:   b.Backends,
				Rate:       b.Rate,
				MaxWorkers: queues,
			})
			if err != nil {
				return err
			}
			ctl.Mount(m)
			fmt.Fprintf(w, "control: http://%s/control/v1/status\n", m.Addr())
		}
		fmt.Fprintf(w, "metrics: http://%s/metrics (profiles at /debug/pprof/, trace at /debug/trace)\n", m.Addr())
	}
	if b.Banner != "" {
		fmt.Fprintln(w, b.Banner)
	}

	var elapsed time.Duration
	if inMemory {
		start := time.Now()
		err = drive(o, b, pipe, intPort, extPort, vclock)
		elapsed = time.Since(start)
	} else {
		elapsed, err = serveWire(w, o, pipe, intPort, extPort)
	}
	if err != nil {
		return err
	}

	ps := pipe.Stats()
	fmt.Fprintf(w, "ran %.1fs on %s transport: %.3f Mpps forwarded\n",
		elapsed.Seconds(), o.Transport, float64(ps.TxPackets)/elapsed.Seconds()/1e6)
	nf.FprintEngineReport(w, ps, b.NF.NFStats(), pipe.Mempools(), nf.FlowTablesOf(b.NF))
	is, es := intPort.Stats(), extPort.Stats()
	fmt.Fprintf(w, "  internal: rx=%d rx_dropped=%d tx=%d tx_dropped=%d | external: rx=%d rx_dropped=%d tx=%d tx_dropped=%d\n",
		is.RxPackets, is.RxDropped, is.TxPackets, is.TxDropped,
		es.RxPackets, es.RxDropped, es.TxPackets, es.TxDropped)
	nf.FprintWireReport(w, pipe.Wire())
	// Every mbuf RxBurst allocated was transmitted-and-freed, freed on
	// drop, or still sits in an in-memory queue (socket transports hold
	// none at rest).
	if err := nf.MbufAccounting(intPort.RxQueueLen()+intPort.TxQueueLen()+extPort.RxQueueLen()+extPort.TxQueueLen(),
		append(append([]*dpdk.Mempool(nil), intPools...), extPools...)...); err != nil {
		return err
	}
	fmt.Fprintln(w, "mbuf accounting clean (no leaks)")
	return nil
}

// newPort builds one side's port with queues queue pairs, one mempool
// each: in-memory rings, or a socket transport bound at local that
// transmits to peer.
func newPort(o *Options, name string, id uint16, queues int, local, peer string, clock libvig.Clock) (*dpdk.Port, []*dpdk.Mempool, error) {
	port, pools, err := nf.NewTransportPort(o.Transport, id, queues, 4096/queues, dpdk.SocketConfig{Local: local, Peer: peer, Clock: clock})
	if err != nil && o.Transport != "mem" {
		err = fmt.Errorf("%s port: %w (set -%s-local / -%s-peer)", name, err, name[:3], name[:3])
	}
	return port, pools, err
}

// drive pushes o.Packets of the built-in traffic through pipe, one
// goroutine per worker: deliver a burst onto the worker's queue, one
// run-to-completion poll, drain transmitted frames back into their
// pools.
func drive(o *Options, b *Run, pipe *nf.Pipeline, intPort, extPort *dpdk.Port, clock *libvig.VirtualClock) error {
	frames, fromInternal, err := b.Traffic()
	if err != nil {
		return err
	}
	if len(frames) == 0 {
		return fmt.Errorf("no traffic frames declared")
	}
	rxPort, txPort := extPort, intPort
	if fromInternal {
		rxPort, txPort = intPort, extPort
	}
	// Pre-steer the packet sequence per worker, so each worker's wire
	// driver delivers only frames RSS places on its own queue (the NIC's
	// RSS hash is hardware, not a per-packet software cost).
	lists := make([][]int, o.Workers)
	workerOf := make([]int, len(frames))
	if s, ok := b.NF.(nf.Sharder); ok {
		for f := range frames {
			workerOf[f] = s.ShardOf(frames[f], fromInternal) % o.Workers
		}
	}
	for i := 0; i < o.Packets; i++ {
		f := i % len(frames)
		lists[workerOf[f]] = append(lists[workerOf[f]], f)
	}

	var wg sync.WaitGroup
	errs := make([]error, o.Workers)
	for wk := range lists {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			drain := make([]*dpdk.Mbuf, nf.DefaultBurst)
			list := lists[wk]
			for off := 0; off < len(list); off += nf.DefaultBurst {
				for _, f := range list[off:min(off+nf.DefaultBurst, len(list))] {
					clock.Advance(1000) // 1 µs between arrivals
					rxPort.DeliverRxQueue(wk, frames[f], clock.Now())
				}
				if _, err := pipe.PollWorker(wk); err != nil {
					errs[wk] = err
					return
				}
				for k := txPort.DrainTxQueue(wk, drain); k > 0; k = txPort.DrainTxQueue(wk, drain) {
					for _, m := range drain[:k] {
						if err := m.Pool().Free(m); err != nil {
							errs[wk] = err
							return
						}
					}
				}
			}
		}(wk)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// wireIdleWait is how long a wire-mode worker that found nothing blocks
// waiting for either port before it sweeps expiry again (the engine's
// moderation gap, not this, paces a worker under traffic). Long enough
// to burn no measurable CPU on a silent wire, short enough that expiry
// sweeps stay fresh.
const wireIdleWait = 2 * time.Millisecond

// serveWire runs the pipeline as a daemon over kernel sockets: the peer
// process is the traffic source and sink, the system clock drives
// expiry, and the run ends on SIGINT/SIGTERM or -duration. It returns
// how long the pipeline ran.
func serveWire(w io.Writer, o *Options, pipe *nf.Pipeline, intPort, extPort *dpdk.Port) (time.Duration, error) {
	for _, side := range []struct {
		name string
		port *dpdk.Port
	}{{"internal", intPort}, {"external", extPort}} {
		// Both socket transports say where each queue listens (ephemeral
		// UDP ports resolve at bind time).
		if a, ok := side.port.Transport().(interface{ LocalAddr(q int) string }); ok {
			addrs := make([]string, side.port.Queues())
			for q := range addrs {
				addrs[q] = a.LocalAddr(q)
			}
			fmt.Fprintf(w, "%s port: %s %s\n", side.name, o.Transport, strings.Join(addrs, " "))
		}
	}

	// The pipeline owns the drive goroutines (Start/Stop), which is
	// what lets the workers verb swap the worker set live.
	start := time.Now()
	if err := pipe.Start(); err != nil {
		return 0, err
	}
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	var expired <-chan time.Time
	if o.Duration > 0 {
		expired = time.After(o.Duration)
	}
	select {
	case <-sigc:
	case <-expired:
	}
	elapsed := time.Since(start)
	return elapsed, pipe.Stop()
}
