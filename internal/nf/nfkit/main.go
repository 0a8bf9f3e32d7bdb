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

// This file is the derived demo-binary scaffolding: the flags, port
// arrangement, pipeline wiring, wire-side drive loop, and end-of-run
// accounting that cmd/vignat, cmd/viglb, and cmd/vigpol each used to
// hand-roll (~150 duplicated lines per binary). A binary now declares
// its NF construction, its traffic, and its NF-specific report; the
// kit runs the engine.

// Options are the shared engine flags every demo binary exposes:
// -packets, -timeout, -capacity, -shards, -workers, -burst, -metrics,
// plus the transport selection (-transport with its address flags and
// -duration). Workers is resolved (0 → one per shard) and validated
// before Build runs.
type Options struct {
	Packets  int
	Timeout  time.Duration
	Capacity int
	Shards   int
	Workers  int
	Burst    int
	Metrics  string
	// Telemetry and TraceSample mirror nf.Config's fields: telemetry 1
	// enables the per-worker histograms and trace ring, -1 forces them
	// off, 0 defers to VIGNAT_TELEMETRY; the sample is the trace ring's
	// 1-in-N period.
	Telemetry   int
	TraceSample int
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

// App is one demo binary's declaration. Register NF-specific flags
// with the standard flag package before calling Main; parsing happens
// inside.
type App struct {
	// Name is the binary name (errors, metrics source).
	Name string
	// DefaultCapacity seeds the shared -capacity flag.
	DefaultCapacity int
	// Build constructs the NF and its traffic once flags are parsed.
	// The clock is the one the engine will drive expiry with: a
	// VirtualClock advanced by the in-memory harness, or the system
	// clock in wire mode — build the NF against the interface, not a
	// concrete clock.
	Build func(o *Options, clock libvig.Clock) (*Run, error)
}

// Run is what an App's Build hands the kit to drive.
type Run struct {
	// NF is the (usually sharded) network function. Its NFStats feeds
	// the metrics endpoint and the report, so it must be safe to call
	// concurrently with traffic (nfkit.Sharded's is).
	NF nf.NF
	// ShardOf pre-steers the traffic per worker, standing in for the
	// NIC's hardware RSS hash on the wire side.
	ShardOf func(frame []byte, fromInternal bool) int
	// Frames is the traffic, delivered round-robin, one clock
	// microsecond apart.
	Frames [][]byte
	// FromInternal says which side the traffic source feeds.
	FromInternal bool
	// InternalPortID and ExternalPortID name the two ports.
	InternalPortID, ExternalPortID uint16
	// Banner is printed before the run.
	Banner string
	// OnDelivered, when set, observes every frame the far side drains
	// (called from worker w's drive goroutine — index per-worker state
	// only).
	OnDelivered func(worker int, frame []byte)
	// Mid, when set, splits the run in two halves and runs between
	// them with no traffic in flight (backend churn and the like).
	Mid func() error
	// Backends, when set, is the balancer surface the control plane's
	// lb verbs drive (lb.Sharded implements it).
	Backends ctlplane.BackendManager
	// Rate, when set, is the policer surface behind the control
	// plane's resize verb (policer.Sharded implements it).
	Rate ctlplane.RateManager
	// Report writes the NF-specific end-of-run summary and checks its
	// invariants; returning an error fails the binary.
	Report func(w io.Writer, r *RunReport) error
}

// RunReport is what the kit measured, handed to the App's Report.
type RunReport struct {
	Elapsed  time.Duration
	Now      libvig.Time
	Pipe     nf.PipelineStats
	Snapshot nf.Stats
}

// Mpps renders packets-per-second in millions for n packets over the
// run — the throughput line every report prints.
func (r *RunReport) Mpps(n uint64) float64 {
	return float64(n) / r.Elapsed.Seconds() / 1e6
}

// Main parses flags, builds the App's NF, and drives it on the shared
// engine: per-worker RSS queue pairs, run-to-completion polling from
// one goroutine per worker, TX drain back into the pools, and the
// engine/mbuf accounting every run must end with.
func Main(app App) {
	o := &Options{}
	flag.IntVar(&o.Packets, "packets", 200000, "packets to push through the NF")
	flag.DurationVar(&o.Timeout, "timeout", 2*time.Second, "state inactivity expiry (Texp)")
	flag.IntVar(&o.Capacity, "capacity", app.DefaultCapacity, "state capacity (CAP)")
	flag.IntVar(&o.Shards, "shards", 1, "NF shards (disjoint state partitions)")
	flag.IntVar(&o.Workers, "workers", 0, "run-to-completion workers / RSS queue pairs (0 = one per shard)")
	flag.IntVar(&o.Burst, "burst", nf.DefaultBurst, "RX/TX burst size")
	flag.StringVar(&o.Metrics, "metrics", "", "serve /metrics (JSON and Prometheus text), /debug/pprof/ and /debug/trace on this address (e.g. :9090)")
	flag.IntVar(&o.Telemetry, "telemetry", 0, "per-worker latency histograms + trace ring: 1 on, -1 off, 0 defer to VIGNAT_TELEMETRY")
	flag.IntVar(&o.TraceSample, "trace-sample", 0, "trace ring sampling period, 1 record per N packets (0 = default, negative = histograms only)")
	flag.StringVar(&o.Transport, "transport", "mem", "packet I/O backend: mem (in-memory harness), udp, unix")
	flag.StringVar(&o.IntLocal, "int-local", "", "wire mode: internal port's local address (udp host:port / unix path prefix)")
	flag.StringVar(&o.IntPeer, "int-peer", "", "wire mode: where the internal port transmits")
	flag.StringVar(&o.ExtLocal, "ext-local", "", "wire mode: external port's local address")
	flag.StringVar(&o.ExtPeer, "ext-peer", "", "wire mode: where the external port transmits")
	flag.DurationVar(&o.Duration, "duration", 0, "wire mode: stop after this long (0 = until SIGINT/SIGTERM)")
	flag.BoolVar(&o.Control, "control", false, "wire mode: mount the /control/v1 management API on the metrics mux (requires -metrics)")
	flag.IntVar(&o.MaxWorkers, "max-workers", 0, "wire mode: queue pairs to provision per port, headroom for live worker growth (0 = workers)")
	flag.Parse()
	if err := run(app, o); err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", app.Name, err)
		os.Exit(1)
	}
}

func run(app App, o *Options) error {
	if o.Shards < 1 {
		return fmt.Errorf("shard count must be at least 1")
	}
	if o.Burst == 0 {
		o.Burst = nf.DefaultBurst // same convention as nf.NewPipeline,
		// which also rejects negative bursts before the drive loop runs
	}
	if o.Workers == 0 {
		o.Workers = o.Shards
	}
	if o.Workers < 1 || o.Workers > o.Shards {
		return fmt.Errorf("workers must be in [1,%d] (one queue pair per worker, shards spread across workers)", o.Shards)
	}
	switch o.Transport {
	case "", "mem":
		if o.Control {
			return fmt.Errorf("-control needs a wire transport (the in-memory harness drives workers externally, so live worker changes cannot apply)")
		}
	case "udp", "unix":
		return runWire(app, o)
	default:
		return fmt.Errorf("unknown transport %q (want mem, udp, or unix)", o.Transport)
	}

	clock := libvig.NewVirtualClock(0)
	b, err := app.Build(o, clock)
	if err != nil {
		return err
	}
	switch {
	case b.NF == nil:
		return fmt.Errorf("app declares no NF")
	case b.ShardOf == nil:
		return fmt.Errorf("app declares no steering")
	case b.Report == nil:
		return fmt.Errorf("app declares no report")
	case len(b.Frames) == 0:
		return fmt.Errorf("no traffic frames declared")
	}

	// Two multi-queue ports, one queue pair and one mempool per worker.
	intPort, intPools, err := nf.NewWorkerPorts(b.InternalPortID, o.Workers, 4096/o.Workers)
	if err != nil {
		return err
	}
	extPort, extPools, err := nf.NewWorkerPorts(b.ExternalPortID, o.Workers, 4096/o.Workers)
	if err != nil {
		return err
	}
	pipe, err := nf.NewPipeline(b.NF, nf.Config{
		Internal:    intPort,
		External:    extPort,
		Burst:       o.Burst,
		Workers:     o.Workers,
		Clock:       clock,
		Telemetry:   o.Telemetry,
		TraceSample: o.TraceSample,
	})
	if err != nil {
		return err
	}

	if o.Metrics != "" {
		m, err := nf.ServeMetrics(o.Metrics, nf.SourceOf(app.Name, b.NF, pipe))
		if err != nil {
			return err
		}
		defer m.Close()
		fmt.Printf("metrics: http://%s/metrics (profiles at /debug/pprof/, trace at /debug/trace)\n", m.Addr())
	}

	if b.Banner != "" {
		fmt.Println(b.Banner)
	}

	// The source and sink sides of the box.
	rxPort, txPort := extPort, intPort
	if b.FromInternal {
		rxPort, txPort = intPort, extPort
	}

	// Pre-steer the packet sequence per worker, so each worker's wire
	// driver delivers only frames RSS places on its own queue (the
	// NIC's RSS hash is hardware, not a per-packet software cost).
	workerOf := make([]int, len(b.Frames))
	for f := range b.Frames {
		workerOf[f] = b.ShardOf(b.Frames[f], b.FromInternal) % o.Workers
	}
	lists := make([][]int, o.Workers)
	for i := 0; i < o.Packets; i++ {
		f := i % len(b.Frames)
		lists[workerOf[f]] = append(lists[workerOf[f]], f)
	}

	// driveHalf runs [half, half+1)/halves of each worker's list, one
	// goroutine per worker: deliver a burst onto the worker's queue,
	// one run-to-completion poll, drain transmitted frames back into
	// their pools.
	halves := 1
	if b.Mid != nil {
		halves = 2
	}
	driveHalf := func(half int) error {
		var wg sync.WaitGroup
		errs := make([]error, o.Workers)
		for w := 0; w < o.Workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				drain := make([]*dpdk.Mbuf, o.Burst)
				list := lists[w]
				lo, hi := half*len(list)/halves, (half+1)*len(list)/halves
				for off := lo; off < hi; off += o.Burst {
					c := o.Burst
					if off+c > hi {
						c = hi - off
					}
					for j := 0; j < c; j++ {
						clock.Advance(1000) // 1 µs between arrivals
						rxPort.DeliverRxQueue(w, b.Frames[list[off+j]], clock.Now())
					}
					if _, err := pipe.PollWorker(w); err != nil {
						errs[w] = err
						return
					}
					for {
						k := txPort.DrainTxQueue(w, drain)
						if k == 0 {
							break
						}
						for i := 0; i < k; i++ {
							if b.OnDelivered != nil {
								b.OnDelivered(w, drain[i].Data)
							}
							if err := drain[i].Pool().Free(drain[i]); err != nil {
								errs[w] = err
								return
							}
						}
					}
				}
			}(w)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	}

	start := time.Now()
	for half := 0; half < halves; half++ {
		if half == 1 {
			if err := b.Mid(); err != nil {
				return err
			}
		}
		if err := driveHalf(half); err != nil {
			return err
		}
	}
	elapsed := time.Since(start)

	rep := &RunReport{Elapsed: elapsed, Now: clock.Now(), Pipe: pipe.Stats(), Snapshot: b.NF.NFStats()}
	if err := b.Report(os.Stdout, rep); err != nil {
		return err
	}
	nf.FprintEngineReport(os.Stdout, rep.Pipe, rep.Snapshot, pipe.Mempools(), nf.FlowTablesOf(b.NF))
	rs, ts := rxPort.Stats(), txPort.Stats()
	fmt.Printf("  rx port: rx=%d rx_dropped=%d | tx port: tx=%d tx_dropped=%d\n",
		rs.RxPackets, rs.RxDropped, ts.TxPackets, ts.TxDropped)
	if err := nf.MbufAccounting(rxPort.RxQueueLen()+txPort.TxQueueLen(),
		append(append([]*dpdk.Mempool(nil), intPools...), extPools...)...); err != nil {
		return err
	}
	fmt.Println("mbuf accounting clean (no leaks)")
	return nil
}

// wireAddresser is what both socket transports expose for printing
// where each queue actually listens (ephemeral UDP ports resolve at
// bind time).
type wireAddresser interface{ LocalAddr(q int) string }

func newWireTransport(kind string, queues int, local, peer string, clock libvig.Clock) (dpdk.Transport, error) {
	cfg := dpdk.SocketConfig{Queues: queues, Local: local, Peer: peer, Clock: clock}
	switch kind {
	case "udp":
		return dpdk.NewUDPTransport(cfg)
	case "unix":
		return dpdk.NewUnixTransport(cfg)
	}
	return nil, fmt.Errorf("unknown transport %q", kind)
}

// wireIdleWait is how long a wire-mode worker that found nothing blocks
// waiting for either port before it sweeps expiry again (the engine's
// moderation gap, not this, paces a worker under traffic). Long enough
// to burn no measurable CPU on a silent wire, short enough that expiry
// sweeps stay fresh.
const wireIdleWait = 2 * time.Millisecond

// runWire runs the NF as a daemon over kernel sockets: the peer
// process is the traffic source and sink, the system clock drives
// expiry, and the run ends on SIGINT/SIGTERM or -duration. The App's
// Report is skipped — its invariants describe the built-in traffic,
// and on a real wire the peer decides what arrives — but the engine
// report, port counters, and mbuf accounting still print and check.
func runWire(app App, o *Options) error {
	clock := libvig.NewSystemClock()
	b, err := app.Build(o, clock)
	if err != nil {
		return err
	}
	switch {
	case b.NF == nil:
		return fmt.Errorf("app declares no NF")
	case b.ShardOf == nil:
		return fmt.Errorf("app declares no steering")
	}
	if o.Control && o.Metrics == "" {
		return fmt.Errorf("-control needs -metrics (the management API mounts on the metrics mux)")
	}
	// Queue pairs are provisioned up front (the wire peer binds to
	// them); MaxWorkers leaves headroom for the workers verb to grow
	// into.
	queues := o.MaxWorkers
	if queues == 0 {
		queues = o.Workers
	}
	if queues < o.Workers {
		return fmt.Errorf("-max-workers %d below -workers %d", queues, o.Workers)
	}

	newSide := func(name string, id uint16, local, peer string) (*dpdk.Port, []*dpdk.Mempool, error) {
		tr, err := newWireTransport(o.Transport, queues, local, peer, clock)
		if err != nil {
			return nil, nil, fmt.Errorf("%s port: %w (set -%s-local / -%s-peer)", name, err, name[:3], name[:3])
		}
		pools := make([]*dpdk.Mempool, queues)
		for w := range pools {
			if pools[w], err = dpdk.NewMempool(4096 / queues); err != nil {
				_ = tr.Close()
				return nil, nil, err
			}
		}
		port, err := dpdk.NewPortOn(id, tr, pools)
		if err != nil {
			_ = tr.Close()
			return nil, nil, err
		}
		return port, pools, nil
	}
	intPort, intPools, err := newSide("internal", b.InternalPortID, o.IntLocal, o.IntPeer)
	if err != nil {
		return err
	}
	defer intPort.Close()
	extPort, extPools, err := newSide("external", b.ExternalPortID, o.ExtLocal, o.ExtPeer)
	if err != nil {
		return err
	}
	defer extPort.Close()

	pipe, err := nf.NewPipeline(b.NF, nf.Config{
		Internal:    intPort,
		External:    extPort,
		Burst:       o.Burst,
		Workers:     o.Workers,
		Clock:       clock,
		Telemetry:   o.Telemetry,
		TraceSample: o.TraceSample,
		IdleWait:    wireIdleWait,
	})
	if err != nil {
		return err
	}

	if o.Metrics != "" {
		m, err := nf.ServeMetrics(o.Metrics, nf.SourceOf(app.Name, b.NF, pipe))
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
			fmt.Printf("control: http://%s/control/v1/status\n", m.Addr())
		}
		fmt.Printf("metrics: http://%s/metrics (profiles at /debug/pprof/, trace at /debug/trace)\n", m.Addr())
	}
	if b.Banner != "" {
		fmt.Println(b.Banner)
	}
	for _, side := range []struct {
		name string
		port *dpdk.Port
	}{{"internal", intPort}, {"external", extPort}} {
		if a, ok := side.port.Transport().(wireAddresser); ok {
			addrs := make([]string, queues)
			for q := range addrs {
				addrs[q] = a.LocalAddr(q)
			}
			fmt.Printf("%s port: %s %s\n", side.name, o.Transport, strings.Join(addrs, " "))
		}
	}

	// The pipeline owns the drive goroutines (Start/Stop), which is
	// what lets the workers verb swap the worker set live.
	start := time.Now()
	if err := pipe.Start(); err != nil {
		return err
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
	if err := pipe.Stop(); err != nil {
		return err
	}

	ps := pipe.Stats()
	fmt.Printf("ran %.1fs on %s transport: %.3f Mpps forwarded\n",
		elapsed.Seconds(), o.Transport, float64(ps.TxPackets)/elapsed.Seconds()/1e6)
	nf.FprintEngineReport(os.Stdout, ps, b.NF.NFStats(), pipe.Mempools(), nf.FlowTablesOf(b.NF))
	is, es := intPort.Stats(), extPort.Stats()
	fmt.Printf("  internal: rx=%d rx_dropped=%d tx=%d tx_dropped=%d | external: rx=%d rx_dropped=%d tx=%d tx_dropped=%d\n",
		is.RxPackets, is.RxDropped, is.TxPackets, is.TxDropped,
		es.RxPackets, es.RxDropped, es.TxPackets, es.TxDropped)
	nf.FprintWireReport(os.Stdout, pipe.Wire())
	// Socket transports hold no mbufs at rest: everything RxBurst
	// allocated was transmitted-and-freed or freed on drop, so the
	// pools must be whole again.
	if err := nf.MbufAccounting(0,
		append(append([]*dpdk.Mempool(nil), intPools...), extPools...)...); err != nil {
		return err
	}
	fmt.Println("mbuf accounting clean (no leaks)")
	return nil
}
