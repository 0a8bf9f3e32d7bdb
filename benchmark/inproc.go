package main

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"

	"vignat/internal/dpdk"
	"vignat/internal/firewall"
	"vignat/internal/lb"
	"vignat/internal/libvig"
	"vignat/internal/nat"
	"vignat/internal/netstack"
	"vignat/internal/nf"
	"vignat/internal/policer"
)

// The in-process workloads: one NF worker, one shard, burst 32, driven in
// a closed loop on one goroutine over the in-memory transport. Nothing
// here crosses a socket, let alone a link.

const (
	burstSize = nf.DefaultBurst
	poolSize  = 1024 // mbufs per port; a poll holds at most 2×burst
	// One virtual microsecond per packet, so expiry counts depend on the
	// packets sent and not on how fast the host ran them.
	pktTick = libvig.Time(time.Microsecond)
)

// rig is one fresh set-up of an in-process workload: the NF, its ports
// and pools, the engine, and the traffic source with the standing state
// installed.
type rig struct {
	clock            *libvig.VirtualClock
	intPort, extPort *dpdk.Port
	pools            []*dpdk.Mempool
	pipe             *nf.Pipeline
	nf               nf.NF
	chain            *nf.Chain // nil unless the NF is the gateway chain
	nat              *nat.NAT  // the (only, or the chain's) NAT
	fastPath         int
	src              source
	obs              observer
	outE, outI       []*dpdk.Mbuf
	outFrame         []byte
	sojourn          []uint32 // the open window's per-burst sojourn times, ns
}

// observer sees every packet a rig sends one per poll: the oracle gate.
type observer interface {
	observe(p *pkt, out []byte, now libvig.Time) error
}

// buildNF makes the NF a workload runs, sized by its parameters.
func buildNF(w string, gate bool, clock libvig.Clock) (n nf.NF, chain *nf.Chain, core *nat.NAT, fast int, err error) {
	switch w {
	case "nat_established", "nat_churn":
		cfg := nat.Config{ExternalIP: natExtIP, InternalPort: 0, ExternalPort: 1}
		if w == "nat_established" {
			cfg.Capacity, cfg.Timeout = fullEstablished.capacity, fullEstablished.texp
		} else {
			p := fullChurn.sized(gate)
			cfg.Capacity, cfg.Timeout = p.capacity, p.texp
		}
		s, err := nat.NewSharded(cfg, clock, 1)
		if err != nil {
			return nil, nil, nil, 0, err
		}
		return s, nil, s.ShardNAT(0), nf.DefaultFastPathEntries, nil
	case "gateway_chain":
		p := fullGateway.sized(gate)
		fw, err := firewall.New(p.capacity, p.texp, clock)
		if err != nil {
			return nil, nil, nil, 0, err
		}
		// The budget is far above anything the traffic asks for: this
		// workload prices the policer's bookkeeping, not its drops.
		pol, err := policer.New(policer.Config{Rate: gwPolRate, Burst: gwPolBurst, Capacity: p.capacity, Timeout: p.texp}, clock)
		if err != nil {
			return nil, nil, nil, 0, err
		}
		bal, err := lb.New(lb.Config{
			VIP: gwVIP, VIPPort: gwDNSPort, Capacity: p.capacity, Timeout: p.texp,
			MaxBackends: len(gwBackends), ClientsInternal: true, Passthrough: true,
		}, clock)
		if err != nil {
			return nil, nil, nil, 0, err
		}
		for _, ip := range gwBackends {
			if _, err := bal.AddBackend(ip, clock.Now()); err != nil {
				return nil, nil, nil, 0, err
			}
		}
		core, err := nat.New(nat.Config{Capacity: p.capacity, Timeout: p.texp, ExternalIP: gwExtIP, InternalPort: 0, ExternalPort: 1}, clock)
		if err != nil {
			return nil, nil, nil, 0, err
		}
		c, err := nf.NewChain("gateway", firewall.AsNF(fw), policer.AsNF(pol), lb.AsNF(bal), nat.AsNF(core))
		if err != nil {
			return nil, nil, nil, 0, err
		}
		return c, c, core, 0, nil
	}
	return nil, nil, nil, 0, fmt.Errorf("no in-process workload %q", w)
}

const (
	gwPolRate  = int64(1) << 38 // bytes/s per host
	gwPolBurst = int64(1) << 30
)

// newSource makes a workload's traffic for seed.
func newSource(w string, seed int64, gate bool) source {
	switch w {
	case "nat_established":
		return newEstSource(seed, fullEstablished.sized(gate))
	case "nat_churn":
		return newChurnSource(seed, fullChurn.sized(gate))
	default:
		return newGwSource(seed, fullGateway.sized(gate))
	}
}

// newRig is one complete set-up: NF, pools, ports, engine, then the
// standing state pushed through the engine one packet per poll. With
// gate set the state is the reduced one the oracles can follow.
func newRig(w string, seed int64, gate bool, obs observer) (*rig, error) {
	r := &rig{clock: libvig.NewVirtualClock(0), obs: obs}
	var err error
	if r.nf, r.chain, r.nat, r.fastPath, err = buildNF(w, gate, r.clock); err != nil {
		return nil, err
	}
	var ip, ep []*dpdk.Mempool
	if r.intPort, ip, err = nf.NewWorkerPorts(0, 1, poolSize); err != nil {
		return nil, err
	}
	if r.extPort, ep, err = nf.NewWorkerPorts(1, 1, poolSize); err != nil {
		return nil, err
	}
	r.pools = append(ip, ep...)
	r.pipe, err = nf.NewPipeline(r.nf, nf.Config{Internal: r.intPort, External: r.extPort, Clock: r.clock, FastPath: r.fastPath})
	if err != nil {
		return nil, err
	}
	r.outE = make([]*dpdk.Mbuf, 2*burstSize)
	r.outI = make([]*dpdk.Mbuf, 2*burstSize)
	r.outFrame = make([]byte, dpdk.DataRoomSize)
	r.src = newSource(w, seed, gate)
	if err := r.src.establish(r.send); err != nil {
		return nil, fmt.Errorf("%s: %w", w, err)
	}
	return r, nil
}

func (r *rig) port(fromInternal bool) *dpdk.Port {
	if fromInternal {
		return r.intPort
	}
	return r.extPort
}

// send pushes one packet through the engine alone: deliver, poll, drain.
func (r *rig) send(p *pkt) ([]byte, error) {
	r.clock.Advance(pktTick)
	now := r.clock.Now()
	if !r.port(p.fromInternal).DeliverRxQueue(0, p.frame, now) {
		return nil, fmt.Errorf("RX queue refused a frame")
	}
	if _, err := r.pipe.PollWorker(0); err != nil {
		return nil, err
	}
	var out []byte
	for _, side := range []struct {
		port *dpdk.Port
		bufs []*dpdk.Mbuf
		from bool
	}{{r.extPort, r.outE, true}, {r.intPort, r.outI, false}} {
		n := side.port.DrainTxQueue(0, side.bufs)
		for _, m := range side.bufs[:n] {
			if n != 1 || side.from != p.fromInternal {
				return nil, fmt.Errorf("one packet in, %d out of the wrong side or too many", n)
			}
			out = r.outFrame[:copy(r.outFrame, m.Data)]
			if err := m.Pool().Free(m); err != nil {
				return nil, err
			}
		}
	}
	if r.obs != nil {
		if err := r.obs.observe(p, out, now); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// window is what one slice of the measured region yields.
type window struct {
	pkts    uint64
	busyNs  int64                   // time inside deliver→poll→drain→free
	cpuNs   int64                   // process CPU over the whole window, generator included
	sojourn [len(sojournAt)]float64 // percentiles of the bursts' sojourn, ns
}

// sojournAt are the percentiles a window keeps of its bursts' sojourn
// times; the samples themselves live in one buffer the windows share, so
// that the benchmark's bookkeeping stays out of rss_mb.
var sojournAt = [...]float64{0.50, 0.90, 0.99, 0.999, 1}

// measured is an in-process run's raw outcome.
type measured struct {
	tally
	windows   []window
	attempted uint64
	idlePolls uint64
}

// perWindow maps each window through f.
func (m *measured) perWindow(f func(w *window) float64) []float64 {
	out := make([]float64, len(m.windows))
	for i := range m.windows {
		out[i] = f(&m.windows[i])
	}
	return out
}

func (m *measured) pkts() uint64 {
	var n uint64
	for i := range m.windows {
		n += m.windows[i].pkts
	}
	return n
}

func tputMpps(w *window) float64  { return float64(w.pkts) / float64(w.busyNs) * 1e3 }
func cpuPerPkt(w *window) float64 { return float64(w.cpuNs) / float64(w.pkts) }
func sojournUs(p float64) func(w *window) float64 {
	i := slices.Index(sojournAt[:], p)
	return func(w *window) float64 { return w.sojourn[i] / 1e3 }
}

// cpuNow is the process's user+system CPU time so far.
func cpuNow() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// measure runs the closed loop: warm-up, then nWin windows of winLen
// each. Every poll's packet counts are checked against what the
// generator expects, one packet in 1024 is opened and its checksums,
// rewrite and stamp verified, and the books are balanced at the end.
// tr, when set, records spans on every 64th burst.
func (r *rig) measure(warm time.Duration, nWin int, winLen time.Duration, tr *tracer) (*measured, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	m := &measured{windows: make([]window, 0, nWin)}
	burst := make([]pkt, burstSize)
	before := r.books()
	var wantFwd, wantDrop uint64
	epoch := time.Now()
	winEnd := warm
	var cur *window // nil during warm-up
	cpu0 := int64(0)
	var bursts uint64
	for {
		traced := tr != nil && cur != nil && bursts&63 == 0
		bursts++
		g0 := time.Since(epoch)
		r.src.next(burst)
		r.clock.Advance(pktTick * burstSize)
		now := r.clock.Now()
		t0 := time.Since(epoch)
		for i := range burst {
			if !r.port(burst[i].fromInternal).DeliverRxQueue(0, burst[i].frame, now) {
				m.fail(1, "RX queue refused a frame")
			}
		}
		t1 := t0
		if traced {
			t1 = time.Since(epoch)
		}
		if n, err := r.pipe.PollWorker(0); err != nil {
			return nil, err
		} else if n == 0 {
			m.idlePolls++
		}
		t2 := t1
		if traced {
			t2 = time.Since(epoch)
		}
		ne := r.extPort.DrainTxQueue(0, r.outE)
		ni := r.intPort.DrainTxQueue(0, r.outI)
		c0 := t2
		if traced {
			c0 = time.Since(epoch)
		}
		var we, wi int
		for i := range burst {
			if burst[i].forward {
				if burst[i].fromInternal {
					we++
				} else {
					wi++
				}
			}
		}
		if ne != we || ni != wi {
			m.fail(uint64(abs(ne-we)+abs(ni-wi)), "a poll forwarded %d out and %d in, expected %d and %d", ne, ni, we, wi)
		} else if bursts&31 == 0 {
			r.verifyOne(m, burst, int(bursts>>5)%len(burst))
		}
		c1 := c0
		if traced {
			c1 = time.Since(epoch)
		}
		for _, b := range r.outE[:ne] {
			_ = b.Pool().Free(b) // a double free shows in the mbuf accounting below
		}
		for _, b := range r.outI[:ni] {
			_ = b.Pool().Free(b)
		}
		t3 := time.Since(epoch)
		m.attempted += burstSize
		wantFwd += uint64(we + wi)
		wantDrop += uint64(burstSize - we - wi)
		if cur != nil {
			cur.pkts += burstSize
			cur.busyNs += int64(t3 - t0)
			r.sojourn = append(r.sojourn, uint32(t3-t0))
			if traced {
				tr.burst(int64(bursts), [7]time.Duration{g0, t0, t1, t2, c0, c1, t3})
			}
		}
		if t3 < winEnd {
			continue
		}
		c := cpuNow()
		if cur != nil {
			cur.cpuNs = c - cpu0
			slices.Sort(r.sojourn)
			for i, p := range sojournAt {
				cur.sojourn[i] = percentile(r.sojourn, p)
			}
			if tr != nil {
				tr.closeWindow()
			}
			if len(m.windows) == nWin {
				break
			}
		}
		m.windows = append(m.windows, window{})
		r.sojourn = r.sojourn[:0]
		cur = &m.windows[len(m.windows)-1]
		// The sort above and this bookkeeping sit between windows, so
		// the next window starts now, not on the old grid.
		winEnd = time.Since(epoch) + winLen
		cpu0 = cpuNow()
	}
	after := r.books()
	if d := after.sub(before); d != (books{rx: m.attempted, tx: wantFwd, dropped: wantDrop, processed: m.attempted, forwarded: wantFwd, nfDropped: wantDrop}) {
		m.fail(1, "books do not balance: %+v for %d offered, %d to forward, %d to drop", d, m.attempted, wantFwd, wantDrop)
	}
	if err := nf.MbufAccounting(0, r.pools...); err != nil {
		m.fail(1, "%v", err)
	}
	return m, nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// verifyOne opens the forwarded copy of burst[j]: it must parse, carry
// valid IP and L4 checksums, the promised rewrite, and its own stamp.
// Forwarded packets leave in arrival order on each side, so burst[j]'s
// copy is found by counting.
func (r *rig) verifyOne(m *measured, burst []pkt, j int) {
	p := &burst[j]
	if !p.forward {
		return
	}
	k := 0
	for i := 0; i < j; i++ {
		if burst[i].forward && burst[i].fromInternal == p.fromInternal {
			k++
		}
	}
	side := r.outI
	if p.fromInternal {
		side = r.outE
	}
	out := side[k].Data
	var q netstack.Packet
	if err := q.Parse(out); err != nil || !q.NATable() {
		m.fail(1, "forwarded frame does not parse: %v", err)
		return
	}
	want, _ := readStamp(p.frame, p.stampOff)
	got, ok := readStamp(out, p.stampOff)
	switch {
	case !q.VerifyIPChecksum() || !q.VerifyL4Checksum():
		m.fail(1, "forwarded frame %v has a bad checksum", q.FlowID())
	case !p.matches(q.FlowID()):
		m.fail(1, "rewrite mismatch: want %v, got %v", p.want, q.FlowID())
	case !ok || got != want:
		m.fail(1, "stamp mismatch: packet %d came out as %d", want, got)
	}
}

// books are the counters that must add up over a run: the engine's, the
// NF's, and the ports' drop counts.
type books struct {
	rx, tx, txFreed, dropped        uint64
	processed, forwarded, nfDropped uint64
	portDrops                       uint64
}

func (r *rig) books() books {
	ps, ns := r.pipe.Stats(), r.nf.NFStats()
	is, es := r.intPort.Stats(), r.extPort.Stats()
	return books{
		rx: ps.RxPackets, tx: ps.TxPackets, txFreed: ps.TxFreed, dropped: ps.Dropped,
		processed: ns.Processed, forwarded: ns.Forwarded, nfDropped: ns.Dropped,
		portDrops: is.RxDropped + is.TxDropped + es.RxDropped + es.TxDropped,
	}
}

func (b books) sub(a books) books {
	return books{
		rx: b.rx - a.rx, tx: b.tx - a.tx, txFreed: b.txFreed - a.txFreed, dropped: b.dropped - a.dropped,
		processed: b.processed - a.processed, forwarded: b.forwarded - a.forwarded, nfDropped: b.nfDropped - a.nfDropped,
		portDrops: b.portDrops - a.portDrops,
	}
}

// peakRSSMB reads the process's high-water resident set from /proc.
func peakRSSMB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		var kb float64
		if _, err := fmt.Sscanf(line, "VmHWM: %f kB", &kb); err == nil {
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM for pid %d", pid)
}
