package main

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"syscall"
	"time"

	"vignat/internal/dpdk"
)

// The traced run of nat_wire. The daemon is a separate program, so its
// layers cannot be called one by one; what can be measured from outside
// is how busy it is and how much of that is the kernel's (from /proc),
// what its own end-of-run report says about bursts and drops, and — in
// this process, against a raw-socket peer — what one frame costs to
// receive and to send through each of dpdk's socket transports.

// traceWire reports the per-layer metrics for nat_wire; the ones only an
// in-process workload can produce read 0.
func traceWire(o *options) (*report, error) {
	if o.daemon == "" {
		return nil, fmt.Errorf("nat_wire needs -daemon, the built cmd/vignat (benchmark/run.sh builds and passes it)")
	}
	// Five windows a phase, each phase a quarter of --seconds.
	nWin, winLen := 5, time.Duration(o.seconds*float64(time.Second)/4/5)
	run, _, err := runWirePhases(o, nWin, winLen)
	if err != nil {
		return nil, err
	}
	g, closed, opened := run.g, run.closed, run.opened
	rep := &report{attempted: g.sent, tally: g.tally}
	set, val := rep.add, rep.value

	set("wire.closed_rtt_p50_us", summarize(closed.perWindow(wireRTT(0.50)), closed.ops()))
	val("wire.daemon_busy_share", float64(closed.cpuNs())/float64(closed.wallNs))
	if t := closed.utime + closed.stime; t > 0 {
		val("wire.daemon_sys_share", float64(closed.stime)/float64(t))
	}
	val("wire.eagain_share", float64(g.eagain)/float64(g.writes))
	set("tail.latency_p99_us", summarize(opened.perWindow(wireRTT(0.99)), opened.ops()))
	set("tail.latency_p999_us", summarize(opened.perWindow(wireRTT(0.999)), opened.ops()))
	val("tail.latency_max_us", slices.Max(opened.perWindow(wireRTT(1))))
	set("gen.late_p99_us", summarize(opened.perWindow(func(w *wireWindow) float64 { return percentile(w.late, 0.99) / 1e3 }), opened.ops()))
	val("nat.table_occupancy", float64(wireFlows)/65535) // the daemon's default capacity

	// The daemon's own account of the run, when its report still reads
	// the way it did when this was written; 0 otherwise.
	if m := regexp.MustCompile(`polls=(\d+) rx=(\d+) tx=(\d+) tx_freed=(\d+)`).FindStringSubmatch(run.daemonOut); m != nil {
		polls, rx, freed := atof(m[1]), atof(m[2]), atof(m[4])
		val("nf.rx_burst_mean", rx/polls)
		// A poll that received anything received at least one packet, so
		// at least this share of the polls found nothing.
		val("nf.idle_poll_share", max(0, 1-rx/polls))
		val("nf.tx_freed_share", freed/rx)
		if d := regexp.MustCompile(`NF snapshot: fwd=\d+ drop=(\d+)`).FindStringSubmatch(run.daemonOut); d != nil {
			val("nf.dropped_share", atof(d[1])/rx)
		}
		var rxDrop, txDrop float64
		for _, d := range regexp.MustCompile(`rx_dropped=(\d+) tx=\d+ tx_dropped=(\d+)`).FindAllStringSubmatch(run.daemonOut, -1) {
			rxDrop += atof(d[1])
			txDrop += atof(d[2])
		}
		val("dpdk.rx_dropped_share", rxDrop/rx)
		val("dpdk.tx_dropped_share", txDrop/rx)
	} else {
		rep.note("the daemon's end-of-run report was not understood; the metrics read from it are 0")
	}

	budget := time.Duration(nWin) * winLen / 2 // per transport
	var rxtx float64
	for _, kind := range []string{"unix", "udp"} {
		rx, tx, err := transportCost(o, kind, budget)
		if err != nil {
			return nil, err
		}
		set("dpdk."+kind+"_rx_ns_per_pkt", rx)
		set("dpdk."+kind+"_tx_ns_per_pkt", tx)
		if kind == "unix" {
			rxtx = rx.Median + tx.Median
		}
	}
	epoch := time.Now()
	set("gen.clock_read_ns", micro(budget/8, 32, func() {
		for range 32 {
			durSink = time.Since(epoch)
		}
	}))
	// The wire's ladder has one rung that can be priced from outside: a
	// frame in and a frame out through the unix transport. The residual
	// is the share of the daemon's CPU per packet, under closed-loop
	// load, that this rung does not explain: the NF, the engine, idle
	// polls.
	val("ladder.sum_ns_per_pkt", rxtx)
	val("ladder.residual_share", 1-rxtx/median(closed.perWindow(wireCPU)))
	rep.zeroRest()
	return rep, nil
}

func atof(s string) float64 {
	v, _ := strconv.ParseFloat(s, 64) // the pattern only lets digits through
	return v
}

// transportCost times RxBurst and TxBurst of one of dpdk's socket
// transports against a peer that is nothing but a raw socket: bursts of
// 32 smallest-size frames, the peer's side of each exchange untimed.
func transportCost(o *options, kind string, budget time.Duration) (rx, tx summary, err error) {
	if err = os.MkdirAll(o.workDir, 0o755); err != nil {
		return rx, tx, err
	}
	if err = os.MkdirAll(o.workDir, 0o755); err != nil {
		return rx, tx, err
	}
	dir, err := os.MkdirTemp(o.workDir, "xport-")
	if err != nil {
		return rx, tx, err
	}
	defer os.RemoveAll(dir)
	var tr dpdk.Transport
	var peerRx, peerTx int // the peer's sockets
	var peerTo syscall.Sockaddr
	switch kind {
	case "unix":
		if peerRx, err = listenSeqpacket(filepath.Join(dir, "p.q0")); err != nil {
			return rx, tx, err
		}
		defer syscall.Close(peerRx)
		ut, err := dpdk.NewUnixTransport(dpdk.SocketConfig{Local: filepath.Join(dir, "t"), Peer: filepath.Join(dir, "p")})
		if err != nil {
			return rx, tx, err
		}
		tr = ut
		if peerTx, err = dialSeqpacket(ut.LocalAddr(0), time.Now().Add(time.Second)); err != nil {
			return rx, tx, err
		}
		defer syscall.Close(peerTx)
	case "udp":
		if peerRx, err = syscall.Socket(syscall.AF_INET, syscall.SOCK_DGRAM|syscall.SOCK_NONBLOCK, 0); err != nil {
			return rx, tx, err
		}
		defer syscall.Close(peerRx)
		if err = syscall.Bind(peerRx, &syscall.SockaddrInet4{Addr: [4]byte{127, 0, 0, 1}}); err != nil {
			return rx, tx, err
		}
		sa, err := syscall.Getsockname(peerRx)
		if err != nil {
			return rx, tx, err
		}
		ut, err := dpdk.NewUDPTransport(dpdk.SocketConfig{Peer: fmt.Sprintf("127.0.0.1:%d", sa.(*syscall.SockaddrInet4).Port)})
		if err != nil {
			return rx, tx, err
		}
		tr = ut
		var port int
		if _, err = fmt.Sscanf(ut.LocalAddr(0), "127.0.0.1:%d", &port); err != nil {
			return rx, tx, err
		}
		peerTx, peerTo = peerRx, &syscall.SockaddrInet4{Addr: [4]byte{127, 0, 0, 1}, Port: port}
	}
	defer tr.Close()
	pool, err := dpdk.NewMempool(poolSize)
	if err != nil {
		return rx, tx, err
	}
	port, err := dpdk.NewPortOn(0, tr, []*dpdk.Mempool{pool})
	if err != nil {
		return rx, tx, err
	}
	r := newRng(1, 6)
	frame := craft(natFlowID(&r, 10, 0), smallFrame).frame
	bufs := make([]*dpdk.Mbuf, burstSize)
	scratch := make([]byte, 2048)
	conn := -1
	if kind == "udp" {
		conn = peerRx
	}
	// drain empties the peer's receive side of the n frames just sent.
	drain := func(n int) error {
		deadline := time.Now().Add(time.Second)
		for n > 0 {
			if conn < 0 {
				if fd, _, err := syscall.Accept4(peerRx, syscall.SOCK_NONBLOCK); err == nil {
					conn = fd
				}
			} else if k, _ := syscall.Read(conn, scratch); k > 0 {
				n--
				continue
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("%s transport: %d frames never reached the peer", kind, n)
			}
		}
		return nil
	}
	defer func() {
		if kind == "unix" && conn >= 0 {
			syscall.Close(conn)
		}
	}()
	var failure error
	tx = microTimed(budget/2, func() (time.Duration, int) {
		for i := range bufs {
			bufs[i] = pool.Alloc()
			_ = bufs[i].SetFrame(frame)
		}
		t0 := time.Now()
		n := port.TxBurstQueue(0, bufs)
		d := time.Since(t0)
		for _, m := range bufs[n:] {
			_ = pool.Free(m)
		}
		if err := drain(n); err != nil && failure == nil {
			failure = err
		}
		return d, n
	})
	rx = microTimed(budget/2, func() (time.Duration, int) {
		for range bufs {
			if peerTo != nil {
				_ = syscall.Sendto(peerTx, frame, 0, peerTo)
			} else {
				_, _ = syscall.Write(peerTx, frame)
			}
		}
		// Loopback delivery is synchronous: the frames are queued on the
		// transport's socket by the time the writes return.
		t0 := time.Now()
		n := port.RxBurstQueue(0, bufs)
		d := time.Since(t0)
		for _, m := range bufs[:n] {
			_ = pool.Free(m)
		}
		if n == 0 && failure == nil {
			failure = fmt.Errorf("%s transport received nothing", kind)
		}
		return d, n
	})
	if failure == nil && pool.InUse() != 0 {
		failure = fmt.Errorf("%s transport leaked %d mbufs", kind, pool.InUse())
	}
	return rx, tx, failure
}
