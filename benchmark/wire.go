package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"vignat/internal/flow"
	"vignat/internal/netstack"
	"vignat/internal/nf"
)

// nat_wire: the shipped daemon, in its own process, driven over
// SOCK_SEQPACKET. Frames cross the kernel's loopback (AF_UNIX), never a
// link. The generator owns both ends of the wire with raw sockets of its
// own — it shares no code with the transport it measures — and plays one
// busy thread against the daemon's one worker, which is all a two-core
// host can run without the two stealing from each other.
//
// One operation is an outbound frame of an established flow plus, when
// its translation arrives on the external side, the reply sent back in;
// it completes when the un-translated reply arrives on the internal
// side. Every operation crosses the NAT twice.

const (
	wireFlows    = 1024
	wireInFlight = 128   // phase A: closed loop
	wireRate     = 25000 // phase B: open loop, operations per second
	wireLost     = time.Second
	opRing       = 1 << 15
)

// daemon is one running cmd/vignat.
type daemon struct {
	cmd *exec.Cmd
	dir string
	out bytes.Buffer
}

var daemonSeq int

// startDaemon spawns vignat in a fresh directory of its own under the
// scratch directory. The daemon's socket paths are relative to it, and
// so are ours as long as the scratch directory is, which keeps them
// inside sun_path's 108 bytes wherever the checkout lives.
func startDaemon(o *options) (*daemon, error) {
	abs, err := filepath.Abs(o.daemon)
	if err != nil {
		return nil, err
	}
	daemonSeq++
	d := &daemon{dir: filepath.Join(o.workDir, fmt.Sprintf("wire-%d-%d", os.Getpid(), daemonSeq))}
	if err := os.MkdirAll(d.dir, 0o755); err != nil {
		return nil, err
	}
	d.cmd = exec.Command(abs, "-verify=false", "-transport", "unix", "-workers", "1", "-timeout", "60s",
		"-int-local", "ni", "-int-peer", "gi", "-ext-local", "ne", "-ext-peer", "ge")
	d.cmd.Dir = d.dir
	d.cmd.Stdout, d.cmd.Stderr = &d.out, &d.out
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, nf.FastPathEnv+"=") && !strings.HasPrefix(kv, nf.TelemetryEnv+"=") {
			d.cmd.Env = append(d.cmd.Env, kv)
		}
	}
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	return d, nil
}

// stop ends the daemon, waits for it, and removes its directory. The
// daemon's own end-of-run report (mbuf accounting included) is its exit
// status.
func (d *daemon) stop() error {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	err := d.cmd.Wait()
	_ = os.RemoveAll(d.dir)
	if err != nil {
		return fmt.Errorf("daemon: %w\n%s", err, d.out.String())
	}
	return nil
}

// cpuNs is the daemon's CPU time so far, summed over its threads from
// the scheduler's nanosecond accounting (/proc/<pid>/stat only counts
// 10 ms ticks, a fifth of a window's worth at phase B's load).
func (d *daemon) cpuNs() (int64, error) {
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", d.cmd.Process.Pid))
	if err != nil || len(tasks) == 0 {
		return 0, fmt.Errorf("no schedstat for the daemon: %v", err)
	}
	var total int64
	for _, t := range tasks {
		data, err := os.ReadFile(t)
		if err != nil {
			continue // the thread exited between the glob and the read
		}
		var ns int64
		if _, err := fmt.Sscan(string(data), &ns); err != nil {
			return 0, err
		}
		total += ns
	}
	return total, nil
}

// ticks returns the daemon's user and system time in clock ticks.
func (d *daemon) ticks() (utime, stime int64, err error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, 0, err
	}
	// Fields after the parenthesised command name: state is the first.
	f := strings.Fields(string(data[bytes.LastIndexByte(data, ')')+1:]))
	if len(f) < 13 {
		return 0, 0, fmt.Errorf("short /proc stat line")
	}
	utime, _ = strconv.ParseInt(f[11], 10, 64)
	stime, _ = strconv.ParseInt(f[12], 10, 64)
	return utime, stime, nil
}

// wireFlow is one established session as the generator sees it.
type wireFlow struct {
	out, in         tmpl
	wantOut, wantIn flow.ID
}

type wireOp struct {
	start time.Duration // send time (closed loop) or due time (open loop)
	flow  uint16
	state uint8 // 0 free, 1 outbound sent, 2 reply sent
}

// wireGen is the generator's end of both wires.
type wireGen struct {
	d              *daemon
	lnInt, lnExt   int // our listeners; the daemon dials them on its first transmit
	rxInt, rxExt   int // accepted from the daemon, -1 until then
	txInt, txExt   int // dialled to the daemon's listeners
	flows          []wireFlow
	ops            []wireOp
	nextOp         uint32
	inFlight       int
	pending        []uint32 // operations whose reply is waiting for buffer space
	buf            []byte
	epoch          time.Time
	sent           uint64 // packets
	writes, eagain uint64
	tally
}

func listenSeqpacket(path string) (int, error) {
	fd, err := syscall.Socket(syscall.AF_UNIX, syscall.SOCK_SEQPACKET|syscall.SOCK_NONBLOCK, 0)
	if err != nil {
		return -1, err
	}
	if err := syscall.Bind(fd, &syscall.SockaddrUnix{Name: path}); err != nil {
		syscall.Close(fd)
		return -1, fmt.Errorf("bind %s: %w", path, err)
	}
	if err := syscall.Listen(fd, 4); err != nil {
		syscall.Close(fd)
		return -1, err
	}
	return fd, nil
}

// dialSeqpacket connects to a listener the daemon may still be creating.
func dialSeqpacket(path string, deadline time.Time) (int, error) {
	for {
		fd, err := syscall.Socket(syscall.AF_UNIX, syscall.SOCK_SEQPACKET|syscall.SOCK_NONBLOCK, 0)
		if err != nil {
			return -1, err
		}
		if err = syscall.Connect(fd, &syscall.SockaddrUnix{Name: path}); err == nil {
			return fd, nil
		}
		syscall.Close(fd)
		if time.Now().After(deadline) {
			return -1, fmt.Errorf("dial %s: %w", path, err)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// newWireGen is one complete set-up of nat_wire: spawn the daemon, wire
// both sides up, and establish the flows through it.
func newWireGen(o *options) (*wireGen, error) {
	d, err := startDaemon(o)
	if err != nil {
		return nil, err
	}
	g := &wireGen{d: d, rxInt: -1, rxExt: -1, lnInt: -1, lnExt: -1, txInt: -1, txExt: -1,
		ops: make([]wireOp, opRing), buf: make([]byte, 2048), epoch: time.Now()}
	if err := g.connect(); err != nil {
		g.close()
		return nil, err
	}
	if err := g.establish(o.seed); err != nil {
		g.close()
		return nil, fmt.Errorf("establishing flows: %w\n%s", err, d.out.String())
	}
	return g, nil
}

func (g *wireGen) connect() (err error) {
	if g.lnInt, err = listenSeqpacket(filepath.Join(g.d.dir, "gi.q0")); err != nil {
		return err
	}
	if g.lnExt, err = listenSeqpacket(filepath.Join(g.d.dir, "ge.q0")); err != nil {
		return err
	}
	deadline := time.Now().Add(10 * time.Second)
	if g.txInt, err = dialSeqpacket(filepath.Join(g.d.dir, "ni.q0"), deadline); err != nil {
		return err
	}
	g.txExt, err = dialSeqpacket(filepath.Join(g.d.dir, "ne.q0"), deadline)
	return err
}

// close stops the daemon and releases the sockets; it returns the
// daemon's verdict on its own run.
func (g *wireGen) close() error {
	for _, fd := range []int{g.lnInt, g.lnExt, g.rxInt, g.rxExt, g.txInt, g.txExt} {
		if fd >= 0 {
			syscall.Close(fd)
		}
	}
	return g.d.stop()
}

// recv reads one frame from the daemon's connection to listener ln,
// accepting that connection first if need be; nil means nothing there.
func (g *wireGen) recv(ln int, conn *int) []byte {
	if *conn < 0 {
		fd, _, err := syscall.Accept4(ln, syscall.SOCK_NONBLOCK)
		if err != nil {
			return nil
		}
		*conn = fd
	}
	n, err := syscall.Read(*conn, g.buf)
	if err != nil || n <= 0 {
		return nil
	}
	return g.buf[:n]
}

// recvWait is recv with a deadline, for the set-up exchange.
func (g *wireGen) recvWait(ln int, conn *int, d time.Duration) ([]byte, error) {
	deadline := time.Now().Add(d)
	for {
		if f := g.recv(ln, conn); f != nil {
			return f, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("no frame from the daemon within %v", d)
		}
	}
}

// write sends one frame; false means the socket's buffer is full.
func (g *wireGen) write(fd int, frame []byte) (bool, error) {
	g.writes++
	for {
		_, err := syscall.Write(fd, frame)
		switch err {
		case nil:
			return true, nil
		case syscall.EINTR:
			continue
		case syscall.EAGAIN:
			g.eagain++
			return false, nil
		default:
			return false, err
		}
	}
}

// establish opens the flows in batches: outbound frames in, translated
// frames out (which name the external ports), replies in, un-translated
// replies out.
func (g *wireGen) establish(seed int64) error {
	r := newRng(seed, 4)
	g.flows = make([]wireFlow, wireFlows)
	const batch = 64
	for lo := 0; lo < wireFlows; lo += batch {
		for i := lo; i < lo+batch; i++ {
			id := natFlowID(&r, 10, i)
			f := &g.flows[i]
			f.out, f.wantIn = craft(id, smallFrame), id.Reverse()
			stamp(f.out.frame, f.out.stampOff, uint32(i))
			if ok, err := g.write(g.txInt, f.out.frame); err != nil || !ok {
				return fmt.Errorf("outbound frame refused: %v", err)
			}
		}
		for range batch {
			frame, err := g.recvWait(g.lnExt, &g.rxExt, 5*time.Second)
			if err != nil {
				return err
			}
			i, ok := readStamp(frame, udpStampOff)
			if !ok || int(i) >= wireFlows {
				return fmt.Errorf("translated frame carries no stamp")
			}
			f := &g.flows[i]
			if f.wantOut, err = tupleOf(frame); err != nil {
				return err
			}
			if f.wantOut.SrcIP != natExtIP || f.wantOut.DstIP != f.wantIn.SrcIP {
				return fmt.Errorf("flow %d translated to %v", i, f.wantOut)
			}
			f.in = craft(f.wantOut.Reverse(), smallFrame)
			stamp(f.in.frame, f.in.stampOff, i)
			if ok, err := g.write(g.txExt, f.in.frame); err != nil || !ok {
				return fmt.Errorf("reply refused: %v", err)
			}
		}
		for range batch {
			frame, err := g.recvWait(g.lnInt, &g.rxInt, 5*time.Second)
			if err != nil {
				return err
			}
			i, ok := readStamp(frame, udpStampOff)
			if t, err := tupleOf(frame); !ok || int(i) >= wireFlows || err != nil || t != g.flows[i].wantIn {
				return fmt.Errorf("reply came back as %v (%v)", t, err)
			}
		}
	}
	return nil
}

// wireWindow is one window of a wire phase.
type wireWindow struct {
	ops    uint64
	wallNs int64
	cpuNs  int64    // the daemon's
	rtt    []uint32 // ns, sorted at close
	late   []uint32 // ns the generator ran behind schedule (open loop)
}

type wirePhase struct {
	windows      []wireWindow
	utime, stime int64 // daemon ticks over the phase
	wallNs       int64
}

func (p *wirePhase) perWindow(f func(w *wireWindow) float64) []float64 {
	out := make([]float64, len(p.windows))
	for i := range p.windows {
		out[i] = f(&p.windows[i])
	}
	return out
}

func (p *wirePhase) ops() uint64 {
	var n uint64
	for i := range p.windows {
		n += p.windows[i].ops
	}
	return n
}

func (p *wirePhase) cpuNs() int64 {
	var n int64
	for i := range p.windows {
		n += p.windows[i].cpuNs
	}
	return n
}

// Each completed operation is two packets through the NAT.
func wireTput(w *wireWindow) float64 { return 2 * float64(w.ops) / float64(w.wallNs) * 1e3 }
func wireCPU(w *wireWindow) float64  { return float64(w.cpuNs) / (2 * float64(w.ops)) }
func wireRTT(p float64) func(w *wireWindow) float64 {
	return func(w *wireWindow) float64 { return percentile(w.rtt, p) / 1e3 }
}

// pump moves what the daemon has sent: translated outbound frames are
// answered with their flow's reply, un-translated replies complete their
// operation (and are timed into cur, when a window is open).
func (g *wireGen) pump(cur *wireWindow) error {
	for k := 0; k < burstSize && len(g.pending) < burstSize; k++ {
		frame := g.recv(g.lnExt, &g.rxExt)
		if frame == nil {
			break
		}
		if id, ok := g.check(frame, 1, true); ok {
			g.pending = append(g.pending, id)
		}
	}
	for len(g.pending) > 0 {
		id := g.pending[0]
		f := &g.flows[g.ops[id%opRing].flow]
		stamp(f.in.frame, f.in.stampOff, id)
		ok, err := g.write(g.txExt, f.in.frame)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		g.sent++
		g.ops[id%opRing].state = 2
		g.pending = g.pending[1:]
	}
	for k := 0; k < burstSize; k++ {
		frame := g.recv(g.lnInt, &g.rxInt)
		if frame == nil {
			break
		}
		id, ok := g.check(frame, 2, false)
		if !ok {
			continue
		}
		op := &g.ops[id%opRing]
		op.state = 0
		g.inFlight--
		if cur != nil {
			cur.ops++
			cur.rtt = append(cur.rtt, uint32(time.Since(g.epoch)-op.start))
		}
	}
	return nil
}

// quiesce lets the operations in flight land, so the next phase starts
// on an idle daemon; what has not landed after wireLost is retired as
// lost.
func (g *wireGen) quiesce() error {
	deadline := time.Since(g.epoch) + wireLost
	for g.inFlight > 0 && time.Since(g.epoch) < deadline {
		if err := g.pump(nil); err != nil {
			return err
		}
	}
	g.retire(deadline + wireLost)
	return nil
}

// retire gives up on operations that have been out for wireLost at now.
func (g *wireGen) retire(now time.Duration) {
	for i := range g.ops {
		if op := &g.ops[i]; op.state != 0 && now-op.start > wireLost {
			g.fail(1, "an operation never completed (stage %d)", op.state)
			op.state = 0
			g.inFlight--
		}
	}
}

// phase runs the generator loop for a warm-up and nWin windows. Closed
// loop keeps wireInFlight operations outstanding and times each from its
// send; open loop issues one every 1/wireRate seconds whatever the
// daemon does and times each from when it was due, so a stall charges
// every operation it delayed.
func (g *wireGen) phase(open bool, warm time.Duration, nWin int, winLen time.Duration) (*wirePhase, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	ph := &wirePhase{windows: make([]wireWindow, 0, nWin)}
	var cur *wireWindow
	winEnd := time.Since(g.epoch) + warm
	var winStart time.Duration
	var cpu0, u0, s0 int64
	const gap = time.Second / wireRate
	nextDue := time.Since(g.epoch)
	nextFlow := 0
	for {
		if err := g.pump(cur); err != nil {
			return nil, err
		}
		now := time.Since(g.epoch)
		for k := 0; k < burstSize; k++ {
			// The cap binds the open loop too, but only after a stall: an
			// unbounded catch-up burst overruns the daemon's socket
			// buffers, and a full buffer there is a dropped frame. The
			// operations held back are still timed from when they were due.
			if g.inFlight >= wireInFlight || open && nextDue > now {
				break
			}
			id := g.nextOp
			op := &g.ops[id%opRing]
			if op.state != 0 {
				break // the ring is full of unanswered operations; retire will clear them
			}
			f := &g.flows[nextFlow]
			stamp(f.out.frame, f.out.stampOff, id)
			ok, err := g.write(g.txInt, f.out.frame)
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
			g.sent++
			g.nextOp++
			g.inFlight++
			*op = wireOp{start: now, flow: uint16(nextFlow), state: 1}
			nextFlow = (nextFlow + 1) % len(g.flows)
			if open {
				op.start = nextDue
				if cur != nil {
					cur.late = append(cur.late, uint32(now-nextDue))
				}
				nextDue += gap
			}
		}
		if now < winEnd {
			continue
		}
		// Window boundary: give up on what never came back, read the
		// daemon's clocks, open the next window.
		g.retire(now)
		cpu, err := g.d.cpuNs()
		if err != nil {
			return nil, err
		}
		u, s, err := g.d.ticks()
		if err != nil {
			return nil, err
		}
		if cur != nil {
			cur.cpuNs, cur.wallNs = cpu-cpu0, int64(now-winStart)
			ph.wallNs += cur.wallNs
			slices.Sort(cur.rtt)
			slices.Sort(cur.late)
			if len(ph.windows) == nWin {
				ph.utime, ph.stime = u-u0, s-s0
				return ph, nil
			}
		} else {
			u0, s0 = u, s
		}
		ph.windows = append(ph.windows, wireWindow{rtt: make([]uint32, 0, 1<<16)})
		cur = &ph.windows[len(ph.windows)-1]
		cpu0 = cpu
		winStart = time.Since(g.epoch)
		winEnd = winStart + winLen
	}
}

// check validates a frame from the daemon against the operation its
// stamp names: the operation must be at the stage this side expects, and
// the tuple must be the flow's translation (external side) or the
// original reversed (internal side). One frame in 64 also has its
// checksums verified.
func (g *wireGen) check(frame []byte, stage uint8, external bool) (uint32, bool) {
	id, ok := readStamp(frame, udpStampOff)
	var p netstack.Packet
	if err := p.Parse(frame); !ok || err != nil || !p.NATable() {
		g.fail(1, "unreadable frame from the daemon")
		return 0, false
	}
	op := &g.ops[id%opRing]
	if op.state != stage {
		g.fail(1, "frame for operation %d at stage %d, expected stage %d", id, op.state, stage)
		return 0, false
	}
	f := &g.flows[op.flow]
	want := f.wantIn
	if external {
		want = f.wantOut
	}
	if p.FlowID() != want {
		g.fail(1, "operation %d: want %v, got %v", id, want, p.FlowID())
		return id, false
	}
	if id&63 == 0 && !(p.VerifyIPChecksum() && p.VerifyL4Checksum()) {
		g.fail(1, "operation %d: bad checksum", id)
		return id, false
	}
	return id, true
}

// wireRun is a set-up generator taken through both phases.
type wireRun struct {
	g              *wireGen
	closed, opened *wirePhase
	rssMB          float64
	daemonOut      string // the daemon's own end-of-run report
}

// runWirePhases sets nat_wire up, runs phase A closed-loop and phase B
// open-loop, each nWin windows of winLen, and returns what it measured
// with the first set-up's duration.
func runWirePhases(o *options, nWin int, winLen time.Duration) (*wireRun, time.Duration, error) {
	t0 := time.Now()
	g, err := newWireGen(o)
	if err != nil {
		return nil, 0, err
	}
	first := time.Since(t0)
	run := &wireRun{g: g}
	err = func() error {
		if run.closed, err = g.phase(false, o.warm(), nWin, winLen); err != nil {
			return err
		}
		if err = g.quiesce(); err != nil {
			return err
		}
		if run.opened, err = g.phase(true, o.warm(), nWin, winLen); err != nil {
			return err
		}
		run.rssMB, err = peakRSSMB(g.d.cmd.Process.Pid)
		return err
	}()
	if cerr := g.close(); err == nil {
		err = cerr
	}
	run.daemonOut = g.d.out.String()
	return run, first, err
}

// runWire is nat_wire untraced: half of --seconds closed-loop for
// throughput, half open-loop for latency and the daemon's CPU.
func runWire(o *options) (*report, error) {
	if o.daemon == "" {
		return nil, fmt.Errorf("nat_wire needs -daemon, the built cmd/vignat (benchmark/run.sh builds and passes it)")
	}
	nWin, winLen := o.windows()
	run, first, err := runWirePhases(o, nWin/2, winLen)
	if err != nil {
		return nil, err
	}
	g := run.g
	rep := &report{attempted: g.sent, tally: g.tally}
	setup, err := timeSetups(first, o.setups(), func() error {
		g, err := newWireGen(o)
		if err != nil {
			return err
		}
		return g.close()
	})
	if err != nil {
		return nil, err
	}
	rep.add("setup_s", setup)
	rep.add("throughput_mpps", undisturbed(run.closed.perWindow(wireTput), 2*run.closed.ops(), "higher"))
	rep.add("latency_p50_us", undisturbed(run.opened.perWindow(wireRTT(0.50)), run.opened.ops(), "lower"))
	rep.add("latency_p90_us", undisturbed(run.opened.perWindow(wireRTT(0.90)), run.opened.ops(), "lower"))
	rep.add("cpu_ns_per_pkt", undisturbed(run.opened.perWindow(wireCPU), 2*run.opened.ops(), "lower"))
	rep.value("rss_mb", run.rssMB)
	return rep, nil
}
