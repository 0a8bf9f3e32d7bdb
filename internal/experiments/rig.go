package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"vignat/internal/catalog"
	"vignat/internal/dpdk"
	"vignat/internal/dpdk/transporttest"
	"vignat/internal/flow"
	"vignat/internal/libvig"
	"vignat/internal/netstack"
	"vignat/internal/nf"
	"vignat/internal/nf/nfkit"
)

// frame is one crafted frame and the side it arrives on.
type frame struct {
	data     []byte
	internal bool
}

// craft makes id's frame, arriving on the internal side or not.
func craft(id flow.ID, internal bool) frame {
	spec := &netstack.FrameSpec{ID: id}
	return frame{netstack.Craft(make([]byte, netstack.FrameLen(spec)), spec), internal}
}

// rowOptions is a one-shard deployment of capacity flows whose state
// never expires within a run.
func rowOptions(capacity int) *catalog.Options {
	return &catalog.Options{Options: nfkit.Options{Capacity: capacity, Timeout: time.Hour, Shards: 1}}
}

// rig is one NF on a single-worker engine, the timing stand of every
// experiment here. The tester holds a wire to each of the engine's two
// ports: the in-memory rings a kernel-bypass NF polls, or, with kernel
// set, unix SOCK_SEQPACKET sockets, so that every frame crosses the
// kernel's receive and send paths inside the engine's Poll.
type rig struct {
	pools            []*dpdk.Mempool
	intPort, extPort *dpdk.Port
	engine           *nf.Pipeline
	// wires are the tester's ends of the internal and external ports;
	// drained counts the frames read off each so far.
	wires   [2]transporttest.Wire
	drained [2]uint64
	// chunk is the most frames the tester queues before the engine
	// polls: half the in-memory RX ring, or what a unix socket's
	// default send buffer holds with room to spare (a blocked send
	// would wait on a Poll that only this goroutine makes).
	chunk int
	dir   string
	buf   []byte
}

// newRig runs n on a single-worker engine reading its time from clock,
// over in-memory rings or, with kernel set, unix sockets. cfg sets the
// flow cache and telemetry, both off in a zero Config; the rig fills in
// the ports and the clock.
func newRig(n nf.NF, clock libvig.Clock, kernel bool, cfg nf.Config) (*rig, error) {
	r := &rig{chunk: 8 * nf.DefaultBurst, buf: make([]byte, dpdk.DataRoomSize)}
	var err error
	if kernel {
		err = r.unixPorts(clock)
	} else {
		err = r.memPorts()
	}
	if err == nil {
		cfg.Internal, cfg.External, cfg.Clock = r.intPort, r.extPort, clock
		r.engine, err = nf.NewPipeline(n, cfg)
	}
	if err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

// memPorts gives the rig two in-memory ports over one pool.
func (r *rig) memPorts() (err error) {
	pool, err := dpdk.NewMempool(1024)
	if err != nil {
		return err
	}
	r.pools = []*dpdk.Mempool{pool}
	if r.intPort, err = dpdk.NewPort(0, dpdk.DefaultRxQueue, dpdk.DefaultTxQueue, pool); err != nil {
		return err
	}
	if r.extPort, err = dpdk.NewPort(1, dpdk.DefaultRxQueue, dpdk.DefaultTxQueue, pool); err != nil {
		return err
	}
	r.wires = [2]transporttest.Wire{&transporttest.MemWire{Port: r.intPort}, &transporttest.MemWire{Port: r.extPort}}
	return nil
}

// unixPorts gives the rig two unix-socket ports, each with its own
// pool, and the tester a transporttest.UnixWire to each.
func (r *rig) unixPorts(clock libvig.Clock) (err error) {
	r.chunk = 2 * nf.DefaultBurst
	if r.dir, err = os.MkdirTemp("", "vigrig"); err != nil {
		return err
	}
	ports := [2]**dpdk.Port{&r.intPort, &r.extPort}
	for id, name := range []string{"int", "ext"} {
		nfPath, wirePath := filepath.Join(r.dir, "nf-"+name), filepath.Join(r.dir, "wire-"+name)
		tr, err := dpdk.NewUnixTransport(dpdk.SocketConfig{Local: nfPath, Peer: wirePath, Clock: clock})
		if err != nil {
			return err
		}
		pool, err := dpdk.NewMempool(512)
		if err == nil {
			*ports[id], err = dpdk.NewPortOn(uint16(id), tr, []*dpdk.Mempool{pool})
		}
		if err != nil {
			_ = tr.Close()
			return err
		}
		r.pools = append(r.pools, pool)
		wire, err := transporttest.NewUnixWire(wirePath)
		if err != nil {
			return err
		}
		r.wires[id] = wire
		if err := wire.SetPeer(nfPath); err != nil {
			return err
		}
	}
	return nil
}

// close releases the rig's sockets and their directory.
func (r *rig) close() {
	for side, p := range []*dpdk.Port{r.intPort, r.extPort} {
		if p != nil {
			_ = p.Close()
		}
		if r.wires[side] != nil {
			_ = r.wires[side].Close()
		}
	}
	_ = os.RemoveAll(r.dir)
}

// send hands frames to the tester's wires, each to its side's port.
func (r *rig) send(frames []frame, now libvig.Time) error {
	for i, f := range frames {
		side := 0
		if !f.internal {
			side = 1
		}
		if !r.wires[side].Send(f.data, now) {
			return fmt.Errorf("experiments: wire refused frame %d", i)
		}
	}
	return nil
}

// poll runs the engine until it has consumed want frames and returns
// the time its Poll calls took. A unix port may answer its first poll
// empty while it accepts the tester's connection, so idle polls are
// retried for a while before the rig gives up.
func (r *rig) poll(want int) (time.Duration, error) {
	start := time.Now()
	for consumed, idle := 0, 0; consumed < want; {
		n, err := r.engine.Poll()
		if err != nil {
			return 0, err
		}
		if n == 0 {
			if idle++; idle > 1000 {
				return 0, fmt.Errorf("experiments: engine idle with %d frames sent", want-consumed)
			}
		}
		consumed += n
	}
	return time.Since(start), nil
}

// drain reads every frame the engine has transmitted off the tester's
// wires, then checks that no pool holds an mbuf: every frame received
// was sent on or freed.
func (r *rig) drain() error {
	for side, port := range []*dpdk.Port{r.intPort, r.extPort} {
		for want := port.Stats().TxPackets; r.drained[side] < want; r.drained[side]++ {
			if _, ok := r.wires[side].Recv(r.buf, time.Second); !ok {
				return fmt.Errorf("experiments: %d transmitted frames never reached the tester",
					want-r.drained[side])
			}
		}
	}
	for _, pool := range r.pools {
		if n := pool.InUse(); n != 0 {
			return fmt.Errorf("experiments: rig leaked %d mbufs", n)
		}
	}
	return nil
}

// run drives frames through the rig in chunks: each chunk is sent
// untimed, the Poll calls that consume it are timed, and what the
// engine transmitted is drained untimed. On the in-memory rings,
// sending and draining model the NIC's DMA engines, which run
// asynchronously to the NF core on real hardware; timing them would
// dilute both sides of a ratio with identical harness cost. On unix
// sockets the tester's own send and receive stay untimed and the
// engine's receive and send syscalls are timed. run returns the summed
// Poll time, and fails if a pool holds an mbuf afterwards.
func (r *rig) run(frames []frame, timed bool) (time.Duration, error) {
	var elapsed time.Duration
	for done := 0; done < len(frames); {
		c := min(r.chunk, len(frames)-done)
		if err := r.send(frames[done:done+c], 0); err != nil {
			return 0, err
		}
		d, err := r.poll(c)
		if err != nil {
			return 0, err
		}
		if timed {
			elapsed += d
		}
		if err := r.drain(); err != nil {
			return 0, err
		}
		done += c
	}
	return elapsed, nil
}

// catalogRig builds the catalog row called name at o, as the daemon
// builds it, on an in-memory rig with the system clock.
func catalogRig(name string, o *catalog.Options, cfg nf.Config) (*rig, error) {
	row, ok := catalog.Find(catalog.Rows, name)
	if !ok || row.New == nil {
		return nil, fmt.Errorf("experiments: no servable catalog row %q", name)
	}
	clock := libvig.NewSystemClock()
	run, err := row.New(o, clock)
	if err != nil {
		return nil, err
	}
	return newRig(run.NF, clock, false, cfg)
}

// alternate runs rounds rounds of k sides back to back, rotating the
// order every round so that each side runs in each place equally often
// and none keeps inheriting another's allocator or frequency state. It
// returns each side's per-round figures: t[s][i] is side s in round i,
// and the sides' i-th figures form pair i. With two sides, side 0 (the
// baseline, A) runs first in even rounds and side 1 (B) in odd ones.
func alternate(rounds, k int, side func(s int) (float64, error)) ([][]float64, error) {
	t := make([][]float64, k)
	for s := range t {
		t[s] = make([]float64, rounds)
	}
	for round := range rounds {
		for j := range k {
			s := (j + round) % k
			var err error
			if t[s][round], err = side(s); err != nil {
				return t, err
			}
		}
	}
	return t, nil
}
