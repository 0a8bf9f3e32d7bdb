package experiments

import (
	"fmt"
	"time"

	"vignat/internal/catalog"
	"vignat/internal/dpdk"
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

// rig is one catalog row, built as the daemon builds it, on a
// single-worker engine over in-memory ports: the timing stand of the
// fast-path sweep and of the telemetry experiment.
type rig struct {
	pool             *dpdk.Mempool
	intPort, extPort *dpdk.Port
	engine           *nf.Pipeline
}

// newRig builds the catalog row called name at o; cfg sets the
// engine's flow cache and telemetry, and newRig fills in its ports and
// clock.
func newRig(name string, o *catalog.Options, cfg nf.Config) (*rig, error) {
	row, ok := catalog.Find(catalog.Rows, name)
	if !ok || row.New == nil {
		return nil, fmt.Errorf("experiments: no servable catalog row %q", name)
	}
	clock := libvig.NewSystemClock()
	run, err := row.New(o, clock)
	if err != nil {
		return nil, err
	}
	pool, err := dpdk.NewMempool(1024)
	if err != nil {
		return nil, err
	}
	r := &rig{pool: pool}
	if r.intPort, err = dpdk.NewPort(0, dpdk.DefaultRxQueue, dpdk.DefaultTxQueue, pool); err != nil {
		return nil, err
	}
	if r.extPort, err = dpdk.NewPort(1, dpdk.DefaultRxQueue, dpdk.DefaultTxQueue, pool); err != nil {
		return nil, err
	}
	cfg.Internal, cfg.External, cfg.Clock = r.intPort, r.extPort, clock
	if r.engine, err = nf.NewPipeline(run.NF, cfg); err != nil {
		return nil, err
	}
	return r, nil
}

// run drives frames through the rig in chunks: each chunk is delivered
// into the RX ring of its frames' sides untimed, the Poll calls that
// consume it are timed, and the TX rings are drained untimed. RX
// delivery and TX drain model the NIC's DMA engines, which run
// asynchronously to the NF core on real hardware; timing them would
// dilute both sides of a ratio with identical harness cost. run returns
// the summed Poll time, and fails if the rig holds an mbuf afterwards.
func (r *rig) run(frames []frame, timed bool) (time.Duration, error) {
	const chunk = 8 * nf.DefaultBurst // half the RX ring
	drain := make([]*dpdk.Mbuf, nf.DefaultBurst)
	var elapsed time.Duration
	for done := 0; done < len(frames); {
		c := min(chunk, len(frames)-done)
		for j, f := range frames[done : done+c] {
			port := r.intPort
			if !f.internal {
				port = r.extPort
			}
			if !port.DeliverRx(f.data, 0) {
				return 0, fmt.Errorf("experiments: rx ring rejected frame %d", done+j)
			}
		}
		start := time.Now()
		for consumed := 0; consumed < c; {
			n, err := r.engine.Poll()
			if err != nil {
				return 0, err
			}
			if n == 0 {
				return 0, fmt.Errorf("experiments: engine idle with %d frames queued", c-consumed)
			}
			consumed += n
		}
		if timed {
			elapsed += time.Since(start)
		}
		for _, port := range []*dpdk.Port{r.extPort, r.intPort} {
			for k := port.DrainTx(drain); k > 0; k = port.DrainTx(drain) {
				for _, m := range drain[:k] {
					if err := m.Pool().Free(m); err != nil {
						return 0, err
					}
				}
			}
		}
		done += c
	}
	if n := r.pool.InUse(); n != 0 {
		return 0, fmt.Errorf("experiments: rig leaked %d mbufs", n)
	}
	return elapsed, nil
}

// alternate runs rounds rounds of side 0 (the baseline, A) and side 1
// (the side under test, B) back to back, B first in odd rounds so that
// neither side inherits the other's allocator or frequency state, and
// returns each side's per-round figures: pair i is (t[0][i], t[1][i]).
func alternate(rounds int, side func(s int) (float64, error)) (t [2][]float64, err error) {
	t = [2][]float64{make([]float64, rounds), make([]float64, rounds)}
	for round := range rounds {
		for k := range 2 {
			s := k ^ round&1
			if t[s][round], err = side(s); err != nil {
				return t, err
			}
		}
	}
	return t, nil
}
