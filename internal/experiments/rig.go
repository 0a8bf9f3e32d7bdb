package experiments

import (
	"fmt"
	"time"

	"vignat/internal/catalog"
	"vignat/internal/flow"
	"vignat/internal/libvig"
	"vignat/internal/netstack"
	"vignat/internal/nf"
	"vignat/internal/nf/nfkit"
	"vignat/internal/nf/nfkit/nfkittest"
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

// send hands frames to r's wires, each to its side's port.
func send(r *nfkittest.Rig, frames []frame, now libvig.Time) error {
	for _, f := range frames {
		if err := r.Send(f.data, f.internal, now); err != nil {
			return err
		}
	}
	return nil
}

// run drives frames through r in chunks: each chunk is sent untimed,
// the Poll calls that consume it are timed, and what the engine
// transmitted is drained untimed. On the in-memory rings, sending and
// draining model the NIC's DMA engines, which run asynchronously to the
// NF core on real hardware; timing them would dilute both sides of a
// ratio with identical harness cost. On unix sockets the tester's own
// send and receive stay untimed and the engine's receive and send
// syscalls are timed. run returns the summed Poll time, and fails if a
// pool holds an mbuf afterwards.
func run(r *nfkittest.Rig, frames []frame, timed bool) (time.Duration, error) {
	var elapsed time.Duration
	for done := 0; done < len(frames); {
		c := min(r.Chunk(), len(frames)-done)
		if err := send(r, frames[done:done+c], 0); err != nil {
			return 0, err
		}
		d, err := r.Poll(c)
		if err != nil {
			return 0, err
		}
		if timed {
			elapsed += d
		}
		if err := r.Drain(nil); err != nil {
			return 0, err
		}
		done += c
	}
	return elapsed, nil
}

// catalogRig builds the catalog row called name at o, as the daemon
// builds it, on an in-memory rig with the system clock.
func catalogRig(name string, o *catalog.Options, cfg nf.Config) (*nfkittest.Rig, error) {
	row, ok := catalog.Find(catalog.Rows, name)
	if !ok || row.New == nil {
		return nil, fmt.Errorf("experiments: no servable catalog row %q", name)
	}
	clock := libvig.NewSystemClock()
	served, err := row.New(o, clock)
	if err != nil {
		return nil, err
	}
	cfg.Clock = clock
	return nfkittest.NewRig(served.NF, "mem", 1, cfg)
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
