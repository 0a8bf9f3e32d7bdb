package discard

import (
	"fmt"

	"vignat/internal/libvig"
	"vignat/internal/netstack"
	"vignat/internal/nf"
	"vignat/internal/nf/nfkit"
	"vignat/internal/nf/telemetry"
)

// This file is the discard protocol's nfkit declaration: the
// frame-level face of the §3 running example on the shared engine
// (the ring-buffered NF in prod.go, proved by RingSym, demonstrates
// Fig. 4's three models; this binding is what runs on the pipeline,
// whose TX batcher plays the role Fig. 1's ring plays for the
// callback-driven form). The NF is stateless and clockless — the smallest possible
// declaration: a Process closure, a two-cell counter array, and a
// steering hash.

// Reason IDs: the discard protocol's declared outcome taxonomy —
// two reasons for a two-path NF (symSpec's Spec names each path's).
const (
	ReasonFwd telemetry.ReasonID = iota
	ReasonDropPort9
	numReasons
)

// Reasons is the discard protocol's outcome taxonomy.
var Reasons = telemetry.MustReasonSet("discard",
	telemetry.Reason{ID: ReasonFwd, Name: "fwd", Help: "frame forwarded unmodified (not discard-protocol traffic)"},
	telemetry.Reason{ID: ReasonDropPort9, Name: "drop_port9", Drop: true, Help: "frame addressed to the discard port (RFC 863)"},
)

// frameEnv is the frame-level decision's window onto the world — one
// predicate, two outputs, the smallest stateless logic in the
// repository, written once and executed by both the production core
// and the symbolic engine (the same discipline as every other NF).
type frameEnv interface {
	DstPortIs9() bool
	Forward()
	Drop()
}

// processFrame is the frame-level stateless logic: discard port 9,
// forward everything else.
func processFrame(env frameEnv) {
	if env.DstPortIs9() {
		env.Drop()
	} else {
		env.Forward()
	}
}

// prodFrameEnv binds frameEnv to one parsed frame.
type prodFrameEnv struct {
	port9   bool
	verdict nf.Verdict
	reason  telemetry.ReasonID
}

func (e *prodFrameEnv) DstPortIs9() bool { return e.port9 }
func (e *prodFrameEnv) Forward()         { e.verdict, e.reason = nf.Forward, ReasonFwd }
func (e *prodFrameEnv) Drop()            { e.verdict, e.reason = nf.Drop, ReasonDropPort9 }

// Frame is the stateless production core the kit binds: drop frames
// addressed to port 9 (RFC 863), forward everything else unmodified.
type Frame struct {
	// env is reset per frame; a field, because a local handed to
	// processFrame as a frameEnv would be moved to the heap.
	env prodFrameEnv
	// counters[r] totals frames tagged with reason r, counted by the
	// adapter — the NF's whole counter array: it is stateless, so no
	// lifecycle counts follow.
	counters [numReasons]uint64
}

// process runs one frame whose destination port is or is not 9.
func (d *Frame) process(port9 bool) (nf.Verdict, telemetry.ReasonID) {
	e := &d.env
	*e = prodFrameEnv{port9: port9}
	processFrame(e)
	return e.verdict, e.reason
}

// frameSym drives processFrame under the engine via the kit driver.
type frameSym struct{ d *nfkit.SymDriver }

var _ frameEnv = frameSym{}

func (e frameSym) DstPortIs9() bool { return e.d.Guard("dst_port_is_9") }
func (e frameSym) Forward()         { e.d.Output("forward") }
func (e frameSym) Drop()            { e.d.Output("drop") }

// symSpec is the frame-level discard declaration: two paths, one
// guard — small enough to read the whole derived pipeline through.
func symSpec() *nfkit.SymSpec {
	return &nfkit.SymSpec{
		NF:      "discard",
		Outputs: []string{"forward", "drop"},
		Drive:   func(d *nfkit.SymDriver) { processFrame(frameSym{d}) },
		Spec: func(p *nfkit.SymPath) (telemetry.ReasonID, error) {
			is9, asked := p.Ret("dst_port_is_9")
			if !asked {
				return 0, fmt.Errorf("port predicate never evaluated")
			}
			if is9 {
				return p.Judge("port-9 frame", "drop", ReasonDropPort9)
			}
			return p.Judge("non-port-9 frame", "forward", ReasonFwd)
		},
	}
}

// Kit returns the discard protocol's capability declaration. Any shard
// could own any frame (there is no state), so steering hashes the flow
// for cache affinity and maps junk to shard 0.
func Kit() nfkit.Decl[*Frame] {
	return nfkit.Decl[*Frame]{
		Name: "discard",
		New:  func(_, _, _ int) (*Frame, error) { return &Frame{}, nil },
		Process: func(d *Frame, pkt *nf.Pkt, _ libvig.Time) (nf.Verdict, telemetry.ReasonID) {
			return d.process(pkt.Parsed.Pkt.NATable() && pkt.Parsed.Pkt.DstPort == 9)
		},
		Counters: func(d *Frame) []uint64 { return d.counters[:] },
		ShardOf: func(frame []byte, fromInternal bool, shards int) int {
			var scratch netstack.Packet
			if err := scratch.Parse(frame); err != nil || !scratch.NATable() {
				return 0
			}
			return int(scratch.FlowID().Hash() % uint64(shards))
		},
		Reasons: Reasons,
		Sym:     symSpec(),
	}
}

// NewFrameNF builds the frame-level discard NF on the pipeline.
func NewFrameNF() nf.NF { return Kit().Adapt(&Frame{}) }
