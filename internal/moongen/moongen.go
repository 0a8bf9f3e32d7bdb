// Package moongen is the traffic-generation and measurement side of the
// evaluation (§6): the role MoonGen plays on the paper's Tester machine.
// It produces the exact workload mix of the paper's experiments —
// long-lived "background" flows that control flow-table occupancy plus
// low-rate "probe" flows that expire after every packet (the worst case
// for a NAT: miss, then insert) — merges them into one deterministic
// emission schedule, and collects per-packet latency samples.
package moongen

import (
	"errors"
	"fmt"
	"math/rand"

	"vignat/internal/flow"
	"vignat/internal/netstack"
)

// Addressing plan for generated traffic, drawn from the benchmarking
// ranges of RFC 2544 / RFC 6815 (198.18.0.0/15).
var (
	// ServerIP is the external server every generated flow talks to.
	ServerIP = flow.MakeAddr(198, 18, 0, 1)
	// ServerPort is the external service port.
	ServerPort uint16 = 80
	// internalNet is the base of the internal host range (10/8).
	internalNet = flow.MakeAddr(10, 0, 0, 0)
)

// TesterMAC and MiddleboxMAC are the L2 addresses on the generated
// frames.
var (
	TesterMAC    = netstack.MAC{0x02, 0x54, 0x45, 0x53, 0x54, 0x01}
	MiddleboxMAC = netstack.MAC{0x02, 0x4d, 0x49, 0x44, 0x42, 0x01}
)

// FlowSpec identifies one generated flow and its prebuilt frame.
type FlowSpec struct {
	ID    flow.ID
	frame []byte
}

// Frame returns the flow's prebuilt frame. Callers must copy it before
// handing it to an NF: NATs rewrite frames in place.
func (f *FlowSpec) Frame() []byte { return f.frame }

// MakeFlows builds n distinct internal→server flows, numbered from
// first, with payloadLen payload bytes per packet (0 gives minimum-size
// 64-byte frames, the paper's throughput workload). Each flow gets a
// unique internal host/port pair so every flow occupies its own
// flow-table entry.
func MakeFlows(first, n, payloadLen int, proto flow.Protocol) ([]FlowSpec, error) {
	if n <= 0 {
		return nil, errors.New("moongen: flow count must be positive")
	}
	if first < 0 || first+n > 1<<22 {
		return nil, fmt.Errorf("moongen: flow range [%d,%d) outside addressing plan", first, first+n)
	}
	flows := make([]FlowSpec, n)
	for i := 0; i < n; i++ {
		k := first + i
		// 1024 source ports per host, hosts counted up from 10.0.0.1.
		host := internalNet + flow.Addr(1+k/1024)
		port := uint16(10000 + k%1024)
		id := flow.ID{
			SrcIP:   host,
			SrcPort: port,
			DstIP:   ServerIP,
			DstPort: ServerPort,
			Proto:   proto,
		}
		spec := &netstack.FrameSpec{
			SrcMAC:     TesterMAC,
			DstMAC:     MiddleboxMAC,
			ID:         id,
			PayloadLen: payloadLen,
		}
		buf := make([]byte, netstack.FrameLen(spec))
		flows[i] = FlowSpec{ID: id, frame: netstack.Craft(buf, spec)}
	}
	return flows, nil
}

// ReplyFrame builds the server→NAT reply frame for a translated packet
// whose external-side tuple is ext (src = NAT's external endpoint after
// rewriting). Used by bidirectional experiments and tests.
func ReplyFrame(buf []byte, ext flow.ID) []byte {
	spec := &netstack.FrameSpec{
		SrcMAC:     TesterMAC,
		DstMAC:     MiddleboxMAC,
		ID:         ext.Reverse(),
		PayloadLen: 0,
	}
	return netstack.Craft(buf, spec)
}

// Event is one scheduled packet emission.
type Event struct {
	// Time is the virtual emission time in nanoseconds.
	Time int64
	// Flow indexes the flow list the schedule was built from.
	Flow int
	// Probe marks probe-flow packets (latency is measured on these).
	Probe bool
}

// Schedule produces a deterministic merged packet schedule:
// background flows at aggregate rate bgRate pps (round-robin over
// nbg flows) and probe flows at aggregate rate prRate pps (round-robin
// over npr flows, offset into the flow list by nbg). Rates are in
// packets per second; the schedule covers the half-open interval
// [0, duration) nanoseconds.
type Schedule struct {
	nbg, npr       int
	bgIval, prIval int64
	duration       int64

	nextBg, nextPr int64
	bgIdx, prIdx   int
	jitter         *rand.Rand
	jitterNs       int64
}

// NewSchedule creates a schedule. Setting a rate to 0 disables that
// stream. jitterNs adds deterministic ±uniform jitter to emission times
// (real generators are not perfectly isochronous); 0 disables it.
func NewSchedule(nbg int, bgRate float64, npr int, prRate float64, durationNs int64, seed int64, jitterNs int64) (*Schedule, error) {
	if durationNs <= 0 {
		return nil, errors.New("moongen: schedule duration must be positive")
	}
	s := &Schedule{
		nbg: nbg, npr: npr,
		duration: durationNs,
		jitter:   rand.New(rand.NewSource(seed)),
		jitterNs: jitterNs,
	}
	if bgRate > 0 && nbg > 0 {
		s.bgIval = int64(1e9 / bgRate)
	} else {
		s.nextBg = durationNs // never fires
	}
	if prRate > 0 && npr > 0 {
		s.prIval = int64(1e9 / prRate)
		// Offset probes half an interval so streams interleave.
		s.nextPr = s.prIval / 2
	} else {
		s.nextPr = durationNs
	}
	return s, nil
}

// Next returns the next emission, or ok=false when the schedule is
// exhausted.
func (s *Schedule) Next() (Event, bool) {
	if s.nextBg >= s.duration && s.nextPr >= s.duration {
		return Event{}, false
	}
	var ev Event
	if s.nextBg <= s.nextPr {
		ev = Event{Time: s.nextBg, Flow: s.bgIdx, Probe: false}
		s.bgIdx = (s.bgIdx + 1) % s.nbg
		s.nextBg += s.bgIval
	} else {
		ev = Event{Time: s.nextPr, Flow: s.nbg + s.prIdx, Probe: true}
		s.prIdx = (s.prIdx + 1) % s.npr
		s.nextPr += s.prIval
	}
	if s.jitterNs > 0 {
		ev.Time += s.jitter.Int63n(2*s.jitterNs+1) - s.jitterNs
		if ev.Time < 0 {
			ev.Time = 0
		}
	}
	return ev, true
}
