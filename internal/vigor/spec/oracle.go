// Package spec holds the executable specifications of this
// repository's NFs as differential-testing oracles: abstract
// interpreters over spec-level state, fed the same packets as a real
// NF, that report its first divergence. Oracle is RFC 3022 (the NAT's
// Fig. 6, the analogue of the paper's separation-logic formalization,
// §4.1), LBOracle the balancer's steering contract, PolicerOracle the
// policer's budget law. The trace-level forms of the same
// specifications, which the proofs weave into symbolic traces (P1), are
// each NF's SymSpec.Spec, run by nfkit.VerifySym.
package spec

import (
	"fmt"

	"vignat/internal/flow"
	"vignat/internal/libvig"
	"vignat/internal/nat/stateless"
)

// Oracle is the abstract interpreter over spec-level NAT state: Fig. 6
// executed literally on a plain map. It is the differential-testing
// oracle: feed it the same packets as a real NAT and it reports the
// first divergence from RFC 3022 semantics.
//
// Everything is deterministic except the external port an implementation
// picks for a new session — RFC 3022 does not mandate a choice — so the
// oracle checks port *validity* (in range, not in use, stable per
// session) rather than a specific value.
type Oracle struct {
	cap      int
	texp     libvig.Time
	extIP    flow.Addr
	portBase uint16
	portCnt  int

	byInt   map[flow.ID]*oracleFlow
	byExt   map[flow.ID]*oracleFlow
	portUse map[uint16]*oracleFlow
}

type oracleFlow struct {
	intKey  flow.ID
	extPort uint16
	last    libvig.Time
}

// NewOracle builds a spec-state oracle with the given configuration.
func NewOracle(capacity int, texp libvig.Time, extIP flow.Addr, portBase uint16, portCount int) *Oracle {
	return &Oracle{
		cap:      capacity,
		texp:     texp,
		extIP:    extIP,
		portBase: portBase,
		portCnt:  portCount,
		byInt:    make(map[flow.ID]*oracleFlow),
		byExt:    make(map[flow.ID]*oracleFlow),
		portUse:  make(map[uint16]*oracleFlow),
	}
}

// Size returns the number of live spec-level sessions.
func (o *Oracle) Size() int { return len(o.byInt) }

// expire is Fig. 6's expire_flows(t): remove G iff G.timestamp+Texp <= t.
func (o *Oracle) expire(now libvig.Time) {
	for k, f := range o.byInt {
		if f.last+o.texp <= now {
			// remove G from flow_table
			delete(o.byInt, k)
			delete(o.byExt, o.extKeyOf(f))
			delete(o.portUse, f.extPort)
		}
	}
}

func (o *Oracle) extKeyOf(f *oracleFlow) flow.ID {
	return flow.ID{
		SrcIP:   f.intKey.DstIP,
		SrcPort: f.intKey.DstPort,
		DstIP:   o.extIP,
		DstPort: f.extPort,
		Proto:   f.intKey.Proto,
	}
}

// Observed is what the real NAT did with a packet: its verdict and the
// rewritten 5-tuple (meaningful when forwarded).
type Observed struct {
	Verdict stateless.Verdict
	Tuple   flow.ID
}

// Step advances the spec state for a packet with 5-tuple id arriving on
// the given interface at time now, NATable says whether the packet
// parsed as translatable (spec: non-NATable packets are dropped). It
// compares the specification's demanded outcome with what the real NAT
// observably did and returns a non-nil error naming the first RFC 3022
// violation.
func (o *Oracle) Step(id flow.ID, fromInternal bool, natable bool, now libvig.Time, got Observed) error {
	o.expire(now)

	if !natable {
		if got.Verdict != stateless.VerdictDrop {
			return fmt.Errorf("spec: non-NATable packet must be dropped, NAT did %v", got.Verdict)
		}
		return nil
	}

	if fromInternal {
		f := o.byInt[id]
		if f == nil {
			// Fig. 6 ll.13-18: insert if there is room.
			if len(o.byInt) >= o.cap {
				if got.Verdict != stateless.VerdictDrop {
					return fmt.Errorf("spec: table full (cap %d), internal packet must be dropped, NAT did %v", o.cap, got.Verdict)
				}
				return nil
			}
			// The NAT must forward and must have allocated a valid,
			// unused external port; adopt its choice.
			if got.Verdict != stateless.VerdictToExternal {
				return fmt.Errorf("spec: internal packet with room (size %d < cap %d) must be forwarded, NAT did %v", len(o.byInt), o.cap, got.Verdict)
			}
			p := got.Tuple.SrcPort
			if int(p) < int(o.portBase) || int(p) >= int(o.portBase)+o.portCnt {
				return fmt.Errorf("spec: allocated external port %d outside [%d,%d)", p, o.portBase, int(o.portBase)+o.portCnt)
			}
			if other := o.portUse[p]; other != nil {
				return fmt.Errorf("spec: external port %d already bound to %v", p, other.intKey)
			}
			f = &oracleFlow{intKey: id, extPort: p, last: now}
			o.byInt[id] = f
			o.byExt[o.extKeyOf(f)] = f
			o.portUse[p] = f
		} else {
			f.last = now // Fig. 6 ll.10-12
			if got.Verdict != stateless.VerdictToExternal {
				return fmt.Errorf("spec: internal packet of live session %v must be forwarded, NAT did %v", id, got.Verdict)
			}
		}
		// Verify the rewrite (Fig. 6 ll.21-28).
		want := flow.ID{
			SrcIP:   o.extIP,
			SrcPort: f.extPort,
			DstIP:   id.DstIP,
			DstPort: id.DstPort,
			Proto:   id.Proto,
		}
		if got.Tuple != want {
			return fmt.Errorf("spec: outbound rewrite mismatch: want %v, got %v", want, got.Tuple)
		}
		return nil
	}

	// External packet (Fig. 6 ll.29-39).
	want, live := o.Inbound(id, now)
	if !live {
		if got.Verdict != stateless.VerdictDrop {
			return fmt.Errorf("spec: unsolicited external packet %v must be dropped, NAT did %v", id, got.Verdict)
		}
		return nil
	}
	o.byExt[id].last = now
	if got.Verdict != stateless.VerdictToInternal {
		return fmt.Errorf("spec: external packet of live session %v must be forwarded, NAT did %v", id, got.Verdict)
	}
	if got.Tuple != want {
		return fmt.Errorf("spec: inbound rewrite mismatch: want %v, got %v", want, got.Tuple)
	}
	return nil
}

// Inbound returns what the NAT must translate an external packet with
// 5-tuple id into at now, and false when no live session admits it (the
// NAT must drop it). It moves no session: a caller that sees only what
// an element after the NAT let through learns here what the NAT did.
func (o *Oracle) Inbound(id flow.ID, now libvig.Time) (flow.ID, bool) {
	o.expire(now)
	f := o.byExt[id]
	if f == nil {
		return flow.ID{}, false
	}
	return flow.ID{SrcIP: id.SrcIP, SrcPort: id.SrcPort, DstIP: f.intKey.SrcIP, DstPort: f.intKey.SrcPort, Proto: id.Proto}, true
}
