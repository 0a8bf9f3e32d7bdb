package spec

import (
	"fmt"

	"vignat/internal/flow"
	"vignat/internal/lb"
	"vignat/internal/libvig"
)

// LBOracle is the abstract interpreter over spec-level load-balancer
// state: the balancer's contract executed literally on plain maps. It
// is the differential-testing oracle for internal/lb — feed it the same
// packets (and the same control-plane operations) as a real balancer
// and it reports the first divergence from the specification:
//
//   - VIP traffic goes only to live backends;
//   - the same flow keeps its backend while its sticky state is within
//     Texp of its last packet (stickiness);
//   - removing or expiring a backend remaps exactly the flows that
//     were pinned to it — every other flow keeps its backend;
//   - backend replies of live flows return to the client with the
//     source restored to the VIP; anything else never touches a frame;
//   - non-VIP traffic passes through unmodified or is dropped,
//     per the configured policy.
//
// Which backend a *fresh* flow selects is the implementation's choice
// (Maglev hashing here, anything consistent in principle) — the oracle
// adopts it after checking liveness, exactly as the NAT oracle adopts
// the implementation's port choice.
type LBOracle struct {
	vip         flow.Addr
	vipPort     uint16
	cap         int // 0 = unbounded (sharded runs, where per-shard fill is not spec-visible)
	texp        libvig.Time
	passthrough bool

	backends map[flow.Addr]bool
	flows    map[flow.ID]*lbOracleFlow
}

type lbOracleFlow struct {
	backend flow.Addr
	last    libvig.Time
}

// NewLBOracle builds a spec-state oracle for a balancer fronting
// vip:vipPort (vipPort 0 = any port) with sticky capacity cap (0 =
// unbounded) and inactivity timeout texp.
//
// Backends join and leave only through the control plane's add and
// drain verbs, which the harness mirrors with AddBackend and
// RemoveBackend, keeping the oracle's state transitions driven only by
// what it is told.
func NewLBOracle(vip flow.Addr, vipPort uint16, cap int, texp libvig.Time, passthrough bool) *LBOracle {
	return &LBOracle{
		vip:         vip,
		vipPort:     vipPort,
		cap:         cap,
		texp:        texp,
		passthrough: passthrough,
		backends:    make(map[flow.Addr]bool),
		flows:       make(map[flow.ID]*lbOracleFlow),
	}
}

// Size returns the number of live spec-level sticky flows.
func (o *LBOracle) Size() int { return len(o.flows) }

// Backends returns the number of live spec-level backends.
func (o *LBOracle) Backends() int { return len(o.backends) }

// AddBackend mirrors the control-plane registration of a backend.
func (o *LBOracle) AddBackend(ip flow.Addr) error {
	if o.backends[ip] {
		return fmt.Errorf("spec: backend %v already live", ip)
	}
	o.backends[ip] = true
	return nil
}

// RemoveBackend mirrors a backend's removal (explicit or by liveness
// expiry): the backend leaves and exactly its flows lose their sticky
// state.
func (o *LBOracle) RemoveBackend(ip flow.Addr) error {
	if !o.backends[ip] {
		return fmt.Errorf("spec: backend %v not live", ip)
	}
	delete(o.backends, ip)
	for k, f := range o.flows {
		if f.backend == ip {
			delete(o.flows, k)
		}
	}
	return nil
}

// expire drops every sticky flow idle for Texp or longer at now.
func (o *LBOracle) expire(now libvig.Time) {
	for k, f := range o.flows {
		if f.last+o.texp <= now {
			delete(o.flows, k)
		}
	}
}

// LBObserved is what the real balancer did with a packet: its verdict
// and the (possibly rewritten) 5-tuple, meaningful when forwarded.
type LBObserved struct {
	Verdict lb.Verdict
	Tuple   flow.ID
}

// passOrDrop checks the configured policy for traffic the balancer does
// not own.
func (o *LBOracle) passOrDrop(id flow.ID, what string, got LBObserved) error {
	if !o.passthrough {
		if got.Verdict != lb.VerdictDrop {
			return fmt.Errorf("spec: %s %v must be dropped, balancer did %v", what, id, got.Verdict)
		}
		return nil
	}
	if got.Verdict != lb.VerdictPassthrough {
		return fmt.Errorf("spec: %s %v must pass through, balancer did %v", what, id, got.Verdict)
	}
	if got.Tuple != id {
		return fmt.Errorf("spec: passthrough modified %v into %v", id, got.Tuple)
	}
	return nil
}

// Step advances the spec state for a packet with 5-tuple id arriving on
// the client side (fromClient) or the backend side at time now; lbable
// says whether the packet parsed as balanceable (unfragmented IPv4
// TCP/UDP — the spec drops everything else). It compares the
// specification's demanded outcome with what the real balancer
// observably did and returns a non-nil error naming the first
// violation.
func (o *LBOracle) Step(id flow.ID, fromClient bool, lbable bool, now libvig.Time, got LBObserved) error {
	o.expire(now)

	if !lbable {
		if got.Verdict != lb.VerdictDrop {
			return fmt.Errorf("spec: non-balanceable packet must be dropped, balancer did %v", got.Verdict)
		}
		return nil
	}

	if fromClient {
		if id.DstIP != o.vip || (o.vipPort != 0 && id.DstPort != o.vipPort) {
			return o.passOrDrop(id, "non-VIP client packet", got)
		}
		f := o.flows[id]
		if f == nil {
			// Fresh flow: must reach some live backend if one exists
			// and there is room; the oracle adopts the choice.
			if len(o.backends) == 0 {
				if got.Verdict != lb.VerdictDrop {
					return fmt.Errorf("spec: VIP packet with no live backend must be dropped, balancer did %v", got.Verdict)
				}
				return nil
			}
			if o.cap > 0 && len(o.flows) >= o.cap {
				if got.Verdict != lb.VerdictDrop {
					return fmt.Errorf("spec: sticky table full (cap %d), fresh flow must be dropped, balancer did %v", o.cap, got.Verdict)
				}
				return nil
			}
			if got.Verdict != lb.VerdictToBackend {
				return fmt.Errorf("spec: fresh VIP flow %v must be forwarded, balancer did %v", id, got.Verdict)
			}
			if !o.backends[got.Tuple.DstIP] {
				return fmt.Errorf("spec: flow %v steered to %v, which is not a live backend", id, got.Tuple.DstIP)
			}
			f = &lbOracleFlow{backend: got.Tuple.DstIP, last: now}
			o.flows[id] = f
		} else {
			f.last = now
			if got.Verdict != lb.VerdictToBackend {
				return fmt.Errorf("spec: live sticky flow %v must be forwarded, balancer did %v", id, got.Verdict)
			}
			if got.Tuple.DstIP != f.backend {
				return fmt.Errorf("spec: sticky flow %v moved %v→%v while live", id, f.backend, got.Tuple.DstIP)
			}
		}
		// Only the destination address is rewritten.
		want := id
		want.DstIP = f.backend
		if got.Tuple != want {
			return fmt.Errorf("spec: client rewrite mismatch: want %v, got %v", want, got.Tuple)
		}
		return nil
	}

	// Backend-side packet: a reply of a live sticky flow returns to the
	// client as the VIP; anything else is not the balancer's traffic.
	client := flow.ID{
		SrcIP:   id.DstIP,
		SrcPort: id.DstPort,
		DstIP:   o.vip,
		DstPort: id.SrcPort,
		Proto:   id.Proto,
	}
	f := o.flows[client]
	if f == nil || f.backend != id.SrcIP {
		return o.passOrDrop(id, "unmatched backend-side packet", got)
	}
	f.last = now
	if got.Verdict != lb.VerdictToClient {
		return fmt.Errorf("spec: reply of live flow %v must be forwarded, balancer did %v", client, got.Verdict)
	}
	want := id
	want.SrcIP = o.vip
	if got.Tuple != want {
		return fmt.Errorf("spec: reply rewrite mismatch: want %v, got %v", want, got.Tuple)
	}
	return nil
}
