package spec

import (
	"fmt"

	"vignat/internal/flow"
	"vignat/internal/libvig"
	"vignat/internal/policer"
)

// PolicerOracle is the abstract interpreter over spec-level policer
// state: the token-bucket contract executed literally on a plain map.
// It is the differential-testing oracle for internal/policer — feed it
// the same packets as a real policer and it reports the first
// divergence from the specification:
//
//   - a subscriber's long-run forwarded volume never exceeds
//     burst + rate·elapsed (the budget law, enforced per packet:
//     forward iff the refilled bucket covers the wire length);
//   - conforming traffic is never dropped — a packet that fits the
//     budget must go through;
//   - bursts are bounded by the bucket depth: back-to-back traffic past
//     Burst bytes is clipped no matter how idle the subscriber was;
//   - egress (internal-side) traffic is never metered and always passes;
//   - a subscriber idle for Texp is forgotten, and re-admission starts
//     a fresh full burst;
//   - non-IPv4 frames are dropped.
//
// The refill law is computed in the same 1e-9-byte fixed point as the
// implementation's contract — level' = min(burst, level + rate·Δt) is
// exact over the integers, so the oracle demands bit-equality of
// verdicts over arbitrarily long traces, with no tolerance window.
type PolicerOracle struct {
	rate   int64 // bytes/second == units/ns
	burstU int64
	cap    int // 0 = unbounded (sharded runs, where per-shard fill is not spec-visible)
	texp   libvig.Time

	subs map[flow.Addr]*oracleBucket
}

// oracleBucket carries the two clocks the implementation keeps: the
// refill clock (TokenBucket.lastRefill, which never runs backwards —
// a regressed timestamp must not double-pay the regressed interval)
// and the last-seen stamp (the DChain rejuvenation time expiry reads).
type oracleBucket struct {
	level  int64 // 1e-9-byte units
	refill libvig.Time
	seen   libvig.Time
}

const policerOracleUnit = int64(1_000_000_000)

// NewPolicerOracle builds a spec-state oracle for a policer enforcing
// rate bytes/second with a burst-byte depth over at most cap
// subscribers (0 = unbounded) and inactivity timeout texp.
func NewPolicerOracle(rate, burst int64, cap int, texp libvig.Time) *PolicerOracle {
	return &PolicerOracle{
		rate:   rate,
		burstU: burst * policerOracleUnit,
		cap:    cap,
		texp:   texp,
		subs:   make(map[flow.Addr]*oracleBucket),
	}
}

// Size returns the number of tracked spec-level subscribers.
func (o *PolicerOracle) Size() int { return len(o.subs) }

// expire forgets every subscriber idle for Texp or longer at now.
func (o *PolicerOracle) expire(now libvig.Time) {
	for k, b := range o.subs {
		if b.seen+o.texp <= now {
			delete(o.subs, k)
		}
	}
}

// refill advances b to now by the budget law. Δt ≤ 0 (a regressed
// timestamp) refills nothing and leaves the refill clock at its
// high-water mark, mirroring the contract's regression guard — a
// regression must neither mint tokens now nor pay the regressed
// interval out twice once time recovers.
func (o *PolicerOracle) refill(b *oracleBucket, now libvig.Time) {
	dt := now - b.refill
	if dt <= 0 {
		return
	}
	if missing := o.burstU - b.level; dt >= (missing+o.rate-1)/o.rate {
		b.level = o.burstU
	} else {
		b.level += dt * o.rate
	}
	b.refill = now
}

// Conforms reports whether an ingress packet of wireBytes bytes for
// subscriber client fits its budget at now: what the policer must
// forward. It moves no budget: a caller that sees only what an element
// after the policer let through learns here what the policer did.
func (o *PolicerOracle) Conforms(client flow.Addr, wireBytes int, now libvig.Time) bool {
	o.expire(now)
	b := oracleBucket{level: o.burstU, refill: now}
	if cur := o.subs[client]; cur != nil {
		b = *cur
		o.refill(&b, now)
	} else if o.cap > 0 && len(o.subs) >= o.cap {
		return false
	}
	return int64(wireBytes)*policerOracleUnit <= b.level
}

// Step advances the spec state for a packet of wireBytes bytes headed
// for subscriber client, arriving on the external side (ingress) or the
// internal side at time now; policeable says whether the frame parsed
// as IPv4 (the spec drops everything else). It compares the
// specification's demanded outcome with what the real policer
// observably did and returns a non-nil error naming the first
// violation.
func (o *PolicerOracle) Step(client flow.Addr, wireBytes int, ingress, policeable bool,
	now libvig.Time, got policer.Verdict) error {
	o.expire(now)

	if !policeable {
		if got != policer.VerdictDrop {
			return fmt.Errorf("spec: non-IPv4 packet must be dropped, policer did %v", got)
		}
		return nil
	}
	if !ingress {
		if got != policer.VerdictPassthrough {
			return fmt.Errorf("spec: egress packet must pass through unmetered, policer did %v", got)
		}
		return nil
	}

	b := o.subs[client]
	if b == nil {
		if o.cap > 0 && len(o.subs) >= o.cap {
			if got != policer.VerdictDrop {
				return fmt.Errorf("spec: subscriber table full (cap %d), fresh subscriber %v must be dropped, policer did %v",
					o.cap, client, got)
			}
			return nil
		}
		// A fresh subscriber starts with a full burst.
		b = &oracleBucket{level: o.burstU, refill: now, seen: now}
		o.subs[client] = b
	} else {
		o.refill(b, now)
		b.seen = now // every ingress touch rejuvenates
	}
	cost := int64(wireBytes) * policerOracleUnit
	if cost <= b.level {
		if got != policer.VerdictConform {
			return fmt.Errorf("spec: conforming packet (%d B ≤ budget %d B) for %v must be forwarded, policer did %v",
				wireBytes, b.level/policerOracleUnit, client, got)
		}
		b.level -= cost
		return nil
	}
	if got != policer.VerdictDrop {
		return fmt.Errorf("spec: over-rate packet (%d B > budget %d B) for %v must be dropped, policer did %v",
			wireBytes, b.level/policerOracleUnit, client, got)
	}
	return nil
}
