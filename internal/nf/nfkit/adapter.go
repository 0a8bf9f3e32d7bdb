package nfkit

import (
	"fmt"

	"vignat/internal/fastpath"
	"vignat/internal/libvig"
	"vignat/internal/nf"
)

// Adapter is the derived production binding of one core onto the
// unified nf.NF interface — what every NF package used to hand-roll in
// its own nf.go — and the one loop that runs a burst on a core:
// ProcessBatchAt gives every packet one parse, calls the declared
// Prefetch on the burst and the declared Process on each packet. The
// adapter adds nothing to the per-packet path beyond that parse and the
// declared verdict mapping; batches read the clock once, like every NF
// in the repository.
type Adapter[C any] struct {
	d    Decl[C]
	core C
	// parses holds the parses of the burst in flight that the adapter
	// made itself (grown on demand, stable afterwards).
	parses []nf.Parsed
}

var (
	_ nf.NF         = (*Adapter[int])(nil)
	_ nf.FastPather = (*Adapter[int])(nil)
)

// Adapt exposes an existing core as a pipeline network function, the
// derived form of the per-NF AsNF constructors. The declaration must
// be complete (it is a programming error otherwise, so Adapt panics
// rather than making every NF's AsNF fallible).
func (d Decl[C]) Adapt(core C) *Adapter[C] {
	if err := d.validate(false); err != nil {
		panic(fmt.Sprintf("nfkit: Adapt on an invalid declaration: %v", err))
	}
	return &Adapter[C]{d: d, core: core}
}

// Core returns the adapted production core (tests, stats drill-down).
func (a *Adapter[C]) Core() C { return a.core }

// Name identifies the NF.
func (a *Adapter[C]) Name() string { return a.d.Name }

// ProcessBatch processes a burst, reading the clock once for the whole
// batch.
func (a *Adapter[C]) ProcessBatch(pkts []nf.Pkt, verdicts []nf.Verdict) {
	a.ProcessBatchAt(pkts, verdicts, a.d.now())
}

// ProcessBatchAt processes a burst at a caller-supplied timestamp
// (nf.FastPather). The engine's fast path uses it so the many small
// slow runs of a mixed burst share the engine's one clock read.
//
// Every packet is parsed once, on entry: a parse the packet carries (a
// chain's, which the element before may have rewritten the frame
// through) is refreshed, any other packet is parsed into the adapter's
// own scratch and carries that parse until the call returns. Prefetch
// and every Process read the packet's parse (nf.Pkt.Parsed), so a
// frame is parsed and hashed once per entry; no pointer into the
// scratch stays in pkts after the call.
func (a *Adapter[C]) ProcessBatchAt(pkts []nf.Pkt, verdicts []nf.Verdict, now libvig.Time) {
	if len(a.parses) < len(pkts) {
		a.parses = make([]nf.Parsed, len(pkts))
	}
	for i := range pkts {
		if p := pkts[i].Parsed; p != nil {
			p.Refresh()
		} else {
			a.parses[i].Parse(pkts[i].Frame)
			pkts[i].Parsed = &a.parses[i]
		}
	}
	if a.d.Prefetch != nil && len(pkts) > 1 {
		a.d.Prefetch(a.core, pkts, now)
	}
	for i := range pkts {
		verdicts[i] = a.d.Process(a.core, &pkts[i], now)
	}
	for i := range pkts {
		if pkts[i].Parsed == &a.parses[i] {
			pkts[i].Parsed = nil
		}
	}
}

// Expire advances the core's state expiry to now.
func (a *Adapter[C]) Expire(now libvig.Time) int {
	if a.d.Expire == nil {
		return 0
	}
	return a.d.Expire(a.core, now)
}

// NFStats is the declared view of the core's own counter array (owner
// goroutine only, like everything else on a bare adapter).
func (a *Adapter[C]) NFStats() nf.Stats { return a.d.Stats(a.counters()) }

// counters returns the core's live counter array, nil when the
// declaration keeps none.
func (a *Adapter[C]) counters() []uint64 {
	if a.d.Counters == nil {
		return nil
	}
	return a.d.Counters(a.core)
}

// LastReasonName returns the declared label of the reason tagged on
// the most recently processed packet, "" when no taxonomy is declared
// — the trace ring's best-effort label (owner goroutine only).
func (a *Adapter[C]) LastReasonName() string {
	if a.d.Reasons == nil {
		return ""
	}
	return a.d.Reasons.Name(a.d.LastReason(a.core))
}

// FastPathEnabled reports whether the declaration opts into the
// engine's established-flow cache.
func (a *Adapter[C]) FastPathEnabled() bool { return a.d.FastPath != nil }

// FastOffer resolves a cache-install offer through the declared hook.
func (a *Adapter[C]) FastOffer(key fastpath.Key) (uint64, fastpath.Guard, bool) {
	if a.d.FastPath == nil {
		return 0, fastpath.Guard{}, false
	}
	return a.d.FastPath.Offer(a.core, key)
}

// FastHit replays the established branch for one cached packet through
// the declared hook.
func (a *Adapter[C]) FastHit(aux uint64, pktLen int, now libvig.Time) nf.Verdict {
	return a.d.FastPath.Hit(a.core, aux, pktLen, now)
}

// FastHitFunc returns the hit hook pre-bound to the core: one closure
// call per cache hit instead of the adapter's interface dispatch (the
// engine resolves this once at pipeline construction — nf.FastHitFunc).
func (a *Adapter[C]) FastHitFunc() nf.FastHitFunc {
	if a.d.FastPath == nil {
		return nil
	}
	core, hit := a.core, a.d.FastPath.Hit
	return func(aux uint64, pktLen int, now libvig.Time) nf.Verdict {
		return hit(core, aux, pktLen, now)
	}
}
