package nf

import (
	"vignat/internal/fastpath"
	"vignat/internal/libvig"
)

// FastPather is implemented by NFs that participate in the engine's
// established-flow cache (Config.FastPath): the engine consults
// FastOffer after a forwarded slow-path packet to learn which state
// the verdict resolved against, and routes subsequent packets of the
// same flow through FastHitFunc, skipping the NF's full per-packet walk.
//
// The contract that keeps the cache invisible to observers:
//
//   - FastOffer is a read-only lookup. Given the packet's
//     pre-processing key, it returns the NF-opaque handle (aux) a hit
//     should touch and a fastpath.Guard that dies when the underlying
//     state is erased. ok=false declines the offer (outcomes that may
//     change while the state lives — a balancer's backend-side
//     passthrough, which a later sticky entry could turn into a
//     rewrite — must decline).
//   - FastHit performs exactly the state mutations and counter
//     movements the slow path's established branch would perform on
//     this packet (rejuvenation, charging, per-NF counters) and
//     returns the same verdict. Header rewriting is not its job — the
//     engine replays the entry's template.
//   - Erasing guarded state must bump the guard's generation (the NF
//     wires its erasure paths to a fastpath.GenTable), so a stale
//     entry misses and the packet takes the slow path.
type FastPather interface {
	FastHitFuncer
	// FastPathEnabled reports whether the NF declares fast-path hooks
	// at all (the engine resolves it once at construction).
	FastPathEnabled() bool
	FastOffer(key fastpath.Key) (aux uint64, guard fastpath.Guard, ok bool)
	FastHit(aux uint64, pktLen int, now libvig.Time) Verdict
	// ProcessBatchAt is ProcessBatch at the caller's timestamp: the
	// slow runs between a burst's hits share the engine's clock read.
	ProcessBatchAt(pkts []Pkt, verdicts []Verdict, now libvig.Time)
}

// FastHitFunc is a cache-hit handler pre-bound to its NF state: what
// FastHit does, minus the interface dispatch. The pipeline resolves
// one per shard at construction so the per-hit call is a single
// indirect jump.
type FastHitFunc func(aux uint64, pktLen int, now libvig.Time) Verdict

// FastHitFuncer hands out a FastPather's hit handler as a pre-bound
// closure.
type FastHitFuncer interface {
	FastHitFunc() FastHitFunc
}

// Cold-mode (adaptive bypass) parameters: after coldAfter consecutive
// all-miss bursts a worker idles its classifier, probing only one in
// coldSample packets (the rest take the slow path untouched, which is
// always correct). A sampled hit — established traffic returning to a
// still-warm table — or a sampled install — a new flow seen twice,
// the front of a new established population — re-warms it. Under
// sustained churn, the steady state of a flood of never-repeating
// flows, classification overhead falls to 1/coldSample of itself: the
// doorkeeper's 15-bit tags pass a never-seen key once in ~16,000
// lookups, so a flood's dead-on-arrival installs are too rare to keep
// bouncing the worker out of cold mode.
const (
	coldAfter  = 8
	coldSample = 16 // must be a power of two
)

// processShardFast runs one shard's steered burst through the flow
// cache: cache misses accumulate into runs processed by the NF's
// ProcessBatch exactly as without the cache, hits are resolved in
// place at their exact position in the burst, so every state mutation
// happens in the same order as on the slow path.
//
// The doorkeeper runs at miss time, while the packet's extraction is
// still in registers: misses it admits are queued by burst position,
// and the post-run offer pass revisits only that queue. Under a churn
// flood — all misses, none admitted — the per-packet cost is one
// extract+hash+probe and the offer pass degenerates to nothing; the
// alternative (re-walking the whole run after the NF, re-touching
// every packet's cold metadata to ask the doorkeeper) is what the
// queue exists to avoid.
func (wk *worker) processShardFast(li, s int, now libvig.Time) {
	p := wk.p
	fp := p.fastNFs[s]
	fastHit := p.fastHits[s]
	pkts := wk.pkts[li]
	verd := wk.verd[li]
	meta := wk.meta[li][:len(pkts)]
	wk.offer = wk.offer[:0]
	var hits, misses, bypassed, installed, evictions uint64
	runStart := 0
	oc := 0 // consumed prefix of wk.offer
	sampling := wk.cold
	// expired tracks whether this shard's Fig. 6 sweep has run at the
	// burst's timestamp. The first slow run (the NF sweeps in-line per
	// packet) or the first cache hit triggers it, and repeats at the same
	// now are no-ops — nothing new crosses the deadline while now stands
	// still — so once is enough for the whole burst.
	expired := false
	flushRun := func(end int) {
		if end > runStart {
			fp.ProcessBatchAt(pkts[runStart:end], verd[runStart:end], now)
			expired = true
		}
		if oc < len(wk.offer) {
			next := oc
			for next < len(wk.offer) && int(wk.offer[next]) < end {
				next++
			}
			ins, ev := wk.offerAdmitted(s, fp, pkts, verd, meta, wk.offer[oc:next])
			installed += ins
			evictions += ev
			oc = next
		}
	}
	for i := range pkts {
		if sampling {
			wk.coldTick++
			if wk.coldTick&(coldSample-1) != 0 {
				misses++ // the slow path serves it, unexamined
				bypassed++
				continue
			}
		}
		// The extraction lives in a register-resident local; it reaches
		// the meta array only for doorkeeper-admitted misses — the one
		// case a later pass (offerAdmitted) rereads it. Hits consume it
		// right here, and plain misses never need it again.
		m := fastpath.Extract(pkts[i].Frame)
		if !m.OK {
			misses++
			continue // unparseable for the cache: slow path, like any miss
		}
		lo, hi := m.Words(pkts[i].FromInternal)
		h := fastpath.HashWords(lo, hi)
		m.H = h
		e := wk.findFor(s, lo, hi, h)
		if e != nil {
			// A candidate hit: the NF-order-preserving point of no
			// return. Everything queued before this packet runs first,
			// then the packet's own Fig. 6 expiry (the engine replays it
			// once per burst), and only then is the entry's liveness
			// judged — the expiry may be exactly what kills it.
			was := installed
			flushRun(i)
			runStart = i
			if installed != was {
				// The flush's installs may have displaced the very slot e
				// points at, which would now hold another flow's aux and
				// template: look the key up again. Gone, it is a miss.
				e = wk.findFor(s, lo, hi, h)
			}
		}
		if e != nil {
			if !expired {
				p.shardNFs[s].Expire(now)
				expired = true
			}
			if !wk.cache.Live(e) {
				wk.cache.Release(e)
				evictions++
				misses++
				continue // state is gone: the slow path re-resolves from scratch
			}
			runStart = i + 1
			v := fastHit(e.Aux(), len(pkts[i].Frame), now)
			if v == Forward && !e.Identity() {
				// Non-rewriting NFs skip the template replay outright —
				// the identity bit was precomputed at install.
				e.Apply(pkts[i].Frame, m)
			}
			verd[i] = v
			hits++
			continue
		}
		misses++
		if wk.cache.Admit(h) {
			meta[i] = m
			wk.offer = append(wk.offer, int32(i))
		}
	}
	flushRun(len(pkts))
	if pub := p.publishers[s]; pub != nil {
		pub.Publish(FlowCache{fcHits: hits, fcMisses: misses, fcEvictions: evictions, fcBypassed: bypassed})
	}
	// Mode transitions. A cold worker re-warms on evidence of
	// established traffic: a sampled hit (returning flows, table still
	// warm) or a sampled install (a new flow's second sighting — the
	// front of a new established population). A warm worker goes cold
	// after coldAfter consecutive bursts without a single hit.
	if wk.cold {
		if hits > 0 || installed > 0 {
			wk.cold, wk.coldStreak = false, 0
		}
	} else if hits == 0 && len(pkts) > 0 {
		wk.coldStreak++
		if wk.coldStreak >= coldAfter {
			wk.cold = true
		}
	} else {
		wk.coldStreak = 0
	}
	wk.stats.FastPathHits += hits
	wk.stats.FastPathMisses += misses
	wk.stats.FastPathBypassed += bypassed
	wk.stats.FastPathEvictions += evictions
}

// findFor returns shard s's cache entry for a packed key, nil on a miss.
// An entry installed for another shard is a miss: correctness never
// depends on steering, only affinity does.
func (wk *worker) findFor(s int, lo, hi, h uint64) *fastpath.Entry {
	if e := wk.cache.FindWords(lo, hi, h); e != nil && e.Shard() == int32(s) {
		return e
	}
	return nil
}

// offerAdmitted walks the doorkeeper-admitted positions of a
// just-processed slow run and installs cache entries for those the NF
// both forwarded and vouches for, diffing each packet's pre-extracted
// tuple against its (possibly rewritten) frame to build the rewrite
// template. The doorkeeper admits a key only on its second sighting,
// so churn floods of never-repeating flows queue nothing here and
// cannot thrash the table. It returns the number of entries installed
// and the number of live entries displaced doing so.
func (wk *worker) offerAdmitted(s int, fp FastPather, pkts []Pkt, verd []Verdict, meta []fastpath.Meta, idx []int32) (installed, evictions uint64) {
	for _, jj := range idx {
		j := int(jj)
		if verd[j] != Forward {
			continue
		}
		key := fastpath.Key{ID: meta[j].FlowID(), FromInternal: pkts[j].FromInternal}
		aux, guard, ok := fp.FastOffer(key)
		if !ok {
			continue
		}
		tmpl := fastpath.MakeTemplate(meta[j], pkts[j].Frame)
		installed++
		if wk.cache.Install(key, meta[j].H, int32(s), aux, guard, tmpl) {
			evictions++
		}
	}
	return installed, evictions
}
