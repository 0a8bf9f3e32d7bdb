package main

import (
	"runtime"
	"time"

	"vignat/internal/dpdk"
	"vignat/internal/fastpath"
	"vignat/internal/libvig"
	"vignat/internal/netstack"
	"vignat/internal/nf"
)

// Cold-mode thresholds of the engine's flow-cache front end, repeated
// here because the direct pass plays the engine: after coldAfter bursts
// without a hit only one packet in coldSample is looked up.
const (
	coldAfter  = 8
	coldSample = 16
)

// direct is pass B: a fresh NF walked through the workload's traffic
// with the harness in the engine's place — RX burst, flow-cache front
// end, the NF's batch, TX batching — each a call into a layer's public
// surface, each timed.
type direct struct {
	r       *rig
	tr      *tracer
	epoch   time.Time
	shard   nf.NF
	nfBatch string
	cache   *fastpath.Table // nil when the NF takes no flow cache
	fp      nf.FastPather
	fastHit nf.FastHitFunc

	toExt, toInt *libvig.Batcher[*dpdk.Mbuf]
	txNs         time.Duration // time inside TxBurst during the current flush

	burst    []pkt
	rx       []*dpdk.Mbuf
	in       []nf.Pkt
	verd     []nf.Verdict
	metas    []fastpath.Meta
	entries  []*fastpath.Entry
	admitted []bool
	look     []int
	slow     []nf.Pkt
	slowAt   []int
	slowVerd []nf.Verdict

	cold       bool
	coldStreak int
	coldTick   uint64

	pkts uint64
	tally
}

func newDirect(o *options) (*direct, error) {
	r, err := newRig(o.workload, o.seed, false, nil)
	if err != nil {
		return nil, err
	}
	d := &direct{r: r, tr: newTracer(), epoch: time.Now(), shard: r.nf, nfBatch: "nat.batch"}
	if r.chain != nil {
		d.nfBatch = "nf.chain_batch"
	}
	if s, ok := r.nf.(nf.Sharder); ok {
		d.shard = s.Shard(0)
	}
	if fp, ok := d.shard.(nf.FastPather); ok && r.fastPath > 0 && fp.FastPathEnabled() {
		d.cache, d.fp, d.fastHit = fastpath.NewTable(r.fastPath), fp, fp.FastHit
		if f, ok := d.shard.(nf.FastHitFuncer); ok {
			d.fastHit = f.FastHitFunc()
		}
	}
	flushTo := func(port *dpdk.Port) func([]*dpdk.Mbuf) error {
		return func(bufs []*dpdk.Mbuf) error {
			t := time.Since(d.epoch)
			n := port.TxBurstQueue(0, bufs)
			d.txNs += time.Since(d.epoch) - t
			for _, m := range bufs[n:] {
				_ = m.Pool().Free(m)
				d.fail(1, "TX queue refused a frame")
			}
			return nil
		}
	}
	if d.toExt, err = libvig.NewBatcher[*dpdk.Mbuf](burstSize, flushTo(r.extPort)); err != nil {
		return nil, err
	}
	if d.toInt, err = libvig.NewBatcher[*dpdk.Mbuf](burstSize, flushTo(r.intPort)); err != nil {
		return nil, err
	}
	const n = 2 * burstSize
	d.burst = make([]pkt, burstSize)
	d.rx, d.in, d.verd = make([]*dpdk.Mbuf, n), make([]nf.Pkt, 0, n), make([]nf.Verdict, n)
	d.metas, d.entries, d.admitted = make([]fastpath.Meta, n), make([]*fastpath.Entry, n), make([]bool, n)
	d.look, d.slow, d.slowAt, d.slowVerd = make([]int, 0, n), make([]nf.Pkt, 0, n), make([]int, 0, n), make([]nf.Verdict, n)
	return d, nil
}

// window walks bursts for winLen and returns the time each layer took
// and the packets walked.
func (d *direct) window(winLen time.Duration) (map[string]layerAcc, uint64) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	for end := time.Since(d.epoch) + winLen/warmIn; time.Since(d.epoch) < end; {
		d.pkts += uint64(d.walk())
	}
	clear(d.tr.acc)
	var all uint64
	for end := time.Since(d.epoch) + winLen; time.Since(d.epoch) < end; {
		all += uint64(d.walk())
	}
	d.pkts += all
	if err := nf.MbufAccounting(0, d.r.pools...); err != nil {
		d.fail(1, "%v", err)
	}
	return d.tr.closeWindow(), all
}

// walk takes one burst through the layers and returns its size.
func (d *direct) walk() int {
	r, tr := d.r, d.tr
	since := func() time.Duration { return time.Since(d.epoch) }
	r.src.next(d.burst)
	r.clock.Advance(pktTick * burstSize)
	now := r.clock.Now()
	for i := range d.burst {
		if !r.port(d.burst[i].fromInternal).DeliverRxQueue(0, d.burst[i].frame, now) {
			d.fail(1, "RX queue refused a frame")
		}
	}
	t0 := since()
	nInt := r.intPort.RxBurstQueue(0, d.rx[:burstSize])
	n := nInt + r.extPort.RxBurstQueue(0, d.rx[nInt:nInt+burstSize])
	tr.add("dpdk.rx_burst", since()-t0, n)
	pkts := d.in[:0]
	for i, m := range d.rx[:n] {
		pkts = append(pkts, nf.Pkt{Frame: m.Data, FromInternal: i < nInt})
	}
	verd := d.verd
	// What parsing these frames costs, on its own: the NFs do it again
	// inside their batch, where it cannot be seen.
	t0 = since()
	for i := range pkts {
		var p netstack.Packet
		_ = p.Parse(pkts[i].Frame)
		parseSink = p.SrcPort
	}
	tr.add("netstack.parse", since()-t0, n)

	if d.cache == nil {
		t0 = since()
		d.shard.ProcessBatch(pkts, verd)
		tr.add(d.nfBatch, since()-t0, n)
	} else {
		d.frontEnd(pkts, now)
	}

	// TX: batch the forwards per output port, free the drops.
	d.txNs = 0
	t0 = since()
	fwd := 0
	for i, m := range d.rx[:n] {
		switch {
		case verd[i] != nf.Forward:
			_ = m.Pool().Free(m)
		case pkts[i].FromInternal:
			_ = d.toExt.Push(m)
			fwd++
		default:
			_ = d.toInt.Push(m)
			fwd++
		}
	}
	_ = d.toExt.Flush()
	_ = d.toInt.Flush()
	total := since() - t0
	tr.add("dpdk.tx_burst", d.txNs, fwd)
	tr.add("libvig.batcher", total-d.txNs, n)

	// The wire side is pass A's to time; here only the count check the
	// timed run makes too.
	ne := r.extPort.DrainTxQueue(0, r.outE)
	ni := r.intPort.DrainTxQueue(0, r.outI)
	we, wi := 0, 0
	for i := range d.burst {
		if d.burst[i].forward && d.burst[i].fromInternal {
			we++
		} else if d.burst[i].forward {
			wi++
		}
	}
	if ne != we || ni != wi {
		d.fail(uint64(abs(ne-we)+abs(ni-wi)), "direct pass forwarded %d out and %d in, expected %d and %d", ne, ni, we, wi)
	}
	for _, m := range r.outE[:ne] {
		_ = m.Pool().Free(m)
	}
	for _, m := range r.outI[:ni] {
		_ = m.Pool().Free(m)
	}
	return n
}

// frontEnd is the engine's flow-cache front end, stage by stage over the
// packets the engine would look up: all of them, or one in coldSample.
func (d *direct) frontEnd(pkts []nf.Pkt, now libvig.Time) {
	tr, cache, verd, metas, entries := d.tr, d.cache, d.verd, d.metas, d.entries
	since := func() time.Duration { return time.Since(d.epoch) }
	look := d.look[:0]
	for i := range pkts {
		entries[i], d.admitted[i] = nil, false
		if d.cold {
			if d.coldTick++; d.coldTick&(coldSample-1) != 0 {
				continue
			}
		}
		look = append(look, i)
	}
	t0 := since()
	for _, i := range look {
		metas[i] = fastpath.Extract(pkts[i].Frame)
	}
	t1 := since()
	hits := 0
	for _, i := range look {
		m := &metas[i]
		if !m.OK {
			continue
		}
		lo, hi := m.Words(pkts[i].FromInternal)
		m.H = fastpath.HashWords(lo, hi)
		if e := cache.FindWords(lo, hi, m.H); e != nil && cache.Live(e) {
			entries[i] = e
			hits++
		} else {
			d.admitted[i] = cache.Admit(m.H) // the doorkeeper runs at miss time
		}
	}
	t2 := since()
	if len(look) > 0 {
		tr.add("fastpath.extract", t1-t0, len(look))
		if 2*hits >= len(look) {
			tr.add("fastpath.find_hit", t2-t1, len(look))
		} else {
			tr.add("fastpath.find_miss", t2-t1, len(look))
		}
	}
	// Hits: the NF's established-flow bookkeeping, then the rewrite.
	t0 = since()
	for _, i := range look {
		if e := entries[i]; e != nil {
			verd[i] = d.fastHit(e.Aux(), len(pkts[i].Frame), now)
		}
	}
	t1 = since()
	for _, i := range look {
		if e := entries[i]; e != nil && verd[i] == nf.Forward && !e.Identity() {
			e.Apply(pkts[i].Frame, metas[i])
		}
	}
	t2 = since()
	if hits > 0 {
		tr.add("nat.batch", t1-t0, hits)
		tr.add("fastpath.apply", t2-t1, hits)
	}
	// Misses: the NF's batch, then the installs the doorkeeper let in.
	slow, slowAt := d.slow[:0], d.slowAt[:0]
	for i := range pkts {
		if entries[i] == nil {
			slow = append(slow, pkts[i])
			slowAt = append(slowAt, i)
		}
	}
	if len(slow) > 0 {
		t0 = since()
		d.shard.ProcessBatch(slow, d.slowVerd)
		tr.add("nat.batch", since()-t0, len(slow))
		for k, i := range slowAt {
			verd[i] = d.slowVerd[k]
		}
	}
	installed := 0
	t0 = since()
	for _, i := range look {
		if !d.admitted[i] || verd[i] != nf.Forward {
			continue
		}
		key := fastpath.Key{ID: metas[i].FlowID(), FromInternal: pkts[i].FromInternal}
		if aux, guard, ok := d.fp.FastOffer(key); ok {
			cache.Install(key, metas[i].H, 0, aux, guard, fastpath.MakeTemplate(metas[i], pkts[i].Frame))
			installed++
		}
	}
	if installed > 0 {
		tr.add("fastpath.install", since()-t0, installed)
	}
	switch {
	case d.cold && (hits > 0 || installed > 0):
		d.cold, d.coldStreak = false, 0
	case !d.cold && hits == 0:
		if d.coldStreak++; d.coldStreak >= coldAfter {
			d.cold = true
		}
	case !d.cold:
		d.coldStreak = 0
	}
}

var parseSink uint16

// elemWalk runs the gateway's elements one by one over the workload's
// traffic on a chain of its own, in the order nf.Chain runs them: a
// burst's internal-side packets left to right, then its external-side
// packets right to left, each element seeing only what the ones before
// it let through. The chain's own cost is the whole chain's batch (pass
// B) less these.
type elemWalk struct {
	r     *rig
	elems []nf.NF
	names []string
	epoch time.Time
	burst []pkt
	bufs  [][]byte
	live  []nf.Pkt
	next  []nf.Pkt
	verd  []nf.Verdict
}

func newElemWalk(o *options) (*elemWalk, error) {
	r, err := newRig(o.workload, o.seed, false, nil)
	if err != nil {
		return nil, err
	}
	w := &elemWalk{
		r:     r,
		elems: r.chain.Elems(),
		names: []string{"firewall.batch", "policer.batch", "lb.batch", "nat.batch"},
		epoch: time.Now(),
		burst: make([]pkt, burstSize),
		verd:  make([]nf.Verdict, burstSize),
	}
	for range burstSize {
		w.bufs = append(w.bufs, make([]byte, dpdk.DataRoomSize))
	}
	return w, nil
}

// window walks bursts for winLen, crediting tr, and returns the time
// each element took and the packets that entered the chain.
func (w *elemWalk) window(tr *tracer, winLen time.Duration) (map[string]layerAcc, uint64) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var all uint64
	timed := false
	for end := time.Since(w.epoch) + winLen/warmIn; ; all += burstSize {
		if time.Since(w.epoch) >= end {
			if timed {
				break
			}
			timed, all, end = true, 0, time.Since(w.epoch)+winLen
			clear(tr.acc)
		}
		w.r.src.next(w.burst)
		w.r.clock.Advance(pktTick * burstSize)
		for _, fromInternal := range []bool{true, false} {
			w.live = w.live[:0]
			for i := range w.burst {
				if p := &w.burst[i]; p.fromInternal == fromInternal {
					// The NFs rewrite in place; the generator's templates
					// are not theirs to write on.
					w.live = append(w.live, nf.Pkt{Frame: w.bufs[i][:copy(w.bufs[i], p.frame)], FromInternal: fromInternal})
				}
			}
			for step := 0; step < len(w.elems) && len(w.live) > 0; step++ {
				ei := step
				if !fromInternal {
					ei = len(w.elems) - 1 - step
				}
				t0 := time.Since(w.epoch)
				w.elems[ei].ProcessBatch(w.live, w.verd)
				tr.add(w.names[ei], time.Since(w.epoch)-t0, len(w.live))
				w.next = w.next[:0]
				for i := range w.live {
					if w.verd[i] == nf.Forward {
						w.next = append(w.next, w.live[i])
					}
				}
				w.live, w.next = w.next, w.live
			}
		}
	}
	return tr.closeWindow(), all
}
