package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"time"
)

// The traced run. Layers are timed from outside, by timing calls into
// their public functions; nothing inside the program is instrumented.
// An in-process workload is traced in three passes:
//
//	A  the real loop, with spans around generate / deliver / poll /
//	   drain on every 64th burst, under a CPU profile;
//	B  a fresh NF on the same traffic, with the harness playing the
//	   engine: it calls each layer itself, in the engine's order, and
//	   times each call;
//	C  the libVig structures alone, at the workload's occupancy.
//
// A gives the ladder's three rungs and what the engine's poll costs; B
// splits the poll among the layers beneath it; what B cannot account for
// is the engine's own. The profile is an independent second opinion.

// span is one timed call. Spans of one burst share its id; Parent is the
// index of the span that caused this one, -1 for a burst's root.
type span struct {
	Name   string `json:"name"`
	Burst  int64  `json:"burst"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// maxSpans bounds the spans kept for the trace file; the per-layer sums
// keep counting past it.
const maxSpans = 40000

// tracer accumulates layer time per window and keeps the spans.
type tracer struct {
	spans  []span
	acc    map[string]*layerAcc
	series map[string][]float64 // ns per packet, one value per closed window
	pkts   map[string]uint64
	last   map[string]layerAcc // the window closed last
	clock  time.Duration       // what one clock reading costs
}

type layerAcc struct {
	ns   int64
	pkts uint64
}

func newTracer() *tracer {
	// Every span is two clock readings apart and so contains one of them;
	// price a reading once and take it off each span.
	epoch := time.Now()
	var costs []float64
	for range 9 {
		t0 := time.Now()
		for range 1000 {
			durSink = time.Since(epoch)
		}
		costs = append(costs, float64(time.Since(t0))/1000)
	}
	return &tracer{acc: map[string]*layerAcc{}, series: map[string][]float64{}, pkts: map[string]uint64{},
		clock: time.Duration(median(costs))}
}

// add credits a layer with a span of ns over pkts packets.
func (t *tracer) add(name string, ns time.Duration, pkts int) {
	a := t.acc[name]
	if a == nil {
		a = &layerAcc{}
		t.acc[name] = a
	}
	a.ns += int64(max(ns-t.clock, 0))
	a.pkts += uint64(pkts)
}

func (t *tracer) record(name string, burst int64, start, end time.Duration, parent int) int {
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{name, burst, int64(start), int64(end), parent})
	}
	return len(t.spans) - 1
}

// burst records pass A's spans for one sampled burst, from its seven
// clock readings: generate, deliver, poll, drain, the harness's checks,
// and the frees that return the mbufs. A layer's self
// time is its span less its children; these have none, and the root's
// self time is the loop's own.
func (t *tracer) burst(id int64, at [7]time.Duration) {
	root := t.record("burst", id, at[0], at[6], -1)
	for i, name := range []string{"gen", "dpdk.deliver", "nf.poll", "dpdk.drain", "harness.check", "dpdk.free"} {
		t.record(name, id, at[i], at[i+1], root)
		t.add(name, at[i+1]-at[i], burstSize)
	}
}

// closeWindow turns what accumulated since the last call into one value
// per layer, and returns the accumulated time by layer for callers that
// combine layers within the window.
func (t *tracer) closeWindow() map[string]layerAcc {
	win := make(map[string]layerAcc, len(t.acc))
	for name, a := range t.acc {
		if a.pkts > 0 {
			t.series[name] = append(t.series[name], float64(a.ns)/float64(a.pkts))
			t.pkts[name] += a.pkts
			win[name] = *a
		}
		*a = layerAcc{}
	}
	t.last = win
	return win
}

// layer is a layer's ns per packet over the windows; a layer that never
// ran reads 0.
func (t *tracer) layer(name string) summary {
	return summarize(t.series[name], t.pkts[name])
}

// writeSpans leaves the spans where a reader can find them.
func (t *tracer) writeSpans(o *options) error {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{o.workload, o.seed, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(o.outDir, "trace-"+o.workload+".json"), data, 0o644)
}

// tracePairs is how many times the traced run alternates between the
// untraced loop, the traced loop (pass A) and the direct walk (pass B).
// The engine's own cost, like the tracing overhead and the ladder's
// residual, is a small difference of two large numbers, and on a shared host each
// of them wanders by several percent from one stretch of time to the
// next; each alternation yields one difference whose two sides are
// neighbours in time, and the median over many alternations is what is
// reported.
const tracePairs = 25

// traceWindow is the length of one pass in one alternation. The traced
// run spends three quarters of --seconds on the alternations — the
// untraced yardstick, pass A and pass B taking turns — and a quarter on
// pass C. (The chain's element walk is a fourth turn and runs over.)
func (o *options) traceWindow() time.Duration {
	each := time.Duration(o.seconds * float64(time.Second) / 4 / float64(o.pairs()))
	return each - each/warmIn
}

// warmIn is the fraction of a window run untimed before each pass of an
// alternation, so that a pass is not billed for pulling its tables back
// into the cache the other pass just used.
const warmIn = 8

func (o *options) pairs() int {
	if o.quick {
		return 4
	}
	return tracePairs
}

// perAll is a layer's time in a closed window per packet of the window's
// whole traffic, whether or not the layer saw every packet.
func perAll(win map[string]layerAcc, all uint64, names ...string) float64 {
	var ns int64
	for _, n := range names {
		ns += win[n].ns
	}
	return float64(ns) / float64(all)
}

var fastFrontLayers = []string{"fastpath.extract", "fastpath.find_hit", "fastpath.find_miss", "fastpath.install", "fastpath.apply"}

func traceInProcess(o *options) (*report, error) {
	rep := &report{}
	winLen := o.traceWindow()
	r, err := newRig(o.workload, o.seed, false, nil)
	if err != nil {
		return nil, err
	}
	d, err := newDirect(o)
	if err != nil {
		return nil, err
	}
	var walk *elemWalk
	if r.chain != nil {
		if walk, err = newElemWalk(o); err != nil {
			return nil, err
		}
	}
	nfBatch := "nat.batch"
	if r.chain != nil {
		nfBatch = "nf.chain_batch"
	}

	tr := newTracer()
	var prof bytes.Buffer
	var ms0, ms1 runtime.MemStats
	ps0, ns0 := r.pipe.Stats(), r.nat.Stats()
	is0, es0 := r.intPort.Stats(), r.extPort.Stats()
	a, ref := &measured{}, &measured{}
	var engine, overhead, portSide, batcher, fastFront, nfTime, traceCost, residual []float64
	ladderLayers := []string{"dpdk.deliver", "nf.poll", "dpdk.drain", "harness.check", "dpdk.free"}
	warm := o.warm()
	runtime.ReadMemStats(&ms0)
	// One profile spans the alternations; the fold keeps only the samples
	// taken inside pass A's loop.
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	defer pprof.StopCPUProfile()
	for range o.pairs() {
		// The yardstick: one window of the real loop, untraced.
		u, err := r.measure(warm, 1, winLen, nil)
		if err != nil {
			return nil, err
		}
		warm = winLen / warmIn
		ref.attempted += u.attempted
		ref.merge(u.tally)
		untraced := tputMpps(&u.windows[0])

		// Pass A: one window of the real loop, spans on.
		m, err := r.measure(warm, 1, winLen, tr)
		if err != nil {
			return nil, err
		}
		a.windows = append(a.windows, m.windows...)
		a.attempted += m.attempted
		a.idlePolls += m.idlePolls
		a.merge(m.tally)
		sampled := tr.last["nf.poll"].pkts
		poll := perAll(tr.last, sampled, "nf.poll")
		traceCost = append(traceCost, 1-tputMpps(&m.windows[0])/untraced)
		// The ladder is everything between the two clock readings the
		// untraced run takes per burst; the residual is what it fails to
		// explain of the untraced per-packet time.
		residual = append(residual, 1-perAll(tr.last, sampled, ladderLayers...)*untraced/1e3)

		// Pass B: one window of the direct walk, on its own NF.
		win, all := d.window(winLen)
		ps := perAll(win, all, "dpdk.rx_burst", "dpdk.tx_burst")
		bt := perAll(win, all, "libvig.batcher")
		ff := perAll(win, all, fastFrontLayers...)
		nb := perAll(win, all, nfBatch)
		portSide, batcher, fastFront, nfTime = append(portSide, ps), append(batcher, bt), append(fastFront, ff), append(nfTime, nb)
		// What the engine's poll costs beyond the layers it calls.
		engine = append(engine, poll-ps-bt-ff-nb)
		if walk != nil {
			ewin, eall := walk.window(d.tr, winLen)
			overhead = append(overhead, nb-perAll(ewin, eall, walk.names...))
		}
	}
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&ms1)
	ps, ns := r.pipe.Stats(), r.nat.Stats()
	is, es := r.intPort.Stats(), r.extPort.Stats()
	rep.attempted = ref.attempted + a.attempted + d.pkts
	rep.merge(ref.tally)
	rep.merge(a.tally)
	rep.merge(d.tally)
	// Counters run through the yardstick and the warm-ins too, so they
	// are set against every packet the real loop was sent.
	pkts := float64(ref.attempted + a.attempted)
	kpkt := pkts / 1000

	poll, gen := tr.layer("nf.poll"), tr.layer("gen")
	wireSide := tr.layer("dpdk.deliver").Median + tr.layer("dpdk.drain").Median + tr.layer("dpdk.free").Median
	check := tr.layer("harness.check").Median
	rep.add("nf.poll_ns_per_pkt", poll)
	rep.add("gen.ns_per_pkt", gen)
	ladder := wireSide + poll.Median + check
	rep.value("ladder.sum_ns_per_pkt", ladder)
	rep.add("ladder.residual_share", summarize(residual, a.pkts()))
	rep.add("trace.overhead_share", summarize(traceCost, a.pkts()))
	bursts := a.pkts() / burstSize
	rep.add("tail.latency_p99_us", summarize(a.perWindow(sojournUs(0.99)), bursts))
	rep.add("tail.latency_p999_us", summarize(a.perWindow(sojournUs(0.999)), bursts))
	rep.value("tail.latency_max_us", slices.Max(a.perWindow(sojournUs(1))))

	if fp := float64(ps.FastPathHits + ps.FastPathMisses - ps0.FastPathHits - ps0.FastPathMisses); fp > 0 {
		rep.value("fastpath.hit_share", float64(ps.FastPathHits-ps0.FastPathHits)/fp)
		rep.value("fastpath.bypassed_share", float64(ps.FastPathBypassed-ps0.FastPathBypassed)/fp)
	} else {
		rep.value("fastpath.hit_share", 0)
		rep.value("fastpath.bypassed_share", 0)
	}
	rep.value("fastpath.evictions_per_kpkt", float64(ps.FastPathEvictions-ps0.FastPathEvictions)/kpkt)
	rep.value("nat.flows_created_per_kpkt", float64(ns.FlowsCreated-ns0.FlowsCreated)/kpkt)
	rep.value("nat.flows_expired_per_kpkt", float64(ns.FlowsExpired-ns0.FlowsExpired)/kpkt)
	occupancy := float64(r.nat.Table().Size()) / float64(r.nat.Table().Capacity())
	rep.value("nat.table_occupancy", occupancy)
	rep.value("nf.rx_burst_mean", float64(ps.RxPackets-ps0.RxPackets)/float64(ps.Polls-ps0.Polls))
	rep.value("nf.idle_poll_share", float64(a.idlePolls)/float64(ps.Polls-ps0.Polls))
	rep.value("nf.tx_freed_share", float64(ps.TxFreed-ps0.TxFreed)/pkts)
	rep.value("nf.dropped_share", float64(ps.Dropped-ps0.Dropped)/pkts)
	rep.value("dpdk.rx_dropped_share", float64(is.RxDropped+es.RxDropped-is0.RxDropped-es0.RxDropped)/pkts)
	rep.value("dpdk.tx_dropped_share", float64(is.TxDropped+es.TxDropped-is0.TxDropped-es0.TxDropped)/pkts)
	// The runtime's counters cover the alternations whole, pass B's share
	// of the loop included.
	rep.value("go.allocs_per_kpkt", float64(ms1.Mallocs-ms0.Mallocs)/(kpkt+float64(d.pkts)/1000))
	rep.value("go.gc_cycles", float64(ms1.NumGC-ms0.NumGC))
	rep.value("go.gc_pause_us", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e3)

	shares, unmapped, err := foldProfile(prof.Bytes(), ".(*rig).measure")
	if err != nil {
		return nil, err
	}
	for _, l := range profileLayers {
		rep.value("profile."+l+"_share", shares[l])
	}
	rep.unmapped = unmapped

	bt := d.tr
	for _, m := range []struct{ metric, layer string }{
		{"netstack.parse_ns_per_pkt", "netstack.parse"},
		{"fastpath.extract_ns_per_pkt", "fastpath.extract"},
		{"fastpath.find_hit_ns", "fastpath.find_hit"},
		{"fastpath.find_miss_ns", "fastpath.find_miss"},
		{"fastpath.install_ns", "fastpath.install"},
		{"fastpath.apply_ns", "fastpath.apply"},
		{"libvig.batcher_ns_per_pkt", "libvig.batcher"},
		{"nat.batch_ns_per_pkt", "nat.batch"},
		{"firewall.batch_ns_per_pkt", "firewall.batch"},
		{"policer.batch_ns_per_pkt", "policer.batch"},
		{"lb.batch_ns_per_pkt", "lb.batch"},
		{"nf.chain_batch_ns_per_pkt", "nf.chain_batch"},
	} {
		rep.add(m.metric, bt.layer(m.layer))
	}
	rep.add("nf.chain_overhead_ns_per_pkt", summarize(overhead, d.pkts))
	rep.add("nf.engine_ns_per_pkt", summarize(engine, d.pkts))
	memRxTx := wireSide + median(portSide)
	rep.value("dpdk.mem_rxtx_ns_per_pkt", memRxTx)

	// Pass C, and the few metrics no in-process workload can produce.
	if err := passC(o, rep, r.nat.Table().Capacity(), occupancy); err != nil {
		return nil, err
	}
	rep.zeroRest()

	// The cross-check, for the reader: what share of the traced loop each
	// layer owns by the spans and by the profile's samples. The spans
	// cannot see inside an NF's batch, so netstack, libVig and the NFs
	// are one row.
	loop := ladder + gen.Median
	glue := median(engine) + median(batcher) + median(overhead)
	rep.note("cross-check: share of the traced loop by spans | by profile (%.1f%% of samples unmapped)", 100*unmapped)
	for _, row := range []struct {
		name            string
		traced, profile float64
	}{
		{"dpdk", memRxTx / loop, shares["dpdk"]},
		{"fastpath", median(fastFront) / loop, shares["fastpath"]},
		{"netstack+libvig+nf", (median(nfTime) - median(overhead)) / loop, shares["netstack"] + shares["libvig"] + shares["nf"]},
		{"engine", glue / loop, shares["engine"]},
		{"harness", (gen.Median + check) / loop, shares["harness"]},
	} {
		rep.note("  %-20s %6.3f | %6.3f", row.name, row.traced, row.profile)
	}
	return rep, tr.writeSpans(o)
}
