// Concurrency coverage for the stats-scrape surfaces: the shards'
// published blocks scraped while policer shards process traffic on
// their own goroutines (the metrics-endpoint pattern, pinned under
// -race by CI), and the HTTP endpoint itself serving mid-run.
package nf_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"vignat/internal/discard"
	"vignat/internal/dpdk"
	"vignat/internal/flow"
	"vignat/internal/libvig"
	"vignat/internal/nat"
	"vignat/internal/netstack"
	"vignat/internal/nf"
	"vignat/internal/nf/nfkit/nfkittest"
	"vignat/internal/nf/telemetry"
	"vignat/internal/policer"
)

const scrapeShards = 4

// generousPolicer is the never-drops configuration the pure-scrape
// tests use; the reason-conformance test swaps in a starved one.
var generousPolicer = policer.Config{
	Rate: 1 << 30, Burst: 1 << 30, Capacity: 1024, Timeout: time.Hour,
}

// buildScrapePolicer returns a sharded policer plus per-shard ingress
// frames, pre-steered with ShardOf so each driving goroutine touches
// only the shard it owns.
func buildScrapePolicer(t testing.TB, cfg policer.Config) (*policer.Sharded, [][][]byte) {
	t.Helper()
	s, err := policer.NewSharded(cfg, libvig.NewVirtualClock(0), scrapeShards)
	if err != nil {
		t.Fatal(err)
	}
	frames := make([][][]byte, scrapeShards)
	for i := 0; i < 256; i++ {
		spec := &netstack.FrameSpec{ID: flow.ID{
			SrcIP: flow.MakeAddr(198, 51, 100, 7), SrcPort: 443,
			DstIP: flow.MakeAddr(10, 0, byte(i>>8), byte(i)), DstPort: 8080,
			Proto: flow.UDP,
		}, PayloadLen: 16}
		frame := netstack.Craft(make([]byte, netstack.FrameLen(spec)), spec)
		sh := s.ShardOf(frame, false)
		frames[sh] = append(frames[sh], frame)
	}
	for sh := range frames {
		if len(frames[sh]) == 0 {
			t.Fatalf("shard %d got no subscribers", sh)
		}
	}
	return s, frames
}

// processPublished drives one frame through a shard the way the engine
// drives a burst: process, then publish.
func processPublished(shard nf.NF, frame []byte, fromInternal bool) nf.Verdict {
	v := nfkittest.Send(shard, frame, fromInternal)
	shard.(nf.Publisher).Publish(nf.FlowCache{})
	return v
}

// TestBlocksConcurrentScrapeWithPolicer drives every policer shard
// from its own goroutine — the run-to-completion arrangement — while
// a scraper goroutine hammers NFStats and the per-shard scrapes.
// Snapshots must be race-free and monotone.
func TestBlocksConcurrentScrapeWithPolicer(t *testing.T) {
	s, frames := buildScrapePolicer(t, generousPolicer)
	const perShard = 3000

	var wg sync.WaitGroup
	stop := make(chan struct{})
	scraperDone := make(chan struct{})
	go func() {
		defer close(scraperDone)
		var last uint64
		for {
			snap := s.NFStats()
			if snap.Processed < last {
				t.Error("aggregate snapshot went backwards")
				return
			}
			last = snap.Processed
			for i := 0; i < s.Shards(); i++ {
				_ = s.ShardScrape(i) // per-shard scrape races the owner too
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	for w := 0; w < scrapeShards; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			shard := s.Shard(w)
			for i := 0; i < perShard; i++ {
				f := frames[w][i%len(frames[w])]
				if processPublished(shard, f, false) != nf.Forward {
					t.Error("warmed ingress dropped")
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-scraperDone

	snap := s.NFStats()
	if snap.Processed != scrapeShards*perShard || snap.Forwarded != scrapeShards*perShard {
		t.Fatalf("final snapshot %+v, want %d processed", snap, scrapeShards*perShard)
	}
}

// consistent reports whether one scraped document's totals for the
// source sel names are one read of its counters: processed = Σ reasons
// = forwarded + dropped.
func consistent(t *testing.T, doc, sel string) bool {
	t.Helper()
	one := func(metric string) uint64 { return sumU64(promVals(t, doc, metric, sel)) }
	processed := one("nf_processed_total")
	return processed == one("nf_reason_total") && processed == one("nf_forwarded_total")+one("nf_dropped_total")
}

// TestServeMetricsScrapesUnderTraffic runs the HTTP endpoint against a
// policer being driven concurrently and checks the /metrics document:
// every scrape taken under traffic is consistent with itself, and the
// drill-downs (Sharded.Counters, the policer-level Stats view) are
// safe to call alongside.
func TestServeMetricsScrapesUnderTraffic(t *testing.T) {
	s, frames := buildScrapePolicer(t, generousPolicer)
	m, err := nf.ServeMetrics("127.0.0.1:0", nf.SourceOf("vigpol-test", s, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	var wg sync.WaitGroup
	for w := 0; w < scrapeShards; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			shard := s.Shard(w)
			for i := 0; i < 2000; i++ {
				processPublished(shard, frames[w][i%len(frames[w])], false)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	// Scrape while the workers run (at least three times), then once
	// after the join.
	for i, running := 0, true; running || i < 3; i++ {
		_, _ = s.Counters(), s.Stats()
		doc := scrapeProm(t, m.Addr())
		if len(promVals(t, doc, "nf_processed_total", `nf="vigpol-test"`)) != 1 {
			t.Fatalf("metrics document missing source:\n%s", doc)
		}
		if !consistent(t, doc, `nf="vigpol-test"`) {
			t.Fatalf("scrape %d is not one read of the counters:\n%s", i, doc)
		}
		select {
		case <-done:
			running = false
		default:
		}
	}

	if got := promVals(t, scrapeProm(t, m.Addr()), "nf_processed_total", `nf="vigpol-test"`); len(got) != 1 || got[0] != scrapeShards*2000 {
		t.Fatalf("endpoint reports %v processed, want [%d]", got, scrapeShards*2000)
	}
}

// TestScrapeReadsEachSourceOnce: one /metrics document is one read of
// each source — what makes its series consistent with one another
// whatever the counters do between two reads.
func TestScrapeReadsEachSourceOnce(t *testing.T) {
	reads := make([]int, 2)
	source := func(i int) nf.MetricSource {
		return nf.MetricSource{Name: fmt.Sprintf("once-%d", i), Read: func() nf.Scrape {
			reads[i]++
			// A source whose counters move between any two reads.
			n := uint64(reads[i])
			return nf.Scrape{
				Stats:    nf.Stats{Processed: 3 * n, Forwarded: 2 * n, Dropped: n},
				Reasons:  policer.Reasons,
				Counters: []uint64{policer.ReasonConform: 2 * n, policer.ReasonDropOverRate: n},
			}
		}}
	}
	m, err := nf.ServeMetrics("127.0.0.1:0", source(0), source(1))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	for n := 1; n <= 2; n++ {
		doc := scrapeProm(t, m.Addr())
		if reads[0] != n || reads[1] != n {
			t.Fatalf("%d scrapes read the sources %v times, want %d each", n, reads, n)
		}
		for i := range reads {
			if sel := fmt.Sprintf(`nf="once-%d"`, i); !consistent(t, doc, sel) {
				t.Fatalf("scrape %d: %s is not one read:\n%s", n, sel, doc)
			}
		}
	}
}

// scrapeProm fetches /metrics and returns the text exposition.
func scrapeProm(t *testing.T, addr string) string {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics served content-type %q", ct)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// promVals returns the sample values of metric whose label set contains
// every substring in sel.
func promVals(t *testing.T, doc, metric string, sel ...string) []uint64 {
	t.Helper()
	var out []uint64
	for _, line := range strings.Split(doc, "\n") {
		if !strings.HasPrefix(line, metric+"{") {
			continue
		}
		matched := true
		for _, s := range sel {
			if !strings.Contains(line, s) {
				matched = false
				break
			}
		}
		if !matched {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 2 {
			t.Fatalf("malformed exposition line %q", line)
		}
		v, err := strconv.ParseUint(f[1], 10, 64)
		if err != nil {
			t.Fatalf("non-integer sample in %q: %v", line, err)
		}
		out = append(out, v)
	}
	return out
}

func sumU64(vs []uint64) uint64 {
	var s uint64
	for _, v := range vs {
		s += v
	}
	return s
}

// TestServeMetricsDuplicateAndReopen: one endpoint's sources must be
// named apart (the name labels every series), and a name is free
// again the moment its endpoint closes — a fresh listener serves the
// new source under it. Nothing about a name outlives its endpoint.
func TestServeMetricsDuplicateAndReopen(t *testing.T) {
	readA := func() nf.Scrape { return nf.Scrape{Stats: nf.Stats{Processed: 1}} }
	if _, err := nf.ServeMetrics("127.0.0.1:0",
		nf.MetricSource{Name: "dup-twice", Read: readA},
		nf.MetricSource{Name: "dup-twice", Read: readA}); err == nil || !strings.Contains(err.Error(), "dup-twice") {
		t.Fatalf("same-call duplicate not rejected by name (err=%v)", err)
	}
	m1, err := nf.ServeMetrics("127.0.0.1:0", nf.MetricSource{Name: "dup-src", Read: readA})
	if err != nil {
		t.Fatal(err)
	}
	if err := m1.Close(); err != nil {
		t.Fatal(err)
	}
	readB := func() nf.Scrape { return nf.Scrape{Stats: nf.Stats{Processed: 77}} }
	m2, err := nf.ServeMetrics("127.0.0.1:0", nf.MetricSource{Name: "dup-src", Read: readB})
	if err != nil {
		t.Fatalf("reopen after close rejected: %v", err)
	}
	defer m2.Close()
	if got := promVals(t, scrapeProm(t, m2.Addr()), "nf_processed_total", `nf="dup-src"`); len(got) != 1 || got[0] != 77 {
		t.Fatalf("/metrics serves processed %v after reopen, want [77]", got)
	}
}

// TestServeMetricsPrometheusReasonConformance is the in-process scrape
// conformance check CI pins under -race: a starved policer driven from
// one goroutine per shard while the Prometheus surface is scraped
// mid-traffic. Every scrape must be consistent with itself (processed =
// Σ reasons = forwarded + dropped) and monotone on the one before, and
// once traffic quiesces the drop-class reason totals must sum exactly
// to Dropped (the taxonomy invariant the symbolic cross-check
// promises).
func TestServeMetricsPrometheusReasonConformance(t *testing.T) {
	starved := policer.Config{Rate: 1, Burst: 1, Capacity: 1024, Timeout: time.Hour}
	s, frames := buildScrapePolicer(t, starved)
	m, err := nf.ServeMetrics("127.0.0.1:0", nf.SourceOf("vigpol-prom", s, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	const perShard = 1500
	var wg sync.WaitGroup
	stop := make(chan struct{})
	scraperDone := make(chan struct{})
	go func() {
		defer close(scraperDone)
		var last uint64
		for {
			doc := scrapeProm(t, m.Addr())
			vals := promVals(t, doc, "nf_processed_total", `nf="vigpol-prom"`)
			if len(vals) != 1 {
				t.Errorf("want one nf_processed_total sample, got %d", len(vals))
				return
			}
			if vals[0] < last {
				t.Errorf("nf_processed_total went backwards: %d then %d", last, vals[0])
				return
			}
			last = vals[0]
			if !consistent(t, doc, `nf="vigpol-prom"`) {
				t.Errorf("a scrape under traffic is not one read of the counters:\n%s", doc)
				return
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	for w := 0; w < scrapeShards; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			shard := s.Shard(w)
			for i := 0; i < perShard; i++ {
				f := frames[w][i%len(frames[w])]
				// Ingress: the 1-byte budget rejects every frame (over
				// rate). Egress: unmetered passthrough, forwarded.
				if processPublished(shard, f, false) != nf.Drop {
					t.Error("starved ingress forwarded")
					return
				}
				if processPublished(shard, f, true) != nf.Forward {
					t.Error("egress passthrough dropped")
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-scraperDone

	const want = scrapeShards * perShard
	doc := scrapeProm(t, m.Addr())
	dropped := promVals(t, doc, "nf_dropped_total", `nf="vigpol-prom"`)
	if len(dropped) != 1 || dropped[0] != want {
		t.Fatalf("nf_dropped_total %v, want [%d]", dropped, want)
	}
	dropSum := sumU64(promVals(t, doc, "nf_reason_total", `nf="vigpol-prom"`, `class="drop"`))
	if dropSum != dropped[0] {
		t.Fatalf("drop-class reasons sum to %d, nf_dropped_total is %d", dropSum, dropped[0])
	}
	fwdSum := sumU64(promVals(t, doc, "nf_reason_total", `nf="vigpol-prom"`, `class="forward"`))
	if fwdSum != want {
		t.Fatalf("forward-class reasons sum to %d, want %d", fwdSum, want)
	}
	if over := promVals(t, doc, "nf_reason_total", `reason="drop_over_rate"`); sumU64(over) != want {
		t.Fatalf("drop_over_rate %v, want all %d ingress drops", over, want)
	}

	// Every reason series names a declared reason, classed as the
	// policer's reason set declares it.
	for _, r := range policer.Reasons.Reasons() {
		class := "forward"
		if r.Drop {
			class = "drop"
		}
		if got := promVals(t, doc, "nf_reason_total", `nf="vigpol-prom"`, fmt.Sprintf("reason=%q,class=%q", r.Name, class)); len(got) != 1 {
			t.Fatalf("reason %s class %s has %d series, want 1", r.Name, class, len(got))
		}
	}
	if n := len(promVals(t, doc, "nf_reason_total", `nf="vigpol-prom"`)); n != policer.Reasons.Len() {
		t.Fatalf("%d reason series, want one per declared reason (%d)", n, policer.Reasons.Len())
	}
}

// TestMetricsTelemetryTraceExposition runs the engine with telemetry
// on and checks the two surfaces it feeds: the Prometheus histogram
// rendering and the sampled /debug/trace ring (including the
// NF-declared reason label on a dropped packet).
func TestMetricsTelemetryTraceExposition(t *testing.T) {
	pool, intPort, extPort := twoPorts(t, 32)
	pipe, err := nf.NewPipeline(discard.NewFrameNF(), nf.Config{
		Internal: intPort, External: extPort,
		Telemetry: true, TimingStride: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	nf.SetTraceSample(pipe, 1)
	m, err := nf.ServeMetrics("127.0.0.1:0",
		nf.SourceOf("discard-tel", pipe.NF(), pipe))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	buf := make([]byte, 2048)
	host, server := flow.MakeAddr(10, 0, 0, 1), flow.MakeAddr(198, 51, 100, 1)
	for _, dst := range []uint16{80, 9} { // one forward, one drop, separate bursts
		id := flow.ID{SrcIP: host, DstIP: server, SrcPort: 4000, DstPort: dst}
		if !intPort.DeliverRx(udpFrame(t, buf, id), 0) {
			t.Fatal("rx rejected")
		}
		if _, err := pipe.Poll(); err != nil {
			t.Fatal(err)
		}
	}
	drainAll(t, extPort, pool)

	doc := scrapeProm(t, m.Addr())
	if n := len(promVals(t, doc, "nf_poll_ns_bucket", `nf="discard-tel"`)); n == 0 {
		t.Fatal("no nf_poll_ns_bucket samples with telemetry enabled")
	}
	if slow := promVals(t, doc, "nf_pkt_ns_count", `path="slow"`); len(slow) != 1 || slow[0] != 2 {
		t.Fatalf("nf_pkt_ns_count{path=slow} %v, want [2]", slow)
	}
	if occ := promVals(t, doc, "nf_burst_occupancy_count", `nf="discard-tel"`); len(occ) != 1 || occ[0] != 2 {
		t.Fatalf("nf_burst_occupancy_count %v, want [2]", occ)
	}
	if strings.Contains(doc, "nf_wire_") {
		t.Fatal("a busy-polling in-memory pipeline exposes wire series")
	}

	resp, err := http.Get("http://" + m.Addr() + "/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var traces map[string][]telemetry.Record
	if err := json.NewDecoder(resp.Body).Decode(&traces); err != nil {
		t.Fatal(err)
	}
	recs := traces["discard-tel"]
	if len(recs) != 2 {
		t.Fatalf("trace ring holds %d records, want 2 (sample=1, 2 bursts)", len(recs))
	}
	var sawDrop bool
	for _, r := range recs {
		if !r.Forwarded {
			sawDrop = true
			if r.Reason != "drop_port9" {
				t.Fatalf("dropped record carries reason %q, want drop_port9", r.Reason)
			}
			if r.DstPort != 9 {
				t.Fatalf("dropped record tuple %v:%d, want dst port 9", r.Dst, r.DstPort)
			}
		}
	}
	if !sawDrop {
		t.Fatal("no dropped packet in the trace ring")
	}

	// The profiling surface is mounted on the same endpoint.
	resp2, err := http.Get("http://" + m.Addr() + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/ returned %d", resp2.StatusCode)
	}
}

// TestMetricsWireExposition scrapes a wire-mode pipeline: what its
// queue pair did — frames against syscalls on each port, waits and
// moderated sleeps — is on /metrics, read while the engine could be
// running.
func TestMetricsWireExposition(t *testing.T) {
	const frames = 5
	side := func(id uint16) (*dpdk.Port, *dpdk.UDPTransport) {
		tr, err := dpdk.NewUDPTransport(dpdk.SocketConfig{Local: "127.0.0.1:0"})
		if err != nil {
			t.Fatal(err)
		}
		pool, err := dpdk.NewMempool(32)
		if err != nil {
			t.Fatal(err)
		}
		port, err := dpdk.NewPortOn(id, tr, []*dpdk.Mempool{pool})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = port.Close() })
		return port, tr
	}
	intPort, intTr := side(0)
	extPort, _ := side(1)
	pipe, err := nf.NewPipeline(discard.NewFrameNF(), nf.Config{
		Internal: intPort, External: extPort, IdleWait: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := nf.ServeMetrics("127.0.0.1:0", nf.SourceOf("wired", pipe.NF(), pipe))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	conn, err := net.Dial("udp", intTr.LocalAddr(0))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	buf := make([]byte, 2048)
	id := flow.ID{SrcIP: flow.MakeAddr(10, 0, 0, 1), DstIP: flow.MakeAddr(198, 51, 100, 1), SrcPort: 4000, DstPort: 80}
	for i := 0; i < frames; i++ {
		if _, err := conn.Write(udpFrame(t, buf, id)); err != nil {
			t.Fatal(err)
		}
	}
	for got, deadline := 0, time.Now().Add(5*time.Second); got < frames; {
		n, err := pipe.PollWorker(0)
		if err != nil || time.Now().After(deadline) {
			t.Fatalf("polled %d of %d frames: %v", got, frames, err)
		}
		got += n
	}

	doc := scrapeProm(t, m.Addr())
	one := func(metric string, sel ...string) uint64 {
		t.Helper()
		vs := promVals(t, doc, metric, append(sel, `nf="wired"`, `queue="0"`)...)
		if len(vs) != 1 {
			t.Fatalf("%s%v has %d samples, want 1", metric, sel, len(vs))
		}
		return vs[0]
	}
	if v := one("nf_wire_rx_frames_total", `port="internal"`); v != frames {
		t.Fatalf("internal port received %d frames by its own count, want %d", v, frames)
	}
	if sys := one("nf_wire_rx_syscalls_total", `port="internal"`); sys == 0 {
		t.Fatal("frames arrived by no syscall")
	}
	if v := one("nf_wire_rx_frames_total", `port="external"`); v != 0 {
		t.Fatalf("silent external port counts %d frames", v)
	}
	// The external port has no peer: the link is down, nothing is sent.
	if v := one("nf_wire_tx_syscalls_total", `port="external"`) + one("nf_wire_tx_eagain_total", `port="external"`); v != 0 {
		t.Fatalf("a port with no peer made %d TX syscalls", v)
	}
	// Nothing left through the external port (it has no peer), so no
	// reply was awaited.
	if one("nf_wire_sleeps_total") == 0 || one("nf_wire_reply_waits_total") != 0 {
		t.Fatal("a partial burst that sent nothing out was not followed by a moderated sleep")
	}
	_ = one("nf_wire_waits_total")
	// The frames came in through the internal port's pool, at most all
	// at once; the silent external port's pool never lent an mbuf.
	if hw := one("nf_mempool_high_water", `port="internal"`); hw == 0 || hw > frames {
		t.Fatalf("internal mempool high water %d after %d frames", hw, frames)
	}
	if hw := one("nf_mempool_high_water", `port="external"`); hw != 0 {
		t.Fatalf("silent external port's mempool high water %d", hw)
	}
	if size := one("nf_mempool_size", `port="internal"`); size != 32 {
		t.Fatalf("mempool size %d, want 32", size)
	}
	// One queue pair, one pool per port.
	if n := len(promVals(t, doc, "nf_wire_waits_total", `nf="wired"`)); n != 1 {
		t.Fatalf("%d queue pairs report waits, want 1", n)
	}
	if n := len(promVals(t, doc, "nf_mempool_size", `nf="wired"`)); n != 2 {
		t.Fatalf("%d mempools on /metrics, want 2", n)
	}
}

// TestEngineReportMempoolLine: the end-of-run report prints every RX
// queue's high-water mark against its pool size, and every shard's
// flow-table high-water mark against its capacity, on the lines
// scripts/wire_smoke.sh reads (a chain's labelled by element); an NF
// without flow tables prints no table line.
func TestEngineReportMempoolLine(t *testing.T) {
	pools := []nf.MempoolFill{
		{Port: "internal", Queue: 0, Size: 1024, HighWater: 37},
		{Port: "internal", Queue: 1, Size: 1024, HighWater: 5},
		{Port: "external", Queue: 0, Size: 1024, HighWater: 41},
		{Port: "external", Queue: 1, Size: 1024},
	}
	const pool = "  mempool high water: internal.q0=37/1024 internal.q1=5/1024 external.q0=41/1024 external.q1=0/1024\n"
	const table = "  flow table high water: s0=1024/32767 s1=0/32767\n"
	var b strings.Builder
	nf.FprintEngineReport(&b, nf.PipelineStats{}, nf.Stats{}, pools, []nf.TableFill{
		{Shard: 0, Capacity: 32767, HighWater: 1024},
		{Shard: 1, Capacity: 32767},
	})
	if lines := strings.SplitAfter(b.String(), "\n"); len(lines) != 4 || lines[1] != pool || lines[2] != table {
		t.Fatalf("report:\n%s\nwant its second and third lines:\n%s%s", b.String(), pool, table)
	}
	b.Reset()
	nf.FprintEngineReport(&b, nf.PipelineStats{}, nf.Stats{}, pools, nil)
	if lines := strings.SplitAfter(b.String(), "\n"); len(lines) != 3 || lines[1] != pool {
		t.Fatalf("report without tables:\n%s\nwant its second and last line:\n%s", b.String(), pool)
	}
	// A chain's tables carry the name of the element keeping each.
	const chained = "  flow table high water: firewall.s0=64/65535 vignat.s0=64/65535\n"
	b.Reset()
	nf.FprintEngineReport(&b, nf.PipelineStats{}, nf.Stats{}, pools, []nf.TableFill{
		{Elem: "firewall", Capacity: 65535, HighWater: 64},
		{Elem: "vignat", Capacity: 65535, HighWater: 64},
	})
	if lines := strings.SplitAfter(b.String(), "\n"); len(lines) != 4 || lines[2] != chained {
		t.Fatalf("chain report:\n%s\nwant its third line:\n%s", b.String(), chained)
	}
}

// TestMetricsFlowTableHighWater: while every NAT shard opens flows on
// its own goroutine, /metrics serves each shard's flow-table high-water
// mark beside its capacity. No scrape sees a mark fall or pass its
// capacity, and once the shards are done each mark is the number of
// flows its shard opened.
func TestMetricsFlowTableHighWater(t *testing.T) {
	const shards, capacity = 2, 1024
	s, err := nat.NewSharded(nat.Config{Capacity: capacity, Timeout: time.Hour,
		ExternalIP: flow.MakeAddr(192, 0, 2, 1), PortBase: 1024, ExternalPort: 1}, libvig.NewVirtualClock(0), shards)
	if err != nil {
		t.Fatal(err)
	}
	frames := make([][][]byte, shards)
	for i := 0; i < 600; i++ {
		spec := &netstack.FrameSpec{ID: flow.ID{
			SrcIP: flow.MakeAddr(10, 0, byte(i>>8), byte(i)), SrcPort: 5000,
			DstIP: flow.MakeAddr(198, 51, 100, 7), DstPort: 53,
			Proto: flow.UDP,
		}, PayloadLen: 16}
		frame := netstack.Craft(make([]byte, netstack.FrameLen(spec)), spec)
		sh := s.ShardOf(frame, true)
		frames[sh] = append(frames[sh], frame)
	}
	m, err := nf.ServeMetrics("127.0.0.1:0", nf.SourceOf("nat-test", s, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	var wg sync.WaitGroup
	for w := 0; w < shards; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			shard := s.Shard(w)
			for _, f := range frames[w] {
				processPublished(shard, f, true)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	last := make([]uint64, shards)
	marks := func() []uint64 {
		t.Helper()
		doc := scrapeProm(t, m.Addr())
		out := make([]uint64, shards)
		for sh := range out {
			sel := []string{`nf="nat-test"`, fmt.Sprintf(`shard="%d"`, sh)}
			hw, cp := promVals(t, doc, "nf_flow_table_high_water", sel...), promVals(t, doc, "nf_flow_table_capacity", sel...)
			if len(hw) != 1 || len(cp) != 1 || cp[0] != capacity/shards {
				t.Fatalf("shard %d: high water %v, capacity %v; want one of each, capacity %d", sh, hw, cp, capacity/shards)
			}
			if hw[0] < last[sh] || hw[0] > cp[0] {
				t.Fatalf("shard %d: high water %d after %d, capacity %d", sh, hw[0], last[sh], cp[0])
			}
			out[sh], last[sh] = hw[0], hw[0]
		}
		return out
	}
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		marks()
	}
	got := marks()
	for sh := range got {
		if got[sh] != uint64(len(frames[sh])) {
			t.Fatalf("shard %d: high water %d after %d flows", sh, got[sh], len(frames[sh]))
		}
	}
}
