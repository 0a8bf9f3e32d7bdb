package nf

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"
	"time"

	"vignat/internal/dpdk"
	"vignat/internal/nf/telemetry"
)

// MetricSource names one stats surface the metrics endpoint exposes.
// Read must be safe to call from any goroutine at any time —
// nfkit.Sharded's Scrape (one read of each shard's Block) is the
// intended producer; Pipeline.Stats, which walks worker-owned state, is
// not. The endpoint calls it exactly once per source per scrape and
// derives every series of that document from the one result.
type MetricSource struct {
	Name string
	Read func() Scrape
	// Telemetry, when set, supplies the engine telemetry block backing
	// the latency histograms and the sampled trace ring; it may return
	// nil (telemetry disabled), in which case those sections are simply
	// absent. Pipeline.Telemetry is the intended producer.
	Telemetry func() *telemetry.PipelineTel
	// Wire, when set, supplies the per-queue wire counters (waits,
	// moderated sleeps, syscalls against frames); it may return nil (the
	// pipeline is not in wire mode), and the series are then absent.
	// Pipeline.Wire is the intended producer.
	Wire func() []WireQueue
	// Mempools, when set, supplies each RX queue's mempool size and
	// high-water mark. Pipeline.Mempools is the intended producer.
	Mempools func() []MempoolFill
	// FlowTables, when set, supplies each shard's flow-table capacity and
	// high-water mark. A TableFiller NF (nfkit.Sharded, Chain) is the
	// intended producer.
	FlowTables func() []TableFill
}

// SourceOf assembles the richest MetricSource the given NF supports:
// its Scrape when it is a Scraper, else its bare NFStats (which must
// then be safe to call concurrently with traffic), its flow tables when
// it is a TableFiller, and the engine telemetry when pipe carries one.
func SourceOf(name string, nfi NF, pipe *Pipeline) MetricSource {
	src := MetricSource{Name: name, Read: func() Scrape { return Scrape{Stats: nfi.NFStats()} }}
	if sc, ok := nfi.(Scraper); ok {
		src.Read = sc.Scrape
	}
	if tf, ok := nfi.(TableFiller); ok {
		src.FlowTables = tf.FlowTables
	}
	if pipe != nil {
		src.Telemetry = pipe.Telemetry
		src.Wire = pipe.Wire
		src.Mempools = pipe.Mempools
	}
	return src
}

// Metrics is a running metrics endpoint: the engine's scrape surface
// over the per-shard counter blocks and the per-worker telemetry blocks.
// It serves
//
//	/metrics      — content-negotiated: Prometheus text exposition when
//	                the Accept header asks for text/plain or OpenMetrics
//	                (what a Prometheus scraper sends), JSON otherwise;
//	                ?format=prometheus|json overrides.
//	/debug/pprof/ — the standard Go profiling surface (heap, CPU,
//	                goroutine, ...)
//	/debug/trace  — the sampled per-packet trace rings as JSON, for
//	                sources wired to an engine with telemetry enabled
//
// Scrapes run concurrently with traffic: a source is read once per
// scrape, a handful of uncontended atomic loads per shard (histograms
// add one load per bucket), and never touches worker-owned state.
type Metrics struct {
	ln      net.Listener
	srv     *http.Server
	mux     *http.ServeMux
	sources []MetricSource
}

// ServeMetrics listens on addr (e.g. ":9090", or "127.0.0.1:0" for an
// ephemeral port) and serves the sources until Close. Source names key
// the JSON document and label every series, so one endpoint's sources
// must be named apart.
func ServeMetrics(addr string, sources ...MetricSource) (*Metrics, error) {
	if len(sources) == 0 {
		return nil, errors.New("nf: metrics endpoint needs at least one source")
	}
	seen := make(map[string]bool, len(sources))
	for _, s := range sources {
		if s.Name == "" || s.Read == nil {
			return nil, errors.New("nf: metric source needs a name and a read function")
		}
		if seen[s.Name] {
			return nil, fmt.Errorf("nf: metric source %q named twice", s.Name)
		}
		seen[s.Name] = true
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("nf: metrics listen: %w", err)
	}
	m := &Metrics{ln: ln, sources: sources}
	mux := http.NewServeMux()
	m.mux = mux
	mux.HandleFunc("/metrics", m.handleMetrics)
	mux.HandleFunc("/debug/trace", m.handleTrace)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	m.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = m.srv.Serve(ln) }()
	return m, nil
}

// sourceJSON is one source's /metrics JSON rendering: the flat Stats
// fields (unchanged on the wire — existing map[string]Stats decoders
// keep working and ignore the additions) plus the per-reason totals.
type sourceJSON struct {
	Stats
	Reasons    map[string]uint64 `json:"reasons,omitempty"`
	Wire       []WireQueue       `json:"wire,omitempty"`
	Mempools   []MempoolFill     `json:"mempools,omitempty"`
	FlowTables []TableFill       `json:"flow_tables,omitempty"`
}

// wantsProm decides the /metrics rendering: Prometheus text when the
// client asks for it (Accept: text/plain or OpenMetrics — the
// Prometheus scraper's request), JSON otherwise; an explicit ?format=
// wins.
func wantsProm(r *http.Request) bool {
	switch r.URL.Query().Get("format") {
	case "prometheus", "text":
		return true
	case "json":
		return false
	}
	accept := r.Header.Get("Accept")
	return strings.Contains(accept, "text/plain") ||
		strings.Contains(accept, "application/openmetrics-text")
}

// handleMetrics renders every source's snapshot, negotiated between
// the JSON object and the Prometheus text exposition.
func (m *Metrics) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if wantsProm(r) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		m.writeProm(w)
		return
	}
	out := make(map[string]sourceJSON, len(m.sources))
	for _, s := range m.sources {
		sc := s.Read()
		j := sourceJSON{Stats: sc.Stats}
		if sc.Reasons != nil {
			j.Reasons = make(map[string]uint64, sc.Reasons.Len())
			for id, n := range sc.Counters[:sc.Reasons.Len()] {
				j.Reasons[sc.Reasons.Name(telemetry.ReasonID(id))] = n
			}
		}
		if s.Wire != nil {
			j.Wire = s.Wire()
		}
		if s.Mempools != nil {
			j.Mempools = s.Mempools()
		}
		if s.FlowTables != nil {
			j.FlowTables = s.FlowTables()
		}
		out[s.Name] = j
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(out)
}

// wireSeries orders the wire counters for exposition: the three a
// worker keeps for its queue pair, then the four each port keeps per
// queue.
var wireSeries = []struct {
	name, help string
	pair       func(WireQueue) uint64
	port       func(dpdk.WireStats) uint64
}{
	{name: "nf_wire_waits_total", help: "Times a worker blocked until its queue pair had traffic or the idle wait passed.",
		pair: func(q WireQueue) uint64 { return q.Waits }},
	{name: "nf_wire_reply_waits_total", help: "Times a worker that had just sent frames out of the external port waited there for their replies, at most the moderation gap.",
		pair: func(q WireQueue) uint64 { return q.ReplyWaits }},
	{name: "nf_wire_sleeps_total", help: "Times a worker slept the moderation gap after draining its queues.",
		pair: func(q WireQueue) uint64 { return q.Sleeps }},
	{name: "nf_wire_rx_syscalls_total", help: "Syscalls made receiving: readiness queries, accepts, recvmmsg.",
		port: func(s dpdk.WireStats) uint64 { return s.RxSyscalls }},
	{name: "nf_wire_rx_frames_total", help: "Frames recvmmsg returned.",
		port: func(s dpdk.WireStats) uint64 { return s.RxFrames }},
	{name: "nf_wire_tx_syscalls_total", help: "sendmmsg calls.",
		port: func(s dpdk.WireStats) uint64 { return s.TxSyscalls }},
	{name: "nf_wire_tx_eagain_total", help: "sendmmsg calls refused because the peer's buffers were full.",
		port: func(s dpdk.WireStats) uint64 { return s.TxAgain }},
}

// mempoolGauges are the per-queue mempool series.
var mempoolGauges = []struct {
	name, help string
	get        func(MempoolFill) int
}{
	{"nf_mempool_high_water", "Most mbufs checked out of an RX queue's mempool at once: its data rooms made resident.",
		func(f MempoolFill) int { return f.HighWater }},
	{"nf_mempool_size", "Mbufs in an RX queue's mempool.", func(f MempoolFill) int { return f.Size }},
}

// tableGauges are the per-shard flow-table series.
var tableGauges = []struct {
	name, help string
	get        func(TableFill) int
}{
	{"nf_flow_table_high_water", "Flow-table indices a shard has ever handed out: the records it made resident.",
		func(f TableFill) int { return f.HighWater }},
	{"nf_flow_table_capacity", "Flows a shard's table can hold.", func(f TableFill) int { return f.Capacity }},
}

// statCounters orders the Stats fields for exposition.
var statCounters = []struct {
	name, help string
	get        func(Stats) uint64
}{
	{"nf_processed_total", "Packets processed.", func(s Stats) uint64 { return s.Processed }},
	{"nf_forwarded_total", "Packets forwarded out the opposite interface.", func(s Stats) uint64 { return s.Forwarded }},
	{"nf_dropped_total", "Packets dropped by NF verdict.", func(s Stats) uint64 { return s.Dropped }},
	{"nf_expired_total", "State entries expired.", func(s Stats) uint64 { return s.Expired }},
	{"nf_fastpath_hits_total", "Verdicts taken from the established-flow cache.", func(s Stats) uint64 { return s.FastPathHits }},
	{"nf_fastpath_misses_total", "Packets that took the full slow path.", func(s Stats) uint64 { return s.FastPathMisses }},
	{"nf_fastpath_evictions_total", "Flow-cache entries displaced or reclaimed dead.", func(s Stats) uint64 { return s.FastPathEvictions }},
	{"nf_fastpath_bypassed_total", "Packets sent around the flow cache in cold mode.", func(s Stats) uint64 { return s.FastPathBypassed }},
}

// telHists orders the telemetry histograms for exposition. The path
// label splits the shared per-packet-cost metric by how the burst was
// resolved.
var telHists = []struct {
	name, labels, help string
	get                func(telemetry.Snapshot) telemetry.HistSnapshot
}{
	{"nf_poll_ns", "", "Wall time of one non-empty poll, nanoseconds.",
		func(s telemetry.Snapshot) telemetry.HistSnapshot { return s.PollNs }},
	{"nf_pkt_ns", `path="fast",`, "Amortized per-packet cost, nanoseconds, by resolution path.",
		func(s telemetry.Snapshot) telemetry.HistSnapshot { return s.FastPktNs }},
	{"nf_pkt_ns", `path="slow",`, "Amortized per-packet cost, nanoseconds, by resolution path.",
		func(s telemetry.Snapshot) telemetry.HistSnapshot { return s.SlowPktNs }},
	{"nf_burst_occupancy", "", "Packets per non-empty RX burst.",
		func(s telemetry.Snapshot) telemetry.HistSnapshot { return s.BurstOccupancy }},
	{"nf_tx_drain", "", "Mbufs per non-empty TX flush.",
		func(s telemetry.Snapshot) telemetry.HistSnapshot { return s.TxDrain }},
}

// writeProm renders the Prometheus text exposition: the Stats
// counters, the per-reason totals with their drop/forward class, and
// the merged per-worker histograms in cumulative-bucket form.
func (m *Metrics) writeProm(w io.Writer) {
	reads := make([]Scrape, len(m.sources))
	for i, s := range m.sources {
		reads[i] = s.Read()
	}
	for _, c := range statCounters {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", c.name, c.help, c.name)
		for i, s := range m.sources {
			fmt.Fprintf(w, "%s{nf=%q} %d\n", c.name, s.Name, c.get(reads[i].Stats))
		}
	}

	headed := false
	for i, s := range m.sources {
		set := reads[i].Reasons
		if set == nil {
			continue
		}
		if !headed {
			fmt.Fprintf(w, "# HELP nf_reason_total Packets per declared, path-conformance-checked outcome reason.\n# TYPE nf_reason_total counter\n")
			headed = true
		}
		for id, n := range reads[i].Counters[:set.Len()] {
			rid := telemetry.ReasonID(id)
			class := "forward"
			if set.IsDrop(rid) {
				class = "drop"
			}
			fmt.Fprintf(w, "nf_reason_total{nf=%q,reason=%q,class=%q} %d\n",
				s.Name, set.Name(rid), class, n)
		}
	}

	wires := make([][]WireQueue, len(m.sources))
	inWireMode := false
	for i, s := range m.sources {
		if s.Wire != nil {
			wires[i] = s.Wire()
			inWireMode = inWireMode || wires[i] != nil
		}
	}
	if inWireMode {
		for _, c := range wireSeries {
			fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", c.name, c.help, c.name)
			for i, s := range m.sources {
				for _, q := range wires[i] {
					if c.pair != nil {
						fmt.Fprintf(w, "%s{nf=%q,queue=\"%d\"} %d\n", c.name, s.Name, q.Queue, c.pair(q))
						continue
					}
					fmt.Fprintf(w, "%s{nf=%q,port=\"internal\",queue=\"%d\"} %d\n", c.name, s.Name, q.Queue, c.port(q.Internal))
					fmt.Fprintf(w, "%s{nf=%q,port=\"external\",queue=\"%d\"} %d\n", c.name, s.Name, q.Queue, c.port(q.External))
				}
			}
		}
	}

	pools := make([][]MempoolFill, len(m.sources))
	for i, s := range m.sources {
		if s.Mempools != nil {
			pools[i] = s.Mempools()
		}
	}
	for _, g := range mempoolGauges {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n", g.name, g.help, g.name)
		for i, s := range m.sources {
			for _, f := range pools[i] {
				fmt.Fprintf(w, "%s{nf=%q,port=%q,queue=\"%d\"} %d\n", g.name, s.Name, f.Port, f.Queue, g.get(f))
			}
		}
	}

	tables := make([][]TableFill, len(m.sources))
	for i, s := range m.sources {
		if s.FlowTables != nil {
			tables[i] = s.FlowTables()
		}
	}
	for _, g := range tableGauges {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n", g.name, g.help, g.name)
		for i, s := range m.sources {
			for _, f := range tables[i] {
				elem := ""
				if f.Elem != "" {
					elem = fmt.Sprintf(",elem=%q", f.Elem)
				}
				fmt.Fprintf(w, "%s{nf=%q%s,shard=\"%d\"} %d\n", g.name, s.Name, elem, f.Shard, g.get(f))
			}
		}
	}

	snaps := make(map[string]telemetry.Snapshot)
	var telSources []string
	for _, s := range m.sources {
		if s.Telemetry == nil {
			continue
		}
		t := s.Telemetry()
		if t == nil {
			continue
		}
		snaps[s.Name] = t.Snapshot()
		telSources = append(telSources, s.Name)
	}
	lastName := ""
	for _, h := range telHists {
		if h.name != lastName {
			fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", h.name, h.help, h.name)
			lastName = h.name
		}
		for _, name := range telSources {
			writePromHist(w, h.name, fmt.Sprintf("nf=%q,%s", name, h.labels), h.get(snaps[name]))
		}
	}
}

// writePromHist renders one merged histogram in Prometheus cumulative
// form, trimming trailing empty buckets (the le bounds are the
// log2-bucket inclusive upper bounds, 2^k − 1).
func writePromHist(w io.Writer, name, labels string, s telemetry.HistSnapshot) {
	var cum uint64
	for k := 0; k <= s.MaxBucket(); k++ {
		cum += s.Buckets[k]
		fmt.Fprintf(w, "%s_bucket{%sle=\"%d\"} %d\n", name, labels, telemetry.UpperBound(k), cum)
	}
	fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", name, labels, s.Count)
	bare := strings.TrimSuffix(labels, ",")
	fmt.Fprintf(w, "%s_sum{%s} %d\n", name, bare, s.Sum)
	fmt.Fprintf(w, "%s_count{%s} %d\n", name, bare, s.Count)
}

// handleTrace renders the sampled per-packet trace rings as one JSON
// object {source: [records]}, oldest first per worker. Sources without
// telemetry (or with it disabled) are absent.
func (m *Metrics) handleTrace(w http.ResponseWriter, _ *http.Request) {
	out := make(map[string][]telemetry.Record)
	for _, s := range m.sources {
		if s.Telemetry == nil {
			continue
		}
		t := s.Telemetry()
		if t == nil {
			continue
		}
		recs := t.TraceSnapshot()
		sort.SliceStable(recs, func(i, j int) bool {
			if recs[i].Worker != recs[j].Worker {
				return recs[i].Worker < recs[j].Worker
			}
			return recs[i].Seq < recs[j].Seq
		})
		out[s.Name] = recs
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(out)
}

// Addr returns the endpoint's actual listen address (useful with an
// ephemeral ":0" bind).
func (m *Metrics) Addr() string { return m.ln.Addr().String() }

// Handle mounts an additional handler on the endpoint's mux — the hook
// the control plane uses to share the metrics listener. Call it before
// traffic reaches the pattern; ServeMux registration is not
// synchronized against serving.
func (m *Metrics) Handle(pattern string, h http.Handler) {
	m.mux.Handle(pattern, h)
}

// Close stops serving immediately — in-flight scrapes are abandoned.
func (m *Metrics) Close() error { return m.srv.Close() }

// Shutdown is the graceful counterpart of Close: it stops accepting
// new connections and waits for in-flight requests to finish (bounded
// by ctx). A control verb that arrived just before shutdown gets its
// response instead of a reset.
func (m *Metrics) Shutdown(ctx context.Context) error { return m.srv.Shutdown(ctx) }
