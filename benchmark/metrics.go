package main

// The metric catalogue. BENCHMARK.json repeats these names, units and
// directions (shape_test.go keeps the two in step); README.md is the
// dictionary that says what each one means.

type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd is what a user of the NF sees. Every workload reports all of
// them on an untraced run. Failures are not a metric here: they are
// the run's failed/attempted counts, because a gated metric may never
// read 0 and this one must.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"throughput_mpps", "Mpkt/s", "higher"},
	{"latency_p50_us", "us", "lower"},
	{"latency_p90_us", "us", "lower"},
	{"cpu_ns_per_pkt", "ns", "lower"},
	{"rss_mb", "MB", "lower"},
}

// bound is the share of the parent's median by which an end-to-end
// metric may worsen before -compare calls it a regression. One bound
// serves all four workloads. The timing bounds are as wide as the
// contract lets them be because this host demands it: ten runs of one
// workload spread over twenty minutes differ by 7–14% (quartile distance
// over median) however each run is estimated, since the host itself
// drifts by that much.
var bound = map[string]float64{
	"setup_s":         0.25,
	"throughput_mpps": 0.25,
	"latency_p50_us":  0.25,
	"latency_p90_us":  0.25,
	"cpu_ns_per_pkt":  0.25,
	"rss_mb":          0.05,
}

// perLayer is what the traced run reports. A metric that a workload
// cannot exercise (wire.* in-process, nf.chain_* on a bare NAT, …) reads
// 0 there.
var perLayer = []metricDef{
	// dpdk
	{"dpdk.mem_rxtx_ns_per_pkt", "ns", "lower"},
	{"dpdk.mempool_alloc_free_ns", "ns", "lower"},
	{"dpdk.unix_rx_ns_per_pkt", "ns", "lower"},
	{"dpdk.unix_tx_ns_per_pkt", "ns", "lower"},
	{"dpdk.udp_rx_ns_per_pkt", "ns", "lower"},
	{"dpdk.udp_tx_ns_per_pkt", "ns", "lower"},
	{"dpdk.rx_dropped_share", "share", "lower"},
	{"dpdk.tx_dropped_share", "share", "lower"},
	// netstack
	{"netstack.parse_ns_per_pkt", "ns", "lower"},
	{"netstack.rewrite_ns_per_pkt", "ns", "lower"},
	// fastpath
	{"fastpath.extract_ns_per_pkt", "ns", "lower"},
	{"fastpath.find_hit_ns", "ns", "lower"},
	{"fastpath.find_miss_ns", "ns", "lower"},
	{"fastpath.install_ns", "ns", "lower"},
	{"fastpath.apply_ns", "ns", "lower"},
	{"fastpath.hit_share", "share", "higher"},
	{"fastpath.bypassed_share", "share", "higher"},
	{"fastpath.evictions_per_kpkt", "1/kpkt", "lower"},
	// libvig
	{"libvig.dmap_get_ns", "ns", "lower"},
	{"libvig.dmap_put_erase_ns", "ns", "lower"},
	{"libvig.dchain_rejuvenate_ns", "ns", "lower"},
	{"libvig.dchain_alloc_free_ns", "ns", "lower"},
	{"libvig.expire_ns_per_item", "ns", "lower"},
	{"libvig.portalloc_ns", "ns", "lower"},
	{"libvig.map_get_ns", "ns", "lower"},
	{"libvig.tokenbucket_charge_ns", "ns", "lower"},
	{"libvig.cht_lookup_ns", "ns", "lower"},
	{"libvig.batcher_ns_per_pkt", "ns", "lower"},
	// the NFs
	{"nat.batch_ns_per_pkt", "ns", "lower"},
	{"nat.flow_add_ns", "ns", "lower"},
	{"nat.flow_lookup_ns", "ns", "lower"},
	{"nat.flows_created_per_kpkt", "1/kpkt", "lower"},
	{"nat.flows_expired_per_kpkt", "1/kpkt", "lower"},
	{"nat.table_occupancy", "share", "lower"},
	{"firewall.batch_ns_per_pkt", "ns", "lower"},
	{"policer.batch_ns_per_pkt", "ns", "lower"},
	{"lb.batch_ns_per_pkt", "ns", "lower"},
	// the engine
	{"nf.poll_ns_per_pkt", "ns", "lower"},
	{"nf.chain_batch_ns_per_pkt", "ns", "lower"},
	{"nf.chain_overhead_ns_per_pkt", "ns", "lower"},
	{"nf.engine_ns_per_pkt", "ns", "lower"},
	{"nf.rx_burst_mean", "pkt", "higher"},
	{"nf.idle_poll_share", "share", "lower"},
	{"nf.tx_freed_share", "share", "lower"},
	{"nf.dropped_share", "share", "lower"},
	// reconciliation and cross-check
	{"ladder.sum_ns_per_pkt", "ns", "lower"},
	{"ladder.residual_share", "share", "lower"},
	{"profile.dpdk_share", "share", "lower"},
	{"profile.netstack_share", "share", "lower"},
	{"profile.fastpath_share", "share", "lower"},
	{"profile.libvig_share", "share", "lower"},
	{"profile.nf_share", "share", "lower"},
	{"profile.engine_share", "share", "lower"},
	{"profile.runtime_share", "share", "lower"},
	{"profile.syscall_share", "share", "lower"},
	{"profile.harness_share", "share", "lower"},
	{"trace.overhead_share", "share", "lower"},
	// tails, runtime, generator, wire
	{"tail.latency_p99_us", "us", "lower"},
	{"tail.latency_p999_us", "us", "lower"},
	{"tail.latency_max_us", "us", "lower"},
	{"go.allocs_per_kpkt", "1/kpkt", "lower"},
	{"go.gc_cycles", "count", "lower"},
	{"go.gc_pause_us", "us", "lower"},
	{"gen.ns_per_pkt", "ns", "lower"},
	{"gen.late_p99_us", "us", "lower"},
	{"gen.clock_read_ns", "ns", "lower"},
	{"wire.daemon_sys_share", "share", "lower"},
	{"wire.daemon_busy_share", "share", "higher"},
	{"wire.eagain_share", "share", "lower"},
	{"wire.closed_rtt_p50_us", "us", "lower"},
}

// workloadNames lists the workloads in the order the suite runs them.
var workloadNames = []string{"nat_established", "nat_churn", "gateway_chain", "nat_wire"}
