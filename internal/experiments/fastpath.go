package experiments

import (
	"fmt"
	"runtime"
	"strings"

	"vignat/internal/catalog"
	"vignat/internal/flow"
	"vignat/internal/nf"
	"vignat/internal/paired"
)

// FastPathConfig parameterizes the established-flow fast-path sweep.
type FastPathConfig struct {
	// NF selects the catalog row under the cache: "nat" (default)
	// rewrites headers on every packet, so a cache hit still replays the
	// stored rewrite template; "firewall" rewrites nothing, so its
	// entries carry the identity flag and a hit skips template replay
	// entirely — the two legs bracket what the cache buys a rewriting
	// versus a pass-through NF.
	NF string
	// HitPcts lists the established-traffic percentages to sweep
	// (default 0, 25, 50, 75, 100).
	HitPcts []int
	// Rounds is the number of pairs per data point: each round times a
	// fresh cache-off rig and a fresh cache-on rig back to back (default
	// 12).
	Rounds int
	// Scale shrinks the measured packet count, 48,000 at 1.0 (below
	// the NAT's capacity, so at 0% established every fresh packet is a
	// genuine flow creation, never an allocation failure).
	Scale Scale
}

// FastPathRow is one data point: the same packet sequence driven
// through two identical single-worker pipelines of the catalog row, one
// with the flow cache enabled and one with it force-disabled. A hit-rate
// row's sequence mixes HitPct percent established traffic with fresh
// internal flows; the Scan row's is a port scan of the external address
// (see fpScanFrames), HitPct 0.
//
// NsOn/NsOff are each side's median ns/pkt over the rounds, timing the
// engine's Poll calls only (see rig.run). Speedup is the paired
// reading: the median over rounds of the round's plain/cached ratio
// (the mean of the middle two for an even count), with its bootstrap
// 95% interval [CILo, CIHi] and the rounds the cache won, those the
// plain side did not (package paired).
//
// Each row runs the NF at the paper's operating point — the flow
// table filled toward its 65,535 capacity (the evaluation's 64k-flow
// x-axis) by untouched background flows, each row fitting as many as
// its own fresh-flow demand leaves room for. StartOccupancy is the
// fill fraction when the timed region begins (fresh creations then
// push it toward 1.0); ObservedHitRate is the cache's own account of
// the measured region (hits over hits+misses), confirming each row
// exercised the mix it advertises.
type FastPathRow struct {
	NF              string  `json:"nf"`
	HitPct          int     `json:"hit_pct"`
	Scan            bool    `json:"scan"`
	NsOn            float64 `json:"ns_per_pkt_on"`
	NsOff           float64 `json:"ns_per_pkt_off"`
	Speedup         float64 `json:"speedup"`
	CILo            float64 `json:"ci_lo"`
	CIHi            float64 `json:"ci_hi"`
	PairsWon        int     `json:"pairs_won"`
	Pairs           int     `json:"pairs"`
	ObservedHitRate float64 `json:"observed_hit_rate"`
	StartOccupancy  float64 `json:"start_occupancy"`
}

// warmPasses is how many untimed passes over the established pool
// install it in the cache. A pool's first sightings are all misses, so
// the engine's adaptive bypass goes cold and sends most of the first
// pass (1,680–1,920 of 2,048 packets) and some of the second (240)
// around the cache unexamined: the doorkeeper first sees those flows
// on the second or third pass and admits them on the next. After four
// passes only flows whose entries collide still miss (~15 packets of a
// 48,000-packet measured region; after three, ~364).
const warmPasses = 4

// fpEstablishedFrames crafts the warmed flow pool's frames.
func fpEstablishedFrames(n int) []frame {
	frames := make([]frame, n)
	for i := range frames {
		frames[i] = craft(flow.ID{
			SrcIP:   flow.MakeAddr(10, 0, byte(i>>8), byte(i)),
			DstIP:   flow.MakeAddr(198, 51, 100, 1),
			SrcPort: uint16(10000 + i%50000),
			DstPort: 80,
			Proto:   flow.UDP,
		}, true)
	}
	return frames
}

// fpTupleFrames crafts n distinct internal tuples in the 10.<net>/16
// range. net 1 is the fresh/churn universe — the SYN-flood shape:
// every packet creates NF state, none ever hits the cache (the
// doorkeeper admits a key only on its second sighting), so it is the
// slow path plus the full classification overhead. net 2 is the
// background universe that fills the table toward capacity and is
// never revisited.
func fpTupleFrames(n int, net byte) []frame {
	frames := make([]frame, n)
	for i := range frames {
		frames[i] = craft(flow.ID{
			SrcIP:   flow.MakeAddr(10, net, byte(i>>8), byte(i)),
			DstIP:   flow.MakeAddr(198, 51, 100, 2),
			SrcPort: 7777,
			DstPort: 443,
			Proto:   flow.UDP,
		}, true)
	}
	return frames
}

// fpScanFrames crafts n unsolicited external frames, a port scan of
// the NAT's external address: no tuple belongs to a flow, so every
// packet misses the cache and the NF's table alike, and the NF (NAT or
// firewall) forwards none of them, so the cache is never offered one.
// The cached side's extra work is the pre-classifier alone: extract,
// hash, probe, doorkeeper tag.
func fpScanFrames(n int) []frame {
	frames := make([]frame, n)
	for i := range frames {
		frames[i] = craft(flow.ID{
			SrcIP:   flow.MakeAddr(203, 0, byte(i>>8), byte(i)),
			DstIP:   catalog.ExtIP,
			SrcPort: uint16(1024 + i),
			DstPort: uint16(PortBase + i%Capacity),
			Proto:   flow.UDP,
		}, false)
	}
	return frames
}

// fpMix interleaves established and fresh frames at hitPct percent
// established, error-diffused so every burst carries the advertised
// mix rather than alternating long runs of each. It returns the mix
// and the number of fresh frames consumed.
func fpMix(established, fresh []frame, packets, hitPct int) ([]frame, int) {
	mixed := make([]frame, 0, packets)
	acc, e, f := 0, 0, 0
	for i := 0; i < packets; i++ {
		acc += hitPct
		if acc >= 100 {
			acc -= 100
			mixed = append(mixed, established[e%len(established)])
			e++
		} else {
			mixed = append(mixed, fresh[f])
			f++
		}
	}
	return mixed, f
}

// FastPathSweep measures the established-flow fast path across hit
// rates, then under a port scan: for each row and round it builds twin
// single-worker pipelines of the catalog row (cache off, cache on at
// nf.DefaultFastPathEntries), fills each toward capacity, warms the
// established pool through both, then times the identical sequence
// through each engine, the two back to back. The rounds' pairs are
// read by package paired.
func FastPathSweep(cfg FastPathConfig) ([]FastPathRow, error) {
	hitPcts := cfg.HitPcts
	if len(hitPcts) == 0 {
		hitPcts = []int{0, 25, 50, 75, 100}
	}
	const established = 2048 // the warmed flow-pool size hits draw from
	packets := cfg.Scale.applyInt(48000)
	rounds := cfg.Rounds
	if rounds == 0 {
		rounds = 12
	}
	name := cfg.NF
	if name == "" {
		name = "nat"
	}
	// Capacity budget: background + established + fresh must fit the
	// flow table (and the port allocator) with a little slack, so every
	// fresh packet is a genuine creation.
	const slack = 587
	if packets+established+slack > Capacity {
		return nil, fmt.Errorf("experiments: fastpath sweep needs packets+established+%d <= capacity (%d+%d > %d)",
			slack, packets, established, Capacity)
	}

	estFrames := fpEstablishedFrames(established)
	freshFrames := fpTupleFrames(packets, 1)
	// One background universe, crafted once at the largest size any row
	// needs (the 100%-established and scan rows, which have no fresh
	// flows).
	bgMax := Capacity - established - slack
	bgFrames := fpTupleFrames(bgMax, 2)
	o := rowOptions(Capacity)

	// measure times seq in rounds of paired rigs, each filled with
	// background flows to leave room for seq's fresh ones.
	measure := func(row FastPathRow, seq []frame, fresh int) (FastPathRow, error) {
		bg := bgMax - fresh
		row.NF, row.StartOccupancy = name, float64(bg+established)/float64(Capacity)
		t, err := alternate(rounds, 2, func(side int) (float64, error) {
			// Telemetry stays off (the rig's default): the ratio must not
			// absorb the observability layer's (small) cost on either side.
			var ecfg nf.Config
			if side == 1 {
				ecfg.FastPath = nf.DefaultFastPathEntries
			}
			r, err := catalogRig(name, o, ecfg)
			if err != nil {
				return 0, err
			}
			// Fill toward capacity with background flows (created once,
			// never revisited), then warm the established pool untimed.
			if _, err := run(r, bgFrames[:bg], false); err != nil {
				return 0, err
			}
			for pass := 0; pass < warmPasses; pass++ {
				if _, err := run(r, estFrames, false); err != nil {
					return 0, err
				}
			}
			// Rig construction just allocated; collect now so the GC
			// does not fire inside the timed window. The packet path
			// itself is allocation-free.
			runtime.GC()
			before := r.Engine.Stats()
			elapsed, err := run(r, seq, true)
			if err != nil {
				return 0, err
			}
			if after := r.Engine.Stats(); side == 1 {
				hits := after.FastPathHits - before.FastPathHits
				misses := after.FastPathMisses - before.FastPathMisses
				if hits+misses > 0 {
					row.ObservedHitRate = float64(hits) / float64(hits+misses)
				}
			}
			return float64(elapsed.Nanoseconds()) / float64(len(seq)), nil
		})
		if err != nil {
			return row, err
		}
		// Read with the cached side as A, the pairs' ratio is
		// plain/cached: the speedup itself, interval included. The
		// rounds the plain side did not win are the cache's.
		res := paired.Compare(t[1], t[0])
		row.NsOff, row.NsOn = paired.Median(t[0]), paired.Median(t[1])
		row.Speedup, row.CILo, row.CIHi = res.Ratio, res.Lo, res.Hi
		row.PairsWon, row.Pairs = res.Pairs-res.Won, res.Pairs
		return row, nil
	}

	rows := make([]FastPathRow, 0, len(hitPcts)+1)
	for _, pct := range hitPcts {
		mixed, fresh := fpMix(estFrames, freshFrames, packets, pct)
		row, err := measure(FastPathRow{HitPct: pct}, mixed, fresh)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	row, err := measure(FastPathRow{Scan: true}, fpScanFrames(packets), 0)
	if err != nil {
		return nil, err
	}
	return append(rows, row), nil
}

// FormatFastpath renders the sweep as a paper-style table.
func FormatFastpath(rows []FastPathRow) string {
	var b strings.Builder
	b.WriteString("(single-worker engine at the paper's near-capacity operating point; ns/pkt over Poll calls only — RX delivery and TX drain model NIC DMA and are untimed; per-side medians, speedup the median paired ratio with its bootstrap 95% CI and the rounds the cache won; firewall rows exercise the identity fast path: no rewrite template to replay)\n")
	fmt.Fprintf(&b, "%-10s %-14s %12s %12s %9s %17s %6s %14s %10s\n",
		"nf", "established", "cache ns/pkt", "plain ns/pkt", "speedup", "95% CI", "won", "observed hits", "start occ")
	for _, r := range rows {
		traffic := fmt.Sprintf("%d%%", r.HitPct)
		if r.Scan {
			traffic = "0% (scan)"
		}
		fmt.Fprintf(&b, "%-10s %-14s %12.1f %12.1f %8.2fx %17s %6s %13.1f%% %9.2f\n",
			r.NF, traffic, r.NsOn, r.NsOff, r.Speedup, fmt.Sprintf("[%.2f, %.2f]", r.CILo, r.CIHi),
			fmt.Sprintf("%d/%d", r.PairsWon, r.Pairs), 100*r.ObservedHitRate, r.StartOccupancy)
	}
	return b.String()
}

// WriteFastpathJSON writes rows to path as BENCH_fastpath.json's
// record, so CI can track the cache's win and its adversarial floor
// across commits.
func WriteFastpathJSON(path string, rows []FastPathRow) error {
	return writeBenchJSON(path, struct {
		benchHeader
		Rows []FastPathRow `json:"rows"`
	}{newBenchHeader("fastpath-sweep"), rows})
}
