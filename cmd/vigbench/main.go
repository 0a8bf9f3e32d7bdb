// Command vigbench regenerates the paper's evaluation (§6): every figure
// and the in-text verification statistics, printed as paper-style tables.
//
// Usage:
//
//	vigbench [-fig 12|12x|13|14|v1|fastpath|telemetry|ablation|all] [-scale F]
//
// -scale shrinks experiment durations (1.0 = full paper-shaped run,
// 0.2 = quick look). Every contender runs on the engine as the daemon
// runs it; Figs. 12–14 time the engine's Poll calls, and the Linux NAT
// crosses unix sockets, so its kernel receive and send are inside what
// is timed. The claim being reproduced is the *shape* (see
// EXPERIMENTS.md).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"vignat/internal/experiments"
)

func main() {
	fig := flag.String("fig", "all", "which experiment: 12, 12x, 13, 14, v1, fastpath, telemetry, ablation, all")
	scale := flag.Float64("scale", 1.0, "duration scale (0.2 = quick)")
	fastpathOut := flag.String("fastpath-out", "BENCH_fastpath.json",
		"where the fastpath experiment writes its machine-readable results (empty disables)")
	telemetryOut := flag.String("telemetry-out", "BENCH_telemetry.json",
		"where the telemetry experiment writes its machine-readable results (empty disables)")
	flag.Parse()

	s := experiments.Scale(*scale)
	ran := 0
	run := func(name string, f func() error) {
		if *fig != "all" && *fig != name {
			return
		}
		ran++
		start := time.Now()
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "vigbench %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("(%s finished in %v)\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	run("12", func() error {
		fmt.Println("=== Fig. 12: probe time vs background flows (Texp = 2s) ===")
		fmt.Println("(one Poll per probe; each cell the median over rounds of a round's mean probe time less its slowest 10%; ratios paired over rounds with their bootstrap 95% CI; the Linux NAT crosses unix sockets)")
		rows, err := experiments.Fig12(experiments.Fig12Config{Timeout: 2 * time.Second, Scale: s})
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatFig12(rows))
		return nil
	})

	run("12x", func() error {
		fmt.Println("=== Fig. 12 variant (in text): Texp = 60s, flows never expire ===")
		rows, err := experiments.Fig12(experiments.Fig12Config{Timeout: 60 * time.Second, Scale: s})
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatFig12(rows))
		return nil
	})

	run("13", func() error {
		fmt.Println("=== Fig. 13: probe-time quantiles at 60k background flows ===")
		rows, err := experiments.Fig13(s)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatFig13(rows))
		return nil
	})

	run("14", func() error {
		fmt.Println("=== Fig. 14: lossless service rate vs flow count (64B packets) ===")
		fmt.Println("(a lock-step rig never drops a frame, so there is no RFC 2544 loss search: the rate is 1/(Poll time per packet) over established flows, median over rounds; cost ratios paired over rounds with their bootstrap 95% CI; the Linux NAT crosses unix sockets)")
		rows, err := experiments.Fig14(experiments.Fig14Config{Scale: s})
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatFig14(rows))
		return nil
	})

	run("v1", func() error {
		fmt.Println("=== Verification statistics (paper §5.2.1–5.2.2 in-text) ===")
		tv, err := experiments.RunTableV1(runtime.GOMAXPROCS(0), 50)
		if err != nil {
			return err
		}
		fmt.Print(tv.Format())
		return nil
	})

	run("fastpath", func() error {
		fmt.Println("=== Established-flow fast path: ns/pkt vs established-traffic share ===")
		rows, err := experiments.FastPathSweep(experiments.FastPathConfig{Scale: s})
		if err != nil {
			return err
		}
		// The firewall leg brackets the other end of the cache's design
		// space: a pass-through NF whose entries carry the identity flag,
		// so a hit resolves the verdict without replaying any rewrite.
		fwRows, err := experiments.FastPathSweep(experiments.FastPathConfig{
			NF: "firewall", HitPcts: []int{0, 50, 100}, Scale: s,
		})
		if err != nil {
			return err
		}
		rows = append(rows, fwRows...)
		fmt.Print(experiments.FormatFastpath(rows))
		if *fastpathOut != "" {
			if err := experiments.WriteFastpathJSON(*fastpathOut, rows); err != nil {
				return err
			}
			fmt.Printf("(results written to %s)\n", *fastpathOut)
		}
		return nil
	})

	run("telemetry", func() error {
		fmt.Println("=== Telemetry overhead: gateway chain off vs on, NAT fast/slow split ===")
		res, err := experiments.TelemetryOverhead(experiments.TelemetryConfig{Scale: s})
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatTelemetry(res))
		if *telemetryOut != "" {
			if err := experiments.WriteTelemetryJSON(*telemetryOut, res); err != nil {
				return err
			}
			fmt.Printf("(results written to %s)\n", *telemetryOut)
		}
		return nil
	})

	run("ablation", func() error {
		fmt.Println("=== Flow-table ablation: open addressing (verified) vs chaining (unverified) ===")
		rows, err := experiments.RunAblation([]float64{0.25, 0.5, 0.75, 0.92, 0.99}, 0)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatAblation(rows))
		return nil
	})

	// A -fig value that matched no experiment is a user error, not a
	// silent no-op: name the figure and list the valid ones.
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "vigbench: unknown figure %q (valid: 12, 12x, 13, 14, v1, fastpath, telemetry, ablation, all)\n", *fig)
		flag.Usage()
		os.Exit(2)
	}
}
