// Command benchmark is the repository's one performance harness: four
// workloads from cache hit to kernel wire, six gated end-to-end metrics
// (plus the failure count), and a ladder of per-layer metrics measured
// from outside the layers. README.md in this directory is the manual.
//
// One invocation runs one workload once:
//
//	benchmark --workload nat_churn --seed 7 --seconds 25 --trace 0
//
// and ends with one JSON line giving correct/attempted/failed/metrics.
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// -suite and -compare wrap that for whole comparisons.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"vignat/internal/nf"
)

// Sizing of one run. The measured region is --seconds long and is cut
// into measureWindows equal windows whatever its length.
const (
	measureWindows = 100
	setupRepeats   = 9
	warmUp         = time.Second
)

// options are one run's knobs.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	quick    bool   // 3 short windows: the harness's own smoke test
	daemon   string // path of the built cmd/vignat, for nat_wire
	outDir   string // where the traced run leaves its spans
	workDir  string // scratch space for sockets and daemon directories
}

func (o *options) windows() (n int, each time.Duration) {
	if o.quick {
		return 4, 50 * time.Millisecond
	}
	return measureWindows, time.Duration(o.seconds * float64(time.Second) / measureWindows)
}

func (o *options) warm() time.Duration {
	if o.quick {
		return 50 * time.Millisecond
	}
	return warmUp
}

func (o *options) setups() int {
	if o.quick {
		return 2
	}
	return setupRepeats
}

// reported is one metric of one run.
type reported struct {
	metricDef
	summary
}

// tally counts packets whose outcome was wrong and remembers the first
// reason.
type tally struct {
	failed uint64
	why    string
}

func (t *tally) fail(n uint64, format string, args ...any) {
	t.failed += n
	if t.why == "" {
		t.why = fmt.Sprintf(format, args...)
	}
}

// merge adds another tally's failures to this one.
func (t *tally) merge(o tally) {
	if o.failed > 0 || o.why != "" {
		t.fail(o.failed, "%s", o.why)
	}
}

// report is one run's outcome.
type report struct {
	tally
	attempted uint64
	metrics   []reported
	notes     []string // printed under the table
	unmapped  float64  // share of profile samples the symbol map missed
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) add(name string, s summary) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.Name == name {
				r.metrics = append(r.metrics, reported{d, s})
				return
			}
		}
	}
	panic("benchmark: metric " + name + " is not in the catalogue")
}

// value adds a metric that is one number, not a median of windows.
func (r *report) value(name string, v float64) {
	r.add(name, summary{Value: v, Median: v, Q1: v, Q3: v, Windows: 1})
}

// zeroRest reports 0 for every per-layer metric the workload could not
// produce.
func (r *report) zeroRest() {
	have := map[string]bool{}
	for _, m := range r.metrics {
		have[m.Name] = true
	}
	for _, d := range perLayer {
		if !have[d.Name] {
			r.value(d.Name, 0)
		}
	}
}

// print writes the human-readable table, then the one JSON line the
// caller parses.
func (r *report) print(o *options) {
	fmt.Printf("workload %s seed %d trace %v: go %s, nproc %d, GOMAXPROCS %d\n",
		o.workload, o.seed, o.trace, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0))
	fmt.Printf("%-32s %14s %-7s %14s %14s %14s %8s %12s\n", "metric", "value", "unit", "median", "q1", "q3", "windows", "samples")
	for _, m := range r.metrics {
		fmt.Printf("%-32s %14.4f %-7s %14.4f %14.4f %14.4f %8d %12d\n", m.Name, m.Value, m.Unit, m.Median, m.Q1, m.Q3, m.Windows, m.Samples)
	}
	for _, n := range r.notes {
		fmt.Println(n)
	}
	if r.why != "" {
		fmt.Printf("FAILED: %s\n", r.why)
	}
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool           `json:"correct"`
		Attempted uint64         `json:"attempted"`
		Failed    uint64         `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{r.failed == 0 && r.why == "", r.attempted, r.failed, map[string]val{}}
	for _, m := range r.metrics {
		line.Metrics[m.Name] = val{m.Value, m.Unit}
	}
	out, _ := json.Marshal(line) // plain numbers and strings cannot fail to encode
	fmt.Println(string(out))
}

// timeSetups performs the remaining fresh set-ups of a workload and
// returns setup_s over all of them, first included.
func timeSetups(first time.Duration, n int, setup func() error) (summary, error) {
	secs := []float64{first.Seconds()}
	for len(secs) < n {
		// What the previous set-up left behind is not this one's cost.
		runtime.GC()
		t0 := time.Now()
		if err := setup(); err != nil {
			return summary{}, err
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	s := summarize(secs, uint64(len(secs)))
	s.Value = s.Q1 // set-ups are few; the better quartile stands in for the better decile
	return s, nil
}

// runInProcess runs one of the three in-process workloads untraced.
func runInProcess(o *options) (*report, error) {
	t0 := time.Now()
	r, err := newRig(o.workload, o.seed, false, nil)
	if err != nil {
		return nil, err
	}
	first := time.Since(t0)
	nWin, winLen := o.windows()
	m, err := r.measure(o.warm(), nWin, winLen, nil)
	if err != nil {
		return nil, err
	}
	// Read before the extra set-ups and the gate: they are the
	// benchmark's memory, not the NF's.
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return nil, err
	}
	rep := &report{attempted: m.attempted, tally: m.tally}
	setup, err := timeSetups(first, o.setups(), func() error {
		_, err := newRig(o.workload, o.seed, false, nil)
		return err
	})
	if err != nil {
		return nil, err
	}
	rep.add("setup_s", setup)
	bursts := m.pkts() / burstSize
	rep.add("throughput_mpps", undisturbed(m.perWindow(tputMpps), m.pkts(), "higher"))
	rep.add("latency_p50_us", undisturbed(m.perWindow(sojournUs(0.50)), bursts, "lower"))
	rep.add("latency_p90_us", undisturbed(m.perWindow(sojournUs(0.90)), bursts, "lower"))
	rep.add("cpu_ns_per_pkt", undisturbed(m.perWindow(cpuPerPkt), m.pkts(), "lower"))
	rep.value("rss_mb", rss)
	r = nil
	debug.FreeOSMemory()
	steps, err := runGate(o.workload, o.seed)
	if err != nil {
		rep.fail(1, "%v", err)
	}
	rep.attempted += uint64(steps)
	return rep, nil
}

func run(o *options) (*report, error) {
	wire := o.workload == "nat_wire"
	switch {
	case wire && o.trace:
		return traceWire(o)
	case wire:
		return runWire(o)
	case o.trace:
		return traceInProcess(o)
	default:
		return runInProcess(o)
	}
}

func main() {
	o := &options{}
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.StringVar(&o.workload, "workload", "", "one of nat_established, nat_churn, gateway_chain, nat_wire")
	flag.Int64Var(&o.seed, "seed", 1, "traffic seed: tuples, interleaving, frame sizes")
	flag.Float64Var(&o.seconds, "seconds", 20, "length of the measured region")
	flag.BoolVar(&o.quick, "quick", false, "three short windows; for the harness's own tests")
	flag.StringVar(&o.daemon, "daemon", "", "path of the built cmd/vignat (nat_wire)")
	flag.StringVar(&o.outDir, "trace-out", "benchmark/out", "directory for the traced run's spans")
	flag.StringVar(&o.workDir, "work", ".bench_build", "scratch directory for sockets; keep it short, socket paths hold 108 bytes")
	suite := flag.String("suite", "", "run every workload -runs times with seeds seed, seed+1, … and write the results to this file")
	runs := flag.Int("runs", 10, "runs per workload under -suite")
	compare := flag.Bool("compare", false, "compare two -suite files given as arguments")
	flag.Parse()

	// The host has two cores: the load generator and the NF worker (or
	// the wire generator and the daemon) are all that may be busy.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
	// The environment must not configure the engine behind our back.
	os.Unsetenv(nf.FastPathEnv)
	os.Unsetenv(nf.TelemetryEnv)

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result files"))
		}
		regressed, err := compareFiles(flag.Arg(0), flag.Arg(1), os.Stdout)
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
	case *suite != "":
		if err := runSuite(o, *runs, *suite); err != nil {
			fatal(err)
		}
	default:
		o.trace = *trace != 0
		rep, err := run(o)
		if err != nil {
			fatal(err)
		}
		rep.print(o)
		if rep.failed != 0 || rep.why != "" {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}
