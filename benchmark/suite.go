package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
)

// A suite is every workload run several times, each run a fresh process
// on its own seed; two suites of two commits (or of one) are what
// -compare reads. The rule it applies is the one the benchmark is
// accepted by: medians against the metric's bound, and no verdict where
// the runs of either side are spread wider than that bound.

// suiteRun is one child run's last output line.
type suiteRun struct {
	Workload  string `json:"workload"`
	Seed      int64  `json:"seed"`
	Correct   bool   `json:"correct"`
	Attempted uint64 `json:"attempted"`
	Failed    uint64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

type suiteFile struct {
	GoVersion  string     `json:"go_version"`
	NProc      int        `json:"nproc"`
	GOMAXPROCS int        `json:"gomaxprocs"`
	Seconds    float64    `json:"seconds"`
	Quick      bool       `json:"quick"`
	Runs       []suiteRun `json:"runs"`
}

// runSuite runs the workloads round-robin, runs times each, so that a
// slow hour on the host is shared among them, and writes the results.
func runSuite(o *options, runs int, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	file := suiteFile{GoVersion: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Seconds: o.seconds, Quick: o.quick}
	for i := 0; i < runs; i++ {
		for _, w := range workloadNames {
			args := []string{"--workload", w, "--seed", strconv.FormatInt(o.seed+int64(i), 10),
				"--seconds", strconv.FormatFloat(o.seconds, 'f', -1, 64), "--trace", "0", "-daemon", o.daemon, "-work", o.workDir}
			if o.quick {
				args = append(args, "-quick")
			}
			cmd := exec.Command(self, args...)
			cmd.Stderr = os.Stderr
			// A run that fails its checks exits 1 but still reports; it
			// is recorded, and -compare will show its failures.
			stdout, runErr := cmd.Output()
			lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
			run := suiteRun{Workload: w, Seed: o.seed + int64(i)}
			if err := json.Unmarshal(lines[len(lines)-1], &run); err != nil {
				return fmt.Errorf("%s seed %d: no result line (%v): %w\n%s", w, run.Seed, runErr, err, stdout)
			}
			file.Runs = append(file.Runs, run)
			fmt.Printf("%-16s seed %-4d %s\n", w, run.Seed, lines[len(lines)-1])
		}
	}
	data, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(out, data, 0o644)
}

func readSuite(path string) (*suiteFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f suiteFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// values collects one metric of one workload over a suite's runs, and
// the failures those runs counted.
func (f *suiteFile) values(workload, metric string) (vals []float64, failed, attempted uint64) {
	for _, r := range f.Runs {
		if r.Workload == workload {
			vals = append(vals, r.Metrics[metric].Value)
			failed += r.Failed
			attempted += r.Attempted
		}
	}
	return vals, failed, attempted
}

// verdict compares b with a for one metric. The spread of a side is the
// distance between its runs' quartiles as a share of their median.
func verdict(d metricDef, a, b []float64) (string, float64, float64) {
	aq1, am, aq3 := quartiles(a)
	bq1, bm, bq3 := quartiles(b)
	spread := max((aq3-aq1)/am, (bq3-bq1)/bm)
	worse := (bm - am) / am
	if d.Better == "higher" {
		worse = -worse
	}
	switch limit := bound[d.Name]; {
	case spread > limit:
		return "unresolved", worse, spread
	case worse > limit:
		return "regressed", worse, spread
	case worse < -limit:
		return "improved", worse, spread
	}
	return "same", worse, spread
}

// compareFiles prints b against a, metric by metric and workload by
// workload, and reports whether anything regressed.
func compareFiles(pathA, pathB string, w io.Writer) (regressed bool, err error) {
	a, err := readSuite(pathA)
	if err != nil {
		return false, err
	}
	b, err := readSuite(pathB)
	if err != nil {
		return false, err
	}
	for _, f := range []*suiteFile{a, b} {
		fmt.Fprintf(w, "go %s, nproc %d, GOMAXPROCS %d, %g s per run, %d runs\n", f.GoVersion, f.NProc, f.GOMAXPROCS, f.Seconds, len(f.Runs))
	}
	fmt.Fprintf(w, "%-16s %-16s %12s %12s %8s %8s %6s  %s\n", "workload", "metric", "A median", "B median", "worse", "spread", "bound", "verdict")
	for _, wl := range workloadNames {
		var fa, fb uint64
		for _, d := range endToEnd {
			va, failedA, _ := a.values(wl, d.Name)
			vb, failedB, _ := b.values(wl, d.Name)
			fa, fb = failedA, failedB
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v, worse, spread := verdict(d, va, vb)
			regressed = regressed || v == "regressed"
			fmt.Fprintf(w, "%-16s %-16s %12.4f %12.4f %+7.1f%% %7.1f%% %5.0f%%  %s\n",
				wl, d.Name, median(va), median(vb), 100*worse, 100*spread, 100*bound[d.Name], v)
		}
		v := "same"
		if fb > fa {
			v, regressed = "regressed", true
		}
		fmt.Fprintf(w, "%-16s %-16s %12d %12d %33s\n", wl, "failed", fa, fb, v)
	}
	return regressed, nil
}
