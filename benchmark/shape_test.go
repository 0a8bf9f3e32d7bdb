package main

import (
	"encoding/json"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// Guards on the benchmark's own shape: what it may import, what it may
// be called, and that BENCHMARK.json, the catalogue in metrics.go and
// what a run actually prints are one list, not three.

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestImports holds the harness to the smallest stable surface of the
// repository, so that refactors of the execution substrate and the NF
// kit do not break the instrument that judges them.
func TestImports(t *testing.T) {
	allowed := []string{"nf", "dpdk", "libvig", "netstack", "flow", "fastpath", "nat", "nat/stateless", "firewall", "policer", "lb", "vigor/spec"}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		parsed, err := parser.ParseFile(token.NewFileSet(), f, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range parsed.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if !strings.HasPrefix(path, "vignat/") {
				if strings.Contains(path, ".") {
					t.Errorf("%s imports %s: only the standard library and this repository are available", f, path)
				}
				continue
			}
			ok := false
			for _, a := range allowed {
				ok = ok || path == "vignat/internal/"+a
			}
			if !ok {
				t.Errorf("%s imports %s, which is outside the harness's allow-list", f, path)
			}
		}
	}
}

func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	b := loadBenchmarkJSON(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(b.Workloads) > 8 || len(b.EndToEnd) > 16 || len(b.PerLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end and %d per-layer metrics exceed 8, 16 and 128", len(b.Workloads), len(b.EndToEnd), len(b.PerLayer))
	}
	seen := map[string]bool{}
	check := func(n, u string) {
		if !name.MatchString(n) || (u != "" && !unit.MatchString(u)) {
			t.Errorf("%q (unit %q) is not a well-formed name and unit", n, u)
		}
		if seen[n] {
			t.Errorf("%q is used twice", n)
		}
		seen[n] = true
	}
	if len(b.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(b.Workloads), len(workloadNames))
	}
	for i, w := range b.Workloads {
		check(w.Name, "")
		if w.Name != workloadNames[i] || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d is %q (why: %d chars), the harness has %q", i, w.Name, len(w.Why), workloadNames[i])
		}
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the catalogue %d+%d", len(b.EndToEnd), len(b.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range b.EndToEnd {
		check(m.Name, m.Unit)
		if d := endToEnd[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != bound[d.Name] {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the catalogue %+v bound %v", i, m, d, bound[d.Name])
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v is outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for i, m := range b.PerLayer {
		check(m.Name, m.Unit)
		if d := perLayer[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the catalogue %+v", i, m, d)
		}
	}
	if len(b.Paths) != 1 || b.Paths[0] != "benchmark" || b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", b.Paths, b.RunSeconds)
	}
}

// buildDaemon builds cmd/vignat the way run.sh does.
func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "vignat")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/vignat")
	cmd.Dir = ".."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building cmd/vignat: %v\n%s", err, out)
	}
	return bin
}

// TestQuickRuns takes every workload through a -quick run, untraced and
// traced: it must pass its own correctness checks and print exactly the
// catalogue's metrics, and the symbol map must know the functions the
// profile of the traced loop lands in.
func TestQuickRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	daemon := buildDaemon(t)
	for _, w := range workloadNames {
		for _, trace := range []bool{false, true} {
			o := &options{workload: w, seed: 3, seconds: 0.8, quick: true, trace: trace, daemon: daemon, workDir: t.TempDir()}
			o.outDir = o.workDir
			rep, err := run(o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if rep.failed != 0 || rep.why != "" || rep.attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d failed: %s", w, trace, rep.failed, rep.attempted, rep.why)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(rep.metrics) != len(want) {
				t.Errorf("%s trace=%v: printed %d metrics, the catalogue has %d", w, trace, len(rep.metrics), len(want))
			}
			printed := map[string]bool{}
			for _, m := range rep.metrics {
				printed[m.Name] = true
			}
			for _, d := range want {
				if !printed[d.Name] {
					t.Errorf("%s trace=%v: %s was not printed", w, trace, d.Name)
				}
			}
			if rep.unmapped > 0.05 {
				t.Errorf("%s: %.1f%% of the traced loop's profile samples fall in functions symbol_map.tsv does not map", w, 100*rep.unmapped)
			}
			if !trace {
				for _, m := range rep.metrics {
					if m.Median <= 0 {
						t.Errorf("%s: end-to-end metric %s reads %v; a gated metric may never be 0", w, m.Name, m.Median)
					}
				}
			}
		}
	}
}

// TestVerdicts pins -compare's rule on made-up runs.
func TestVerdicts(t *testing.T) {
	steady := func(center float64) []float64 {
		v := make([]float64, 10)
		for i := range v {
			v[i] = center * (1 + 0.002*float64(i-5))
		}
		return v
	}
	noisy := steady(100)
	for i := range noisy {
		noisy[i] *= 1 + 0.3*float64(i%3)
	}
	tput := endToEnd[1] // higher is better, bound 25%
	for _, c := range []struct {
		a, b []float64
		want string
	}{
		{steady(100), steady(101), "same"},
		{steady(100), steady(70), "regressed"},
		{steady(100), steady(140), "improved"},
		{steady(100), noisy, "unresolved"},
	} {
		if got, _, _ := verdict(tput, c.a, c.b); got != c.want {
			t.Errorf("verdict(%v → %v) = %s, want %s", median(c.a), median(c.b), got, c.want)
		}
	}
}
