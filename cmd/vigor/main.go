// Command vigor runs the verification pipeline — exhaustive symbolic
// execution plus lazy-proof validation (the paper's §5), nfkit.VerifySym
// — over the NFs in this repository and prints a Fig. 7-style report.
//
// Usage:
//
//	vigor [-nf all|nat|firewall|lb|lb-passthrough|policer|discard|ring]
//	      [-model exact|over|under] [-workers N] [-traces] [-inventory]
//
// -nf names one declaration (the five NFs' at the evaluation's
// configuration, the balancer in both orientations, plus the discard
// example's ring loop) or all of them. -model selects the symbolic
// models, including the two deliberately broken ones of the paper's
// Fig. 4, whose failure modes the report then demonstrates: over fails
// P1, under fails P5 (for the frame-level discard, which has no state
// model, the three coincide). -workers sets the validation workers
// (0 = all CPUs). -traces dumps every symbolic trace in the Fig. 9
// format. -inventory prints the code-size breakdown (the paper's §5.1.3
// statistics analogue). The exit status is 1 when any proof fails.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"vignat/internal/discard"
	"vignat/internal/experiments"
	"vignat/internal/nf/nfkit"
)

func main() {
	name := flag.String("nf", "all", "declaration to verify: all, nat, firewall, lb, lb-passthrough, policer, discard or ring")
	modelName := flag.String("model", "exact", "symbolic model: exact, over (Fig.4b), under (Fig.4c)")
	workers := flag.Int("workers", 0, "validation workers (0 = all CPUs)")
	traces := flag.Bool("traces", false, "dump symbolic traces (Fig. 9 format)")
	inventory := flag.Bool("inventory", false, "print code inventory and exit")
	flag.Parse()

	if *inventory {
		if err := printInventory(); err != nil {
			fmt.Fprintln(os.Stderr, "vigor:", err)
			os.Exit(1)
		}
		return
	}

	model := nfkit.ModelExact
	for model.String() != *modelName {
		if model++; model > nfkit.ModelUnder {
			fmt.Fprintf(os.Stderr, "vigor: unknown model %q\n", *modelName)
			os.Exit(2)
		}
	}
	proofs := append(experiments.Proofs(),
		experiments.Proof{Name: "discard", Sym: discard.Kit().Sym},
		experiments.Proof{Name: "ring", Sym: discard.RingSym()})
	ran, failed := 0, false
	for _, p := range proofs {
		if *name != "all" && *name != p.Name {
			continue
		}
		ran++
		rep, err := nfkit.VerifySym(*p.Sym, model, *workers)
		if err != nil {
			fmt.Fprintln(os.Stderr, "vigor:", err)
			os.Exit(1)
		}
		fmt.Printf("%s: %s\n", p.Name, rep.Summary())
		for _, f := range rep.Failures() {
			fmt.Println("  " + f)
		}
		if *traces {
			for i, t := range rep.Traces {
				fmt.Printf("--- %s path %d ---\n%s\n", p.Name, i, t.String())
			}
		}
		failed = failed || !rep.OK()
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "vigor: unknown nf %q\n", *name)
		os.Exit(2)
	}
	if failed {
		os.Exit(1)
	}
}

// printInventory reports lines of code per subsystem, the analogue of
// the paper's "libVig contains 2.2 KLOC of C, 4K lines of contracts,
// 21.8K lines of proof".
func printInventory() error {
	groups := map[string]string{
		"internal/libvig":           "libVig data structures",
		"internal/firewall":         "stateful firewall NF (extension)",
		"internal/libvig/contracts": "libVig contracts (P3 harness)",
		"internal/nat":              "VigNAT (production)",
		"internal/vigor":            "Vigor toolchain (ESE engine, spec oracles)",
		"internal/nf/nfkit":         "NF kit (models, verifier, engine binding)",
		"internal/netstack":         "packet codec",
		"internal/dpdk":             "DPDK substrate",
		"internal/moongen":          "traffic generator",
		"internal/testbed":          "testbed simulation",
		"internal/unverified":       "unverified NAT baseline",
		"internal/netfilter":        "NetFilter baseline",
		"internal/discard":          "discard example NF",
		"internal/lb":               "load balancer NF",
		"internal/policer":          "traffic policer NF",
	}
	type row struct {
		name       string
		code, test int
	}
	var rows []row
	for dir, name := range groups {
		code, test, err := countDir(dir)
		if err != nil {
			return err
		}
		rows = append(rows, row{name, code, test})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].code > rows[j].code })
	fmt.Printf("%-34s %10s %10s\n", "subsystem", "code LoC", "test LoC")
	totalC, totalT := 0, 0
	for _, r := range rows {
		fmt.Printf("%-34s %10d %10d\n", r.name, r.code, r.test)
		totalC += r.code
		totalT += r.test
	}
	fmt.Printf("%-34s %10d %10d\n", "total", totalC, totalT)
	return nil
}

func countDir(dir string) (code, test int, err error) {
	err = filepath.Walk(dir, func(path string, info os.FileInfo, werr error) error {
		if werr != nil || info.IsDir() || !strings.HasSuffix(path, ".go") {
			return werr
		}
		// Group directories nest (libvig/contracts under libvig);
		// count files in exactly the requested directory tree, letting
		// the sub-group double-count intentionally for its own row.
		n, cerr := countLines(path)
		if cerr != nil {
			return cerr
		}
		if strings.HasSuffix(path, "_test.go") {
			test += n
		} else {
			code += n
		}
		return nil
	})
	return code, test, err
}

func countLines(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	n := 0
	for sc.Scan() {
		n++
	}
	return n, sc.Err()
}
