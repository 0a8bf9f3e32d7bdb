// Command vigor runs the verification pipeline — exhaustive symbolic
// execution plus lazy-proof validation (the paper's §5), nfkit.VerifySym
// — over the NFs in this repository and prints a Fig. 7-style report.
//
// Usage:
//
//	vigor [-nf all|nat|firewall|lb|lb-passthrough|policer|discard|ring|gateway]
//	      [-model exact|over|under] [-workers N] [-traces]
//
// -nf names one row of internal/catalog — the table cmd/vignat serves
// from — or all of them; each is proved at the daemon's default
// configuration (the gateway as its four elements). -model selects the
// symbolic models, including the two deliberately broken ones of the
// paper's Fig. 4, whose failure modes the report then demonstrates:
// over fails P1, under fails P5 (for the frame-level discard, which has
// no state model, the three coincide). -workers sets the validation
// workers (0 = all CPUs). -traces dumps every symbolic trace in the
// Fig. 9 format. The exit status is 1 when any proof fails, 2 on an
// unknown -nf or -model.
package main

import (
	"flag"
	"fmt"
	"os"

	"vignat/internal/catalog"
	"vignat/internal/nf/nfkit"
)

func main() {
	name := flag.String("nf", "all", "row to verify: all, nat, firewall, lb, lb-passthrough, policer, discard, ring or gateway")
	modelName := flag.String("model", "exact", "symbolic model: exact, over (Fig.4b), under (Fig.4c)")
	workers := flag.Int("workers", 0, "validation workers (0 = all CPUs)")
	traces := flag.Bool("traces", false, "dump symbolic traces (Fig. 9 format)")
	flag.Parse()

	model := nfkit.ModelExact
	for model.String() != *modelName {
		if model++; model > nfkit.ModelUnder {
			fmt.Fprintf(os.Stderr, "vigor: unknown model %q\n", *modelName)
			os.Exit(2)
		}
	}
	rows := catalog.Rows
	if *name != "all" {
		row, ok := catalog.Find(rows, *name)
		if !ok {
			fmt.Fprintf(os.Stderr, "vigor: unknown nf %q\n", *name)
			os.Exit(2)
		}
		rows = []catalog.Row{*row}
	}
	failed := false
	for _, row := range rows {
		proofs, err := row.Proofs(catalog.Defaults())
		if err != nil {
			fmt.Fprintln(os.Stderr, "vigor:", err)
			os.Exit(1)
		}
		for _, p := range proofs {
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
	}
	if failed {
		os.Exit(1)
	}
}
