// Verifynat walks through the Vigor pipeline on VigNAT step by step,
// printing the artifacts the paper shows: a symbolic trace in the Fig. 9
// format, the per-property verdicts of the lazy proof (Fig. 7's P1-P5),
// and the failure modes of the deliberately broken models of Fig. 4.
package main

import (
	"fmt"
	"log"

	"vignat/internal/flow"
	"vignat/internal/libvig"
	"vignat/internal/nat"
	"vignat/internal/nf/nfkit"
)

func main() {
	cfg := nat.Config{Capacity: nat.DefaultCapacity, ExternalIP: flow.MakeAddr(198, 18, 1, 1), ExternalPort: 1}
	proof := *nat.Kit(cfg, libvig.NewVirtualClock(0)).Sym
	run := func(model nfkit.Model) *nfkit.Report {
		rep, err := nfkit.VerifySym(proof, model, 0)
		if err != nil {
			log.Fatal(err)
		}
		return rep
	}

	fmt.Println("Step 1+2: exhaustive symbolic execution of the stateless NAT")
	fmt.Println("with the exact libVig models (Fig. 4 model (a))...")
	rep := run(nfkit.ModelExact)
	fmt.Printf("  %d feasible paths, %d verification tasks\n\n", rep.Paths, rep.Tasks)

	// Show the internal-hit path the way the paper's Fig. 9 does.
	for _, t := range rep.Traces {
		if c := t.Seq[len(t.Seq)-4]; c.Name == "flow_get_by_int_key" && c.Ret {
			fmt.Println("a symbolic trace (internal packet, session hit) — cf. Fig. 9:")
			fmt.Println(t.String())
			break
		}
	}

	fmt.Println("Step 3: lazy validation (P1 semantics, P2/P4 usage, P5 models):")
	fmt.Println(rep.Summary())
	fmt.Println()

	fmt.Println("Now the broken models, as §3 predicts:")
	fmt.Println("  over-approximate model (b):", verdictLine(run(nfkit.ModelOver)))
	fmt.Println("  under-approximate model (c):", verdictLine(run(nfkit.ModelUnder)))
}

func verdictLine(rep *nfkit.Report) string {
	p1, p5 := len(rep.P1Failures), len(rep.P5Violations)
	switch {
	case p1 > 0 && p5 == 0:
		return fmt.Sprintf("P1 fails on %d paths, P5 passes → too abstract (Step 3b)", p1)
	case p5 > 0:
		return fmt.Sprintf("P5 fails with %d violations → narrower than the contract (Step 3a):\n    %s", p5, rep.P5Violations[0])
	default:
		return "unexpectedly complete"
	}
}
