// The paper's §3 running example: the discard-protocol NF (drop port 9,
// forward everything else), run in production form on the shared
// nf.Pipeline engine and then verified with all three ring models of
// Fig. 4 — demonstrating the exact failure modes the paper describes.
//
// The frame NF is unsharded, so the pipeline runs it as one
// run-to-completion worker on single-queue ports; sharded NFs spread
// across queue pairs and workers instead (see cmd/vignat -workers).
package main

import (
	"fmt"
	"log"

	"vignat/internal/discard"
	"vignat/internal/dpdk"
	"vignat/internal/flow"
	"vignat/internal/libvig"
	"vignat/internal/netstack"
	"vignat/internal/nf"
	"vignat/internal/nf/nfkit"
)

func main() {
	// --- Production run: the frame-level discard NF on the engine. ---
	pool, err := dpdk.NewMempool(64)
	if err != nil {
		log.Fatal(err)
	}
	inside, err := dpdk.NewPort(0, dpdk.DefaultRxQueue, dpdk.DefaultTxQueue, pool)
	if err != nil {
		log.Fatal(err)
	}
	outside, err := dpdk.NewPort(1, dpdk.DefaultRxQueue, dpdk.DefaultTxQueue, pool)
	if err != nil {
		log.Fatal(err)
	}
	clock := libvig.NewVirtualClock(0)
	pipe, err := nf.NewPipeline(discard.NewFrameNF(), nf.Config{
		Internal: inside,
		External: outside,
		Clock:    clock,
	})
	if err != nil {
		log.Fatal(err)
	}

	ports := []uint16{80, 9, 443, 9, 22, 8080}
	buf := make([]byte, 2048)
	for i, dst := range ports {
		spec := &netstack.FrameSpec{ID: flow.ID{
			SrcIP:   flow.MakeAddr(192, 168, 1, 2),
			DstIP:   flow.MakeAddr(198, 51, 100, 1),
			SrcPort: uint16(40000 + i),
			DstPort: dst,
			Proto:   flow.UDP,
		}}
		clock.Advance(1000)
		inside.DeliverRx(netstack.Craft(buf[:netstack.FrameLen(spec)], spec), clock.Now())
	}
	if _, err := pipe.Poll(); err != nil {
		log.Fatal(err)
	}

	var delivered []uint16
	drain := make([]*dpdk.Mbuf, nf.DefaultBurst)
	for {
		k := outside.DrainTx(drain)
		if k == 0 {
			break
		}
		for i := 0; i < k; i++ {
			var p netstack.Packet
			if err := p.Parse(drain[i].Data); err != nil {
				log.Fatal(err)
			}
			delivered = append(delivered, p.DstPort)
			if err := pool.Free(drain[i]); err != nil {
				log.Fatal(err)
			}
		}
	}

	st := pipe.NF().NFStats()
	fmt.Printf("received %d, discarded %d (port 9), sent %d: %v\n",
		st.Processed, st.Dropped, st.Forwarded, delivered)
	for _, p := range delivered {
		if p == 9 {
			log.Fatal("BUG: a port-9 packet escaped!")
		}
	}
	if pool.InUse() != 0 {
		log.Fatalf("BUG: %d mbufs leaked", pool.InUse())
	}

	// --- Verification: the §3 pipeline with each Fig. 4 model. ---
	for _, m := range []struct {
		name  string
		model nfkit.Model
	}{
		{"model (a) exact       ", nfkit.ModelExact},
		{"model (b) over-approx ", nfkit.ModelOver},
		{"model (c) under-approx", nfkit.ModelUnder},
	} {
		rep, err := nfkit.VerifySym(*discard.RingSym(), m.model, 0)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s → %s\n", m.name, rep.Summary())
	}
	fmt.Println("\nAs §3 predicts: (a) proves the NF, (b) breaks the semantic")
	fmt.Println("property (Step 3b), (c) fails model validation (Step 3a).")
}
