// Command vignat runs the verified NAT on the simulated DPDK substrate:
// two multi-queue ports, the shared nf.Pipeline engine, and a built-in
// traffic source standing in for the wire (all supplied by
// nfkit.Main). It prints periodic statistics, demonstrating the full
// production composition (netstack ⊕ libVig flow table ⊕ dpdk ports ⊕
// verified stateless logic ⊕ nf engine).
//
// Usage:
//
//	vignat [-flows N] [-packets N] [-timeout D] [-capacity N]
//	       [-shards N] [-workers N] [-burst N] [-metrics addr]
//	       [-verify]
//
// -shards > 1 partitions the NAT RSS-style: each shard owns a disjoint
// slice of the flow table and of the external port range, so steering
// by flow hash (outbound) and by port range (inbound) always lands a
// session on the same shard with no locks.
//
// -workers > 1 (default: one per shard) gives each worker its own RX/TX
// queue pair on both ports, its own per-queue mempools, and its own
// goroutine running the run-to-completion loop — deliver, poll, drain —
// with no synchronization anywhere on the packet path.
//
// With -verify (the default) the binary first proves the NAT it is about
// to run — the declaration of this configuration, port range included —
// and refuses to start on a failed proof: the deployment story the paper
// argues for, the artifact you run is the artifact you proved.
package main

import (
	"flag"
	"fmt"
	"io"
	"time"

	"vignat/internal/flow"
	"vignat/internal/libvig"
	"vignat/internal/moongen"
	"vignat/internal/nat"
	"vignat/internal/nf/nfkit"
)

func main() {
	flows := flag.Int("flows", 1000, "number of concurrent flows to simulate")
	verify := flag.Bool("verify", true, "run the verification pipeline before starting")

	nfkit.Main(nfkit.App{
		Name:            "vignat",
		DefaultCapacity: nat.DefaultCapacity,
		Build: func(o *nfkit.Options, clock libvig.Clock) (*nfkit.Run, error) {
			cfg := nat.Config{Capacity: o.Capacity, Timeout: o.Timeout,
				ExternalIP: flow.MakeAddr(198, 18, 1, 1), ExternalPort: 1}
			if err := cfg.Validate(); err != nil {
				return nil, err
			}

			if *verify {
				rep, err := nfkit.VerifySym(*nat.Kit(cfg, clock).Sym, nfkit.ModelExact, 0)
				if err != nil {
					return nil, err
				}
				fmt.Println(rep.Summary())
				if !rep.OK() {
					return nil, fmt.Errorf("refusing to start an unproven NAT")
				}
			}

			n, err := nat.NewSharded(cfg, clock, o.Shards)
			if err != nil {
				return nil, err
			}
			specs, err := moongen.MakeFlows(0, *flows, 0, 17)
			if err != nil {
				return nil, err
			}
			frames := make([][]byte, len(specs))
			for f := range specs {
				frames[f] = specs[f].Frame()
			}

			return &nfkit.Run{
				NF:             n,
				ShardOf:        n.ShardOf,
				Frames:         frames,
				FromInternal:   true,
				InternalPortID: cfg.InternalPort,
				ExternalPortID: cfg.ExternalPort,
				Banner: fmt.Sprintf("vignat: CAP=%d Texp=%v EXT_IP=%v, %d shards, %d workers, burst %d, %d flows, %d packets",
					n.Capacity(), cfg.Timeout, cfg.ExternalIP, n.Shards(), o.Workers, o.Burst, *flows, o.Packets),
				Report: func(w io.Writer, r *nfkit.RunReport) error {
					st := n.Stats()
					fmt.Fprintf(w, "processed %d packets in %v (%.2f Mpps offered)\n",
						st.Processed, r.Elapsed.Round(time.Millisecond), r.Mpps(st.Processed))
					fmt.Fprintf(w, "  forwarded out: %-10d dropped: %d\n", st.ForwardedOut, st.Dropped)
					fmt.Fprintf(w, "  flows created: %-10d expired: %d  live: %d\n",
						st.FlowsCreated, st.FlowsExpired, n.Flows())
					return nil
				},
			}, nil
		},
	})
}
