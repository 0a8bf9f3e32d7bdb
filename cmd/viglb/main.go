// Command viglb runs the Maglev-style L4 load balancer on the simulated
// DPDK substrate: two multi-queue ports, the shared nf.Pipeline engine,
// and a built-in client traffic source standing in for the wire (all
// supplied by nfkit.Main), including a mid-run backend removal whose
// disruption is reported at the end.
//
// Usage:
//
//	viglb [-backends N] [-flows N] [-packets N] [-timeout D]
//	      [-capacity N] [-shards N] [-workers N] [-burst N]
//	      [-metrics addr] [-churn]
//
// -shards > 1 partitions the sticky table RSS-style. The balancer
// needs no port-range trick to shard: a backend reply carries the
// client's address and the VIP port, so the client tuple — and hence
// the flow hash — reconstructs from either direction, and every
// session lives on exactly one shard with no locks.
//
// -churn removes one backend halfway through and reports how many
// flows the removal remapped (only the victim's, by construction).
package main

import (
	"flag"
	"fmt"
	"io"
	"time"

	"vignat/internal/flow"
	"vignat/internal/lb"
	"vignat/internal/libvig"
	"vignat/internal/netstack"
	"vignat/internal/nf/nfkit"
)

var vip = flow.MakeAddr(198, 18, 10, 10)

const vipPort = 443

func main() {
	backends := flag.Int("backends", 8, "live backend count")
	flows := flag.Int("flows", 1000, "number of concurrent client flows to simulate")
	churn := flag.Bool("churn", true, "remove one backend halfway through the run")

	nfkit.Main(nfkit.App{
		Name:            "viglb",
		DefaultCapacity: 65535,
		Build: func(o *nfkit.Options, clock libvig.Clock) (*nfkit.Run, error) {
			balancer, err := lb.NewSharded(lb.Config{
				VIP:         vip,
				VIPPort:     vipPort,
				Capacity:    o.Capacity,
				Timeout:     o.Timeout,
				MaxBackends: *backends,
			}, clock, o.Shards)
			if err != nil {
				return nil, err
			}
			backendIPs := make([]flow.Addr, *backends)
			for i := range backendIPs {
				backendIPs[i] = flow.MakeAddr(10, 1, byte(i>>8), byte(10+i))
				if _, err := balancer.AddBackend(backendIPs[i], clock.Now()); err != nil {
					return nil, err
				}
			}

			// Client flows, all addressed to the VIP.
			frames := make([][]byte, *flows)
			for f := range frames {
				spec := &netstack.FrameSpec{ID: flow.ID{
					SrcIP:   flow.MakeAddr(203, byte(f>>16), byte(f>>8), byte(f)),
					SrcPort: 20000,
					DstIP:   vip,
					DstPort: vipPort,
					Proto:   flow.UDP,
				}}
				frames[f] = netstack.Craft(make([]byte, netstack.FrameLen(spec)), spec)
			}

			var flowsBefore, flowsAfterRemoval int
			run := &nfkit.Run{
				NF:             balancer,
				ShardOf:        balancer.ShardOf,
				Backends:       balancer,
				Frames:         frames,
				FromInternal:   false, // clients face the external port
				InternalPortID: 0,     // backend side
				ExternalPortID: 1,     // client side
				Banner: fmt.Sprintf("viglb: VIP=%v:%d, %d backends, CAP=%d Texp=%v, %d shards, %d workers, burst %d, %d flows, %d packets",
					vip, vipPort, *backends, o.Capacity, o.Timeout, balancer.Shards(), o.Workers, o.Burst, *flows, o.Packets),
				Report: func(w io.Writer, r *nfkit.RunReport) error {
					st := balancer.Stats()
					fmt.Fprintf(w, "processed %d packets in %v (%.2f Mpps offered)\n",
						st.Processed, r.Elapsed.Round(time.Millisecond), r.Mpps(st.Processed))
					fmt.Fprintf(w, "  to backends: %-10d to clients: %-10d dropped: %d\n",
						st.ToBackend, st.ToClient, st.Dropped)
					fmt.Fprintf(w, "  flows created: %-10d expired: %d  live: %d\n",
						st.FlowsCreated, st.FlowsExpired, balancer.Flows())
					if *churn && *backends > 1 {
						if int(st.FlowsUnpinned) != flowsBefore-flowsAfterRemoval {
							return fmt.Errorf("unpinned accounting mismatch: counter %d, observed %d",
								st.FlowsUnpinned, flowsBefore-flowsAfterRemoval)
						}
						fmt.Fprintf(w, "  backend churn: removed %v mid-run, %d/%d sticky flows remapped (only its own)\n",
							backendIPs[0], st.FlowsUnpinned, flowsBefore)
					}
					if int(st.FlowsCreated-st.FlowsExpired-st.FlowsUnpinned) != balancer.Flows() {
						return fmt.Errorf("sticky accounting mismatch: created %d − expired %d − unpinned %d ≠ live %d",
							st.FlowsCreated, st.FlowsExpired, st.FlowsUnpinned, balancer.Flows())
					}
					return nil
				},
			}
			if *churn && *backends > 1 {
				run.Mid = func() error {
					flowsBefore = balancer.Flows()
					if err := balancer.RemoveBackend(0); err != nil {
						return err
					}
					flowsAfterRemoval = balancer.Flows()
					return nil
				}
			}
			return run, nil
		},
	})
}
