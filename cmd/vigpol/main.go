// Command vigpol runs the per-subscriber traffic policer on the
// simulated DPDK substrate: two multi-queue ports, the shared
// nf.Pipeline engine, and a built-in downstream traffic source standing
// in for the wire (all supplied by nfkit.Main), with a configurable
// share of subscribers flooded past their budget so the policing itself
// is visible in the final report.
//
// Usage:
//
//	vigpol [-rate B/s] [-bucket B] [-subscribers N] [-flood F]
//	       [-packets N] [-timeout D] [-capacity N] [-shards N]
//	       [-workers N] [-burst N] [-metrics addr]
//
// NOTE: -burst is the engine's RX/TX burst size (packets), shared with
// every demo binary; the per-subscriber bucket depth — which older
// versions called -burst — is now -bucket (bytes).
//
// -shards > 1 partitions the subscriber table RSS-style. The policer
// needs no port-range trick and no tuple reconstruction to shard: the
// only state key is the client IP, so ingress steers by destination
// address, egress by source address, and every subscriber lives on
// exactly one shard with no locks.
//
// -metrics serves the shards' published counters over HTTP while the
// run is in flight — the scrape is a handful of atomic loads and never
// touches worker-owned state.
package main

import (
	"flag"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"vignat/internal/flow"
	"vignat/internal/libvig"
	"vignat/internal/netstack"
	"vignat/internal/nf/nfkit"
	"vignat/internal/policer"
)

func main() {
	rate := flag.Int64("rate", 1_000_000, "per-subscriber sustained budget (bytes/second)")
	bucket := flag.Int64("bucket", 16384, "per-subscriber bucket depth (bytes)")
	subscribers := flag.Int("subscribers", 1000, "number of subscriber IPs receiving traffic")
	flood := flag.Float64("flood", 0.25, "fraction of subscribers flooded past their budget")

	nfkit.Main(nfkit.App{
		Name:            "vigpol",
		DefaultCapacity: 65535,
		Build: func(o *nfkit.Options, clock libvig.Clock) (*nfkit.Run, error) {
			pol, err := policer.NewSharded(policer.Config{
				Rate:     *rate,
				Burst:    *bucket,
				Capacity: o.Capacity,
				Timeout:  o.Timeout,
			}, clock, o.Shards)
			if err != nil {
				return nil, err
			}

			// Downstream frames, one per subscriber: flooded subscribers
			// receive large frames whose arrival rate exceeds their
			// budget, the rest get small conforming traffic.
			nFlooded := int(float64(*subscribers) * *flood)
			frames := make([][]byte, *subscribers)
			for f := range frames {
				payload := 40
				if f < nFlooded {
					payload = 1400
				}
				spec := &netstack.FrameSpec{ID: flow.ID{
					SrcIP:   flow.MakeAddr(198, 51, 100, 7),
					SrcPort: 443,
					DstIP:   flow.MakeAddr(10, byte(f>>16), byte(f>>8), byte(f)),
					DstPort: 8080,
					Proto:   flow.UDP,
				}, PayloadLen: payload}
				frames[f] = netstack.Craft(make([]byte, netstack.FrameLen(spec)), spec)
			}

			var delivered atomic.Int64
			return &nfkit.Run{
				NF:             pol,
				ShardOf:        pol.ShardOf,
				Rate:           pol,
				Frames:         frames,
				FromInternal:   false, // downstream traffic enters upstream-side
				InternalPortID: 0,     // subscriber side
				ExternalPortID: 1,     // upstream side
				Banner: fmt.Sprintf("vigpol: rate=%d B/s burst=%d B Texp=%v CAP=%d, %d shards, %d workers, rx burst %d, %d subscribers (%d flooded), %d packets",
					*rate, *bucket, o.Timeout, o.Capacity, pol.Shards(), o.Workers, o.Burst,
					*subscribers, nFlooded, o.Packets),
				OnDelivered: func(_ int, frame []byte) {
					delivered.Add(int64(len(frame)))
				},
				Report: func(w io.Writer, r *nfkit.RunReport) error {
					st := pol.Stats()
					fmt.Fprintf(w, "processed %d packets in %v (%.2f Mpps offered)\n",
						st.Processed, r.Elapsed.Round(time.Millisecond), r.Mpps(st.Processed))
					fmt.Fprintf(w, "  conformed: %-10d over-rate drops: %-10d table-full drops: %d\n",
						st.Conformed, st.DroppedOverRate, st.DroppedTableFull)
					fmt.Fprintf(w, "  subscribers admitted: %-10d expired: %d  tracked: %d\n",
						st.BucketsCreated, st.BucketsExpired, pol.Subscribers())
					if int(st.BucketsCreated-st.BucketsExpired) != pol.Subscribers() {
						return fmt.Errorf("subscriber accounting mismatch: created %d − expired %d ≠ tracked %d",
							st.BucketsCreated, st.BucketsExpired, pol.Subscribers())
					}
					if nFlooded > 0 && st.DroppedOverRate == 0 {
						return fmt.Errorf("flooded subscribers were never clipped; the policer policed nothing")
					}
					// The budget law, checked on the wire: every delivered
					// byte was paid from an admission burst or a refill.
					lawBudget := int64(st.BucketsCreated)*(*bucket) +
						(r.Now/1_000_000_000+1)*(*rate)*int64(*subscribers)
					if d := delivered.Load(); d > lawBudget {
						return fmt.Errorf("long-run budget law violated: %d delivered bytes > %d budget", d, lawBudget)
					}
					fmt.Fprintf(w, "  delivered %d bytes ≤ budget-law bound %d ✓\n", delivered.Load(), lawBudget)
					return nil
				},
			}, nil
		},
	})
}
