package catalog_test

import (
	"fmt"
	"slices"
	"testing"

	"vignat/internal/catalog"
	"vignat/internal/dpdk"
	"vignat/internal/libvig"
	"vignat/internal/nf"
)

// TestGatewayScrapeDuringTraffic is `vignat -nf gateway -metrics`: one
// goroutine drives the gateway row's chain through the engine while
// another reads the chain's metrics source, its table fills included.
// The source must read only what the worker published (run it under
// -race): every scrape is consistent with itself, none goes backwards,
// and the one after the worker stops counts every packet.
func TestGatewayScrapeDuringTraffic(t *testing.T) {
	const rounds = 300
	o := catalog.Defaults()
	o.Flows = 256
	row, _ := catalog.Find(catalog.Rows, "gateway")
	clock := libvig.NewVirtualClock(0)
	run, err := row.New(o, clock)
	if err != nil {
		t.Fatal(err)
	}
	frames, fromInternal, err := row.Cohort(o)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := dpdk.NewMempool(1024)
	if err != nil {
		t.Fatal(err)
	}
	intPort, err := dpdk.NewPort(0, dpdk.DefaultRxQueue, dpdk.DefaultTxQueue, pool)
	if err != nil {
		t.Fatal(err)
	}
	extPort, err := dpdk.NewPort(1, dpdk.DefaultRxQueue, dpdk.DefaultTxQueue, pool)
	if err != nil {
		t.Fatal(err)
	}
	rx := extPort
	if fromInternal {
		rx = intPort
	}
	pipe, err := nf.NewPipeline(run.NF, nf.Config{Internal: intPort, External: extPort, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	src := nf.SourceOf(row.Name, run.NF, pipe)

	worker := make(chan error, 1)
	go func() {
		worker <- func() error {
			drain := make([]*dpdk.Mbuf, nf.DefaultBurst)
			for r := 0; r < rounds; r++ {
				clock.Advance(1000)
				for i := 0; i < nf.DefaultBurst; i++ {
					if !rx.DeliverRx(frames[(r*nf.DefaultBurst+i)%len(frames)], clock.Now()) {
						return fmt.Errorf("round %d: RX queue rejected a frame", r)
					}
				}
				if _, err := pipe.Poll(); err != nil {
					return err
				}
				for _, port := range []*dpdk.Port{intPort, extPort} {
					for k := port.DrainTx(drain); k > 0; k = port.DrainTx(drain) {
						for _, m := range drain[:k] {
							if err := m.Pool().Free(m); err != nil {
								return err
							}
						}
					}
				}
			}
			return nil
		}()
	}()

	var last nf.Stats
	scrapes := 0
	for running := true; running; {
		select {
		case err := <-worker:
			if err != nil {
				t.Fatal(err)
			}
			running = false
		default:
		}
		s := src.Read().Stats
		if s.Processed != s.Forwarded+s.Dropped || s.Processed < last.Processed || s.Expired < last.Expired {
			t.Fatalf("scrape %d: %+v after %+v", scrapes, s, last)
		}
		last = s
		// The chain's table fills are read live too.
		for _, f := range src.FlowTables() {
			if f.HighWater > f.Capacity {
				t.Fatalf("scrape %d: %+v", scrapes, f)
			}
		}
		scrapes++
	}
	if want := uint64(rounds * nf.DefaultBurst); last.Processed != want || last.Forwarded == 0 {
		t.Fatalf("the last scrape saw %+v of %d packets", last, want)
	}
	if pool.InUse() != 0 {
		t.Fatalf("mbuf leak: %d in use", pool.InUse())
	}
	t.Logf("%d scrapes during %d bursts: %+v", scrapes, rounds, last)
}

// TestGatewayReportsItsTables: the gateway row's chain reports, to the
// daemon's report and to /metrics, a flow-table fill for every element
// that keeps one, labelled with the element, and its cohort's flows
// show in the firewall's and the NAT's.
func TestGatewayReportsItsTables(t *testing.T) {
	o := catalog.Defaults()
	o.Flows = 64
	row, _ := catalog.Find(catalog.Rows, "gateway")
	run, err := row.New(o, libvig.NewVirtualClock(0))
	if err != nil {
		t.Fatal(err)
	}
	frames, fromInternal, err := row.Cohort(o)
	if err != nil {
		t.Fatal(err)
	}
	pkts := make([]nf.Pkt, len(frames))
	for i, f := range frames {
		pkts[i] = nf.Pkt{Frame: slices.Clone(f), FromInternal: fromInternal}
	}
	run.NF.ProcessBatch(pkts, make([]nf.Verdict, len(pkts)))

	var keepers []string
	for _, e := range run.NF.(*nf.Chain).Elems() {
		if len(nf.FlowTablesOf(e)) > 0 {
			keepers = append(keepers, e.Name())
		}
	}
	src := nf.SourceOf(row.Name, run.NF, nil)
	if src.FlowTables == nil {
		t.Fatal("the gateway's metrics source reports no flow tables")
	}
	var elems []string
	hw := map[string]int{}
	for _, f := range src.FlowTables() {
		if f.Capacity == 0 || f.HighWater > f.Capacity {
			t.Fatalf("fill %+v", f)
		}
		elems = append(elems, f.Elem)
		hw[f.Elem] += f.HighWater
	}
	if want := []string{"firewall", "vigpol", "viglb", "vignat"}; !slices.Equal(keepers, want) || !slices.Equal(elems, want) {
		t.Fatalf("fills labelled %v; the chain's table-keeping elements are %v, want %v", elems, keepers, want)
	}
	if hw["firewall"] == 0 || hw["vignat"] == 0 {
		t.Fatalf("high water %v after %d cohort frames", hw, len(frames))
	}
	t.Logf("high water after %d cohort frames: %v", len(frames), hw)
}
