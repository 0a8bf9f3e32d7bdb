// Benchmarks for the established-flow fast path (internal/fastpath +
// the nf.Pipeline pre-classifier): each scenario runs the full engine
// loop — RX burst, steer, classification, NF or cache, TX assembly,
// wire drain — with the flow cache on and, as the control, explicitly
// off, so the pair's ratio is the fast path's whole story. Hit100 is
// steady-state established traffic (every packet a cache hit after
// warmup); Churn is the adversarial floor, a SYN-scan-shaped flood of
// never-repeating tuples that the doorkeeper must shrug off.
//
//	go test -bench=FastPath -benchmem
package vignat_test

import (
	"testing"
	"time"

	"vignat/internal/dpdk"
	"vignat/internal/experiments"
	"vignat/internal/flow"
	"vignat/internal/libvig"
	"vignat/internal/nat"
	"vignat/internal/netstack"
	"vignat/internal/nf"
)

// benchNFFlows is the established population of the Hit100 scenario:
// small enough that every flow stays in the cache and in L2.
const benchNFFlows = 256

// setupFastPathPipe builds the 1-shard NAT pipeline used by all
// fast-path benchmarks, with the cache sized fastPath (or disabled).
func setupFastPathPipe(b *testing.B, fastPath int) (*nf.Pipeline, *dpdk.Port, *dpdk.Port, *dpdk.Mempool) {
	b.Helper()
	sh, err := nat.NewSharded(nat.Config{
		Capacity:     experiments.Capacity,
		Timeout:      time.Hour,
		ExternalIP:   experiments.ExtIP,
		PortBase:     experiments.PortBase,
		ExternalPort: 1,
	}, libvig.NewSystemClock(), 1)
	if err != nil {
		b.Fatal(err)
	}
	pool, err := dpdk.NewMempool(256)
	if err != nil {
		b.Fatal(err)
	}
	intPort, err := dpdk.NewPort(0, dpdk.DefaultRxQueue, dpdk.DefaultTxQueue, pool)
	if err != nil {
		b.Fatal(err)
	}
	extPort, err := dpdk.NewPort(1, dpdk.DefaultRxQueue, dpdk.DefaultTxQueue, pool)
	if err != nil {
		b.Fatal(err)
	}
	pipe, err := nf.NewPipeline(sh, nf.Config{
		Internal: intPort, External: extPort,
		Clock: libvig.NewSystemClock(), FastPath: fastPath,
	})
	if err != nil {
		b.Fatal(err)
	}
	return pipe, intPort, extPort, pool
}

// benchFastPathHit100 drives benchNFFlows established flows round-robin
// through the poll loop. Two warmup passes make every flow's second
// sighting admit it past the doorkeeper, so with the cache on the
// measured region is ~100% hits.
func benchFastPathHit100(b *testing.B, fastPath int) {
	pipe, intPort, extPort, pool := setupFastPathPipe(b, fastPath)
	frames := make([][]byte, benchNFFlows)
	for i := range frames {
		spec := &netstack.FrameSpec{ID: flow.ID{
			SrcIP:   flow.MakeAddr(10, 0, byte(i>>8), byte(i)),
			DstIP:   flow.MakeAddr(198, 51, 100, 1),
			SrcPort: uint16(10000 + i),
			DstPort: 80,
			Proto:   flow.UDP,
		}}
		frames[i] = netstack.Craft(make([]byte, netstack.FrameLen(spec)), spec)
	}
	drain := make([]*dpdk.Mbuf, nf.DefaultBurst)
	runPass := func(from, n int) {
		for done := 0; done < n; {
			c := nf.DefaultBurst
			if done+c > n {
				c = n - done
			}
			for j := 0; j < c; j++ {
				if !intPort.DeliverRx(frames[(from+done+j)%benchNFFlows], 0) {
					b.Fatal("rx queue full")
				}
			}
			if _, err := pipe.Poll(); err != nil {
				b.Fatal(err)
			}
			for {
				k := extPort.DrainTx(drain)
				if k == 0 {
					break
				}
				for i := 0; i < k; i++ {
					if err := pool.Free(drain[i]); err != nil {
						b.Fatal(err)
					}
				}
			}
			done += c
		}
	}
	runPass(0, 2*benchNFFlows) // create, then admit+install every flow
	b.ResetTimer()
	runPass(0, b.N)
}

func BenchmarkFastPathHit100(b *testing.B)    { benchFastPathHit100(b, nf.DefaultFastPathEntries) }
func BenchmarkFastPathHit100Off(b *testing.B) { benchFastPathHit100(b, nf.FastPathDisabled) }

// benchFastPathChurn drives the adversarial shape: unsolicited
// external tuples that never repeat within the NAT's table, so every
// packet is a cache miss AND a NAT-table miss (a port scan against the
// external IP). Nothing installs — the NAT forwards none of it — so
// the cached pipeline's extra work is exactly the pre-classifier:
// extract, hash, probe, doorkeeper tag.
func benchFastPathChurn(b *testing.B, fastPath int) {
	pipe, intPort, extPort, pool := setupFastPathPipe(b, fastPath)
	// A large rotating universe of scan frames; wraps are harmless
	// (declined offers never install, so repeats still miss).
	const scanFlows = 4096
	frames := make([][]byte, scanFlows)
	for i := range frames {
		spec := &netstack.FrameSpec{ID: flow.ID{
			SrcIP:   flow.MakeAddr(203, 0, byte(i>>8), byte(i)),
			DstIP:   experiments.ExtIP,
			SrcPort: uint16(1024 + i),
			DstPort: uint16(int(experiments.PortBase) + i%experiments.Capacity),
			Proto:   flow.UDP,
		}}
		frames[i] = netstack.Craft(make([]byte, netstack.FrameLen(spec)), spec)
	}
	drain := make([]*dpdk.Mbuf, nf.DefaultBurst)
	b.ResetTimer()
	for done := 0; done < b.N; {
		c := nf.DefaultBurst
		if done+c > b.N {
			c = b.N - done
		}
		for j := 0; j < c; j++ {
			if !extPort.DeliverRx(frames[(done+j)%scanFlows], 0) {
				b.Fatal("rx queue full")
			}
		}
		if _, err := pipe.Poll(); err != nil {
			b.Fatal(err)
		}
		for {
			k := intPort.DrainTx(drain)
			if k == 0 {
				break
			}
			for i := 0; i < k; i++ {
				if err := pool.Free(drain[i]); err != nil {
					b.Fatal(err)
				}
			}
		}
		done += c
	}
}

func BenchmarkFastPathChurn(b *testing.B)    { benchFastPathChurn(b, nf.DefaultFastPathEntries) }
func BenchmarkFastPathChurnOff(b *testing.B) { benchFastPathChurn(b, nf.FastPathDisabled) }
