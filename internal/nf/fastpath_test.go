// Engine-level coverage for the established-flow fast path: twin-rig
// agreement (cache on vs off, byte-identical outputs), invalidation on
// expiry (both modes) and on balancer backend drain, churn-flood
// overhead bounds, metrics exposure, and configuration resolution.
package nf_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"testing"
	"time"

	"vignat/internal/discard"
	"vignat/internal/dpdk"
	"vignat/internal/fastpath"
	"vignat/internal/flow"
	"vignat/internal/lb"
	"vignat/internal/libvig"
	"vignat/internal/nat"
	"vignat/internal/netstack"
	"vignat/internal/nf"
)

// natRig is one complete NAT-on-pipeline harness with its own ports.
type natRig struct {
	pipe    *nf.Pipeline
	nat     *nat.Sharded
	pool    *dpdk.Mempool
	intPort *dpdk.Port
	extPort *dpdk.Port
}

func newNATRig(t *testing.T, clock libvig.Clock, natCfg nat.Config, fastPath int) *natRig {
	t.Helper()
	sharded, err := nat.NewSharded(natCfg, clock, 1)
	if err != nil {
		t.Fatal(err)
	}
	pool, intPort, extPort := twoPorts(t, 256)
	pipe, err := nf.NewPipeline(sharded, nf.Config{
		Internal: intPort, External: extPort, Clock: clock,
		FastPath: fastPath,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &natRig{pipe: pipe, nat: sharded, pool: pool, intPort: intPort, extPort: extPort}
}

// drainFrames empties a port's TX queue into byte copies, freeing every
// mbuf.
func drainFrames(t *testing.T, port *dpdk.Port) [][]byte {
	t.Helper()
	var out [][]byte
	bufs := make([]*dpdk.Mbuf, 8)
	for {
		k := port.DrainTx(bufs)
		if k == 0 {
			return out
		}
		for i := 0; i < k; i++ {
			out = append(out, append([]byte(nil), bufs[i].Data...))
			if err := bufs[i].Pool().Free(bufs[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func compareFrameSets(t *testing.T, what string, on, off [][]byte) {
	t.Helper()
	if len(on) != len(off) {
		t.Fatalf("%s: fast rig emitted %d frames, slow rig %d", what, len(on), len(off))
	}
	for i := range on {
		if !bytes.Equal(on[i], off[i]) {
			t.Fatalf("%s: frame %d diverges\n fast: %x\n slow: %x", what, i, on[i], off[i])
		}
	}
}

// stepBoth delivers the same frames to both rigs, polls both, and
// demands byte-identical output on both ports.
func stepBoth(t *testing.T, on, off *natRig, clock *libvig.VirtualClock, frames []struct {
	b        []byte
	internal bool
}) {
	t.Helper()
	for _, rig := range []*natRig{on, off} {
		for _, f := range frames {
			port := rig.intPort
			if !f.internal {
				port = rig.extPort
			}
			if !port.DeliverRx(f.b, clock.Now()) {
				t.Fatal("rx rejected")
			}
		}
		if _, err := rig.pipe.Poll(); err != nil {
			t.Fatal(err)
		}
	}
	compareFrameSets(t, "external", drainFrames(t, on.extPort), drainFrames(t, off.extPort))
	compareFrameSets(t, "internal", drainFrames(t, on.intPort), drainFrames(t, off.intPort))
}

// TestFastPathNATMatchesSlowPath runs identical traffic — flow setup,
// steady-state repeats, replies, interleaved fresh flows, a bogus
// unsolicited packet — through a cached and an uncached NAT pipeline
// and demands byte-identical emissions plus identical NAT-core
// counters, with the cached rig actually hitting.
func TestFastPathNATMatchesSlowPath(t *testing.T) {
	extIP := flow.MakeAddr(198, 18, 1, 1)
	clock := libvig.NewVirtualClock(0)
	natCfg := nat.Config{Capacity: 256, Timeout: time.Hour, ExternalIP: extIP, ExternalPort: 1}
	on := newNATRig(t, clock, natCfg, 1024)
	off := newNATRig(t, clock, natCfg, nf.FastPathDisabled)
	if on.pipe.FastPathEntries() == 0 {
		t.Fatal("fast rig resolved to no cache")
	}
	if off.pipe.FastPathEntries() != 0 {
		t.Fatal("slow rig resolved to a cache")
	}

	buf := make([]byte, 2048)
	mkFlow := func(i int) flow.ID {
		return flow.ID{
			SrcIP:   flow.MakeAddr(10, 0, 0, byte(1+i)),
			DstIP:   flow.MakeAddr(198, 51, 100, 7),
			SrcPort: uint16(5000 + i), DstPort: 80, Proto: flow.UDP,
		}
	}
	type fr = struct {
		b        []byte
		internal bool
	}
	frame := func(id flow.ID, internal bool) fr {
		return fr{b: append([]byte(nil), udpFrame(t, buf, id)...), internal: internal}
	}

	// Rounds of traffic: establish flows, then repeat them (the second
	// sighting admits, the third hits), mix in replies and fresh flows.
	nEstablished := 8
	for round := 0; round < 6; round++ {
		var frames []fr
		for i := 0; i < nEstablished; i++ {
			frames = append(frames, frame(mkFlow(i), true))
		}
		if round >= 2 {
			// Replies to the translated tuples (deterministic ports: the
			// allocator hands them out in order, same on both rigs).
			for i := 0; i < nEstablished; i++ {
				reply := flow.ID{
					SrcIP: flow.MakeAddr(198, 51, 100, 7), DstIP: extIP,
					SrcPort: 80, DstPort: uint16(int(nat.DefaultPortBase) + i), Proto: flow.UDP,
				}
				frames = append(frames, frame(reply, false))
			}
			// A fresh flow every round, and one unsolicited bogus packet.
			frames = append(frames, frame(mkFlow(100+round), true))
			bogus := flow.ID{SrcIP: flow.MakeAddr(203, 0, 113, 9), DstIP: extIP, SrcPort: 443, DstPort: 65000, Proto: flow.UDP}
			frames = append(frames, frame(bogus, false))
		}
		stepBoth(t, on, off, clock, frames)
		clock.Advance(int64(time.Millisecond))
	}

	if onStats, offStats := on.nat.Stats(), off.nat.Stats(); onStats != offStats {
		t.Fatalf("NAT core stats diverge\n fast: %+v\n slow: %+v", onStats, offStats)
	}
	ps := on.pipe.Stats()
	if ps.FastPathHits == 0 {
		t.Fatal("cached rig recorded no fast-path hits")
	}
	if off.pipe.Stats().FastPathHits != 0 {
		t.Fatal("uncached rig recorded fast-path hits")
	}
	// The hits surfaced through the shard's published block too.
	if snap := on.nat.NFStats(); snap.FastPathHits != ps.FastPathHits {
		t.Fatalf("published hits %d != pipeline hits %d", snap.FastPathHits, ps.FastPathHits)
	}
	if on.pool.InUse() != 0 || off.pool.InUse() != 0 {
		t.Fatal("mbufs leaked")
	}
}

// TestFastPathExpiryInvalidation pins invalidation through state
// expiry: a cached flow whose state expires must not be served from
// the cache — the packet takes the slow path, re-resolves (a fresh
// flow, possibly a different port), and the cached rig stays
// byte-identical with the uncached one throughout.
func TestFastPathExpiryInvalidation(t *testing.T) {
	extIP := flow.MakeAddr(198, 18, 1, 1)
	clock := libvig.NewVirtualClock(0)
	timeout := 100 * time.Millisecond
	natCfg := nat.Config{Capacity: 64, Timeout: timeout, ExternalIP: extIP, ExternalPort: 1}
	on := newNATRig(t, clock, natCfg, 512)
	off := newNATRig(t, clock, natCfg, nf.FastPathDisabled)

	buf := make([]byte, 2048)
	id := flow.ID{
		SrcIP: flow.MakeAddr(10, 0, 0, 1), DstIP: flow.MakeAddr(198, 51, 100, 7),
		SrcPort: 5000, DstPort: 80, Proto: flow.UDP,
	}
	type fr = struct {
		b        []byte
		internal bool
	}
	one := []fr{{b: udpFrame(t, buf, id), internal: true}}

	// Establish (install on second sighting), then hit.
	stepBoth(t, on, off, clock, one)
	stepBoth(t, on, off, clock, one)
	stepBoth(t, on, off, clock, one)
	hitsBefore := on.pipe.Stats().FastPathHits
	if hitsBefore == 0 {
		t.Fatal("flow never hit the cache")
	}

	// Let the flow expire, then send a stale packet. The cached
	// entry's guard must be dead: slow path re-resolves.
	clock.Advance(timeout.Nanoseconds() + 1)
	stepBoth(t, on, off, clock, one)

	st := on.nat.Stats()
	if st.FlowsExpired == 0 {
		t.Fatal("flow never expired")
	}
	if st.FlowsCreated != 2 {
		t.Fatalf("stale packet did not re-resolve: %d flows created, want 2", st.FlowsCreated)
	}
	ps := on.pipe.Stats()
	if ps.FastPathHits != hitsBefore {
		t.Fatal("stale packet was served from the cache")
	}
	if ps.FastPathEvictions == 0 {
		t.Fatal("dead entry was not reclaimed")
	}
	if onStats, offStats := on.nat.Stats(), off.nat.Stats(); onStats != offStats {
		t.Fatalf("NAT core stats diverge after expiry\n fast: %+v\n slow: %+v", onStats, offStats)
	}

	// The re-resolved flow is cacheable again.
	stepBoth(t, on, off, clock, one)
	stepBoth(t, on, off, clock, one)
	if on.pipe.Stats().FastPathHits == hitsBefore {
		t.Fatal("re-resolved flow never re-entered the cache")
	}
}

// TestFastPathBackendDrainInvalidation pins invalidation through the
// balancer control plane: draining a backend erases its sticky flows,
// and the very next packet of a cached flow must take the slow path
// and re-select a surviving backend — byte-identical with an uncached
// rig throughout.
func TestFastPathBackendDrainInvalidation(t *testing.T) {
	vip := flow.MakeAddr(203, 0, 113, 1)
	clock := libvig.NewVirtualClock(0)
	lbCfg := lb.Config{VIP: vip, Capacity: 64, Timeout: time.Hour, MaxBackends: 4}

	type lbRig struct {
		pipe    *nf.Pipeline
		lb      *lb.Sharded
		intPort *dpdk.Port
		extPort *dpdk.Port
	}
	mk := func(fastPath int) *lbRig {
		sharded, err := lb.NewSharded(lbCfg, clock, 1)
		if err != nil {
			t.Fatal(err)
		}
		_, intPort, extPort := twoPorts(t, 256)
		pipe, err := nf.NewPipeline(sharded, nf.Config{
			Internal: intPort, External: extPort, Clock: clock, FastPath: fastPath,
		})
		if err != nil {
			t.Fatal(err)
		}
		return &lbRig{pipe: pipe, lb: sharded, intPort: intPort, extPort: extPort}
	}
	on, off := mk(512), mk(nf.FastPathDisabled)
	backends := []flow.Addr{flow.MakeAddr(192, 0, 2, 1), flow.MakeAddr(192, 0, 2, 2)}
	for _, rig := range []*lbRig{on, off} {
		for _, be := range backends {
			if _, err := rig.lb.AddBackend(be, clock.Now()); err != nil {
				t.Fatal(err)
			}
		}
	}

	buf := make([]byte, 2048)
	client := flow.ID{
		SrcIP: flow.MakeAddr(10, 9, 9, 9), DstIP: vip,
		SrcPort: 7777, DstPort: 80, Proto: flow.UDP,
	}
	// Clients face the external side in the default posture.
	step := func() (onOut, offOut [][]byte) {
		for _, rig := range []*lbRig{on, off} {
			if !rig.extPort.DeliverRx(udpFrame(t, buf, client), clock.Now()) {
				t.Fatal("rx rejected")
			}
			if _, err := rig.pipe.Poll(); err != nil {
				t.Fatal(err)
			}
		}
		onOut, offOut = drainFrames(t, on.intPort), drainFrames(t, off.intPort)
		compareFrameSets(t, "to-backend", onOut, offOut)
		return onOut, offOut
	}

	// Establish, admit, hit.
	first, _ := step()
	step()
	step()
	if on.pipe.Stats().FastPathHits == 0 {
		t.Fatal("sticky flow never hit the cache")
	}
	var pkt netstack.Packet
	if err := pkt.Parse(first[0]); err != nil {
		t.Fatal(err)
	}
	pinned := pkt.DstIP

	// Drain the pinned backend on both rigs. The sticky entry is erased
	// — its cached template (rewrite to the dead backend) must die too.
	var pinnedIdx = -1
	for i := range backends {
		if addr, ok := on.lb.Backend(i); ok && addr == pinned {
			pinnedIdx = i
		}
	}
	if pinnedIdx < 0 {
		t.Fatalf("pinned backend %v not found", pinned)
	}
	for _, rig := range []*lbRig{on, off} {
		if err := rig.lb.RemoveBackend(pinnedIdx); err != nil {
			t.Fatal(err)
		}
	}

	hitsAtDrain := on.pipe.Stats().FastPathHits
	after, _ := step()
	if err := pkt.Parse(after[0]); err != nil {
		t.Fatal(err)
	}
	if pkt.DstIP == pinned {
		t.Fatalf("packet still forwarded to the drained backend %v", pinned)
	}
	if on.pipe.Stats().FastPathHits != hitsAtDrain {
		t.Fatal("post-drain packet was served from the cache")
	}
	if on.pipe.Stats().FastPathEvictions == 0 {
		t.Fatal("drained entry was not reclaimed")
	}
	if st := on.lb.Stats(); st.FlowsUnpinned != 1 {
		t.Fatalf("FlowsUnpinned=%d, want 1", st.FlowsUnpinned)
	}
}

// TestFastPathChurnBoundedOverhead pins the adversarial floor: under a
// pure churn flood (every packet a never-repeating flow — the SYN-scan
// shape), the cache never hits, and the doorkeeper keeps installs so
// rare that total time stays within a generous constant factor of the
// uncached pipeline. The rounds alternate uncached and cached, so a
// change in host speed lands on both sides, and min-of-rounds damps
// scheduler noise.
func TestFastPathChurnBoundedOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	extIP := flow.MakeAddr(198, 18, 1, 1)
	natCfg := nat.Config{Capacity: 1 << 15, Timeout: time.Hour, ExternalIP: extIP, ExternalPort: 1}

	const rounds = 5
	const burstsPerRound = 400 // × DefaultBurst packets
	buf := make([]byte, 2048)
	bufs := make([]*dpdk.Mbuf, 64)
	churnRound := func(fastPath int) time.Duration {
		clock := libvig.NewVirtualClock(0)
		rig := newNATRig(t, clock, natCfg, fastPath)
		seq := uint32(0)
		start := time.Now()
		for b := 0; b < burstsPerRound; b++ {
			for i := 0; i < nf.DefaultBurst; i++ {
				seq++
				id := flow.ID{
					SrcIP:   flow.MakeAddr(10, byte(seq>>16), byte(seq>>8), byte(seq)),
					DstIP:   flow.MakeAddr(198, 51, 100, 7),
					SrcPort: uint16(seq), DstPort: 80, Proto: flow.UDP,
				}
				if !rig.intPort.DeliverRx(udpFrame(t, buf, id), 0) {
					t.Fatal("rx rejected")
				}
			}
			if _, err := rig.pipe.Poll(); err != nil {
				t.Fatal(err)
			}
			for {
				k := rig.extPort.DrainTx(bufs)
				if k == 0 {
					break
				}
				for j := 0; j < k; j++ {
					if err := bufs[j].Pool().Free(bufs[j]); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		el := time.Since(start)
		if ps := rig.pipe.Stats(); fastPath > 0 && ps.FastPathHits != 0 {
			t.Fatalf("churn traffic hit the cache: %+v", ps)
		}
		return el
	}

	slow, fast := time.Duration(1<<62-1), time.Duration(1<<62-1)
	for r := 0; r < rounds; r++ {
		slow = min(slow, churnRound(nf.FastPathDisabled))
		fast = min(fast, churnRound(4096))
	}
	ratio := float64(fast) / float64(slow)
	t.Logf("churn: cached %v, uncached %v, ratio %.3f", fast, slow, ratio)
	if ratio > 1.5 {
		t.Fatalf("churn overhead ratio %.3f exceeds 1.5 (cached %v, uncached %v)", ratio, fast, slow)
	}
}

// TestFastPathAdaptiveBypass pins the classifier's cold mode: a
// sustained all-miss flood idles it (packets bypass unexamined, the
// FastPathBypassed counter moves), a sampled hit of returning
// established traffic re-warms it, and the burst after re-warming is
// served entirely from the cache — byte-identical with an uncached rig
// through every phase.
func TestFastPathAdaptiveBypass(t *testing.T) {
	extIP := flow.MakeAddr(198, 18, 1, 1)
	clock := libvig.NewVirtualClock(0)
	natCfg := nat.Config{Capacity: 512, Timeout: time.Hour, ExternalIP: extIP, ExternalPort: 1}
	on := newNATRig(t, clock, natCfg, 1024)
	off := newNATRig(t, clock, natCfg, nf.FastPathDisabled)

	buf := make([]byte, 2048)
	type fr = struct {
		b        []byte
		internal bool
	}
	frame := func(id flow.ID) fr {
		return fr{b: append([]byte(nil), udpFrame(t, buf, id)...), internal: true}
	}
	estID := flow.ID{
		SrcIP: flow.MakeAddr(10, 0, 0, 1), DstIP: flow.MakeAddr(198, 51, 100, 7),
		SrcPort: 5000, DstPort: 80, Proto: flow.UDP,
	}

	// Establish: second sighting installs, third hits.
	for i := 0; i < 3; i++ {
		stepBoth(t, on, off, clock, []fr{frame(estID)})
	}
	if on.pipe.Stats().FastPathHits == 0 {
		t.Fatal("flow never hit the cache")
	}

	// Churn floods: bursts of never-repeating flows. Enough all-miss
	// bursts idle the classifier, after which most churn packets bypass
	// it unexamined.
	churnSeq := 0
	churnBurst := func() []fr {
		frames := make([]fr, 16)
		for i := range frames {
			churnSeq++
			frames[i] = frame(flow.ID{
				SrcIP:   flow.MakeAddr(10, 7, byte(churnSeq>>8), byte(churnSeq)),
				DstIP:   flow.MakeAddr(198, 51, 100, 7),
				SrcPort: uint16(6000 + churnSeq), DstPort: 80, Proto: flow.UDP,
			})
		}
		return frames
	}
	for b := 0; b < 12; b++ {
		stepBoth(t, on, off, clock, churnBurst())
	}
	ps := on.pipe.Stats()
	if ps.FastPathBypassed == 0 {
		t.Fatalf("churn flood never idled the classifier: %+v", ps)
	}
	if ps.FastPathHits != 3-2 { // only the third establishment packet hit
		t.Fatalf("churn traffic hit the cache: %+v", ps)
	}

	// Established traffic returns. The first burst is still sampled —
	// one packet in it probes, hits the still-live entry, and re-warms
	// the classifier; the next burst is served entirely from the cache.
	repeat := make([]fr, 16)
	for i := range repeat {
		repeat[i] = frame(estID)
	}
	stepBoth(t, on, off, clock, repeat)
	warm := on.pipe.Stats()
	if warm.FastPathHits == ps.FastPathHits {
		t.Fatal("sampled established packet did not hit")
	}
	stepBoth(t, on, off, clock, repeat)
	after := on.pipe.Stats()
	if got := after.FastPathHits - warm.FastPathHits; got != 16 {
		t.Fatalf("burst after re-warming: %d hits, want 16", got)
	}
	if after.FastPathBypassed != warm.FastPathBypassed {
		t.Fatal("classifier still bypassing after re-warming")
	}
	if on.pool.InUse() != 0 || off.pool.InUse() != 0 {
		t.Fatal("mbufs leaked")
	}
}

// TestFastPathMetricsExposure pins the observability satellite: the
// flow-cache counters travel the whole stats plumbing — engine →
// the shard's published block → /metrics JSON.
func TestFastPathMetricsExposure(t *testing.T) {
	extIP := flow.MakeAddr(198, 18, 1, 1)
	clock := libvig.NewVirtualClock(0)
	natCfg := nat.Config{Capacity: 64, Timeout: time.Hour, ExternalIP: extIP, ExternalPort: 1}
	rig := newNATRig(t, clock, natCfg, 256)

	buf := make([]byte, 2048)
	id := flow.ID{
		SrcIP: flow.MakeAddr(10, 0, 0, 1), DstIP: flow.MakeAddr(198, 51, 100, 7),
		SrcPort: 5000, DstPort: 80, Proto: flow.UDP,
	}
	for i := 0; i < 5; i++ {
		if !rig.intPort.DeliverRx(udpFrame(t, buf, id), clock.Now()) {
			t.Fatal("rx rejected")
		}
		if _, err := rig.pipe.Poll(); err != nil {
			t.Fatal(err)
		}
		drainFrames(t, rig.extPort)
	}
	snap := rig.nat.NFStats()
	if snap.FastPathHits == 0 || snap.FastPathMisses == 0 {
		t.Fatalf("shard stats missing fast-path counters: %+v", snap)
	}

	m, err := nf.ServeMetrics("127.0.0.1:0", nf.SourceOf("vignat-fast", rig.nat, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", m.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]nf.Stats
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	got := doc["vignat-fast"]
	if got.FastPathHits != snap.FastPathHits || got.FastPathMisses != snap.FastPathMisses {
		t.Fatalf("/metrics fast-path counters %+v do not match snapshot %+v", got, snap)
	}
}

// TestBlockPublishFlowCache pins how the engine's flow-cache counters
// reach a block: as per-burst deltas that accumulate behind the core's
// own counters, which are copied as they stand, and never across blocks.
func TestBlockPublishFlowCache(t *testing.T) {
	blocks := []*nf.Block{nf.NewBlock(3), nf.NewBlock(3)}
	blocks[1].Publish([]uint64{7, 0, 1}, nf.FlowCache{10, 3, 1, 2})
	blocks[1].Publish([]uint64{7, 2, 1}, nf.FlowCache{5, 0, 0, 4})
	counters, fc := blocks[1].Snapshot()
	if !reflect.DeepEqual(counters, []uint64{7, 2, 1}) {
		t.Fatalf("published counters %v, want the array as last published", counters)
	}
	got := nf.Stats{}.With(fc)
	if got.FastPathHits != 15 || got.FastPathMisses != 3 || got.FastPathEvictions != 1 || got.FastPathBypassed != 6 {
		t.Fatalf("shard snapshot %+v", got)
	}
	if counters, fc := blocks[0].Snapshot(); fc != (nf.FlowCache{}) || !reflect.DeepEqual(counters, make([]uint64, 3)) {
		t.Fatalf("counters leaked across blocks: %v %v", counters, fc)
	}
}

// countingShard is a real shard behind counters of how the engine
// drives it: whole-burst ProcessBatch calls, ProcessBatchAt fragments,
// and publications with the flow-cache counters they carried.
type countingShard struct {
	nf.NF
	nf.FastPather
	batches, fragments int
	published          []nf.FlowCache
}

func (c *countingShard) ProcessBatch(pkts []nf.Pkt, verdicts []nf.Verdict) {
	c.batches++
	c.NF.ProcessBatch(pkts, verdicts)
}

func (c *countingShard) ProcessBatchAt(pkts []nf.Pkt, verdicts []nf.Verdict, now libvig.Time) {
	c.fragments++
	c.FastPather.ProcessBatchAt(pkts, verdicts, now)
}

func (c *countingShard) Publish(fc nf.FlowCache) {
	c.published = append(c.published, fc)
	c.NF.(nf.Publisher).Publish(fc)
}

// countingSharder hands the engine a one-shard NAT's shard wrapped in
// a countingShard.
type countingSharder struct {
	*nat.Sharded
	shard *countingShard
}

func (c countingSharder) Shard(int) nf.NF { return c.shard }

// TestMixedBurstPublishesOnce pins the publication cadence: a burst
// alternating cache hits and misses runs its slow fragments and its
// hits without publishing and moves the shard's block exactly once, at
// its end, with the burst's flow-cache counters; an uncached burst
// publishes once after its one ProcessBatch; an idle poll publishes
// only when its sweep freed something. After each, the block holds the
// core's counter array cell for cell.
func TestMixedBurstPublishesOnce(t *testing.T) {
	const flows = 8
	clock := libvig.NewVirtualClock(0)
	natCfg := nat.Config{Capacity: 64, Timeout: time.Second, ExternalIP: flow.MakeAddr(198, 18, 1, 1), ExternalPort: 1}
	type rig struct {
		sharded          *nat.Sharded
		shard            *countingShard
		pipe             *nf.Pipeline
		intPort, extPort *dpdk.Port
	}
	build := func(fastPath int) *rig {
		sharded, err := nat.NewSharded(natCfg, clock, 1)
		if err != nil {
			t.Fatal(err)
		}
		real := sharded.Shard(0)
		r := &rig{sharded: sharded, shard: &countingShard{NF: real, FastPather: real.(nf.FastPather)}}
		_, r.intPort, r.extPort = twoPorts(t, 256)
		r.pipe, err = nf.NewPipeline(countingSharder{sharded, r.shard}, nf.Config{
			Internal: r.intPort, External: r.extPort, Clock: clock, FastPath: fastPath,
		})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	coreCounters := nat.Kit(natCfg, clock).Counters
	buf := make([]byte, 2048)
	frameOf := func(i int) []byte {
		return udpFrame(t, buf, flow.ID{
			SrcIP: flow.MakeAddr(10, 0, 0, byte(1+i)), DstIP: flow.MakeAddr(198, 51, 100, 7),
			SrcPort: uint16(5000 + i), DstPort: 80,
		})
	}
	// poll delivers the flows' frames as one burst, polls once, and
	// returns what that one poll did to the shard.
	poll := func(r *rig, ids ...int) (batches, fragments int, published []nf.FlowCache) {
		t.Helper()
		clock.Advance(1000)
		for _, i := range ids {
			if !r.intPort.DeliverRx(frameOf(i), clock.Now()) {
				t.Fatal("rx rejected")
			}
		}
		b, f, p := r.shard.batches, r.shard.fragments, len(r.shard.published)
		if _, err := r.pipe.Poll(); err != nil {
			t.Fatal(err)
		}
		drainFrames(t, r.extPort)
		if got, want := r.sharded.ShardScrape(0).Counters, coreCounters(r.sharded.ShardNAT(0)); !reflect.DeepEqual(got, want) {
			t.Fatalf("published block %v, the core's array %v", got, want)
		}
		return r.shard.batches - b, r.shard.fragments - f, r.shard.published[p:]
	}

	on, off := build(1024), build(nf.FastPathDisabled)
	established := make([]int, flows)
	mixed := make([]int, 0, 2*flows)
	for i := range established {
		established[i] = i
		mixed = append(mixed, i, 100+i) // a hit, then a never-seen flow
	}
	// Three sightings: slow path, doorkeeper admission + install, hits.
	for i := 0; i < 3; i++ {
		poll(on, established...)
	}

	batches, fragments, published := poll(on, mixed...)
	if len(published) != 1 {
		t.Fatalf("a mixed burst published %d times, want once", len(published))
	}
	if want := (nf.FlowCache{flows, flows, 0, 0}); published[0] != want {
		t.Fatalf("the burst's publication carried %v, want %v (hits, misses, evictions, bypassed)", published[0], want)
	}
	if batches != 0 || fragments < flows-1 {
		t.Fatalf("mixed burst ran %d whole batches and %d fragments, want 0 and one per miss between hits", batches, fragments)
	}

	batches, fragments, published = poll(off, mixed...)
	if batches != 1 || fragments != 0 || len(published) != 1 || published[0] != (nf.FlowCache{}) {
		t.Fatalf("uncached burst: %d batches, %d fragments, publications %v; want one batch, one empty-handed publication",
			batches, fragments, published)
	}

	// An idle poll with nothing to free publishes nothing; one whose
	// sweep frees the table publishes once.
	if _, _, published = poll(on); len(published) != 0 {
		t.Fatalf("an idle poll that freed nothing published %v", published)
	}
	clock.Advance(libvig.Time(2 * natCfg.Timeout.Nanoseconds()))
	if _, _, published = poll(on); len(published) != 1 {
		t.Fatalf("an idle poll that expired every flow published %d times, want once", len(published))
	}
	if st := on.sharded.NFStats(); st.Expired != 2*flows {
		t.Fatalf("published Expired %d after the sweep, want %d", st.Expired, 2*flows)
	}
}

// TestFastPathConfigResolution pins the Config.FastPath / environment
// contract.
func TestFastPathConfigResolution(t *testing.T) {
	extIP := flow.MakeAddr(198, 18, 1, 1)
	natCfg := nat.Config{Capacity: 64, Timeout: time.Hour, ExternalIP: extIP, ExternalPort: 1}
	build := func(t *testing.T, withClock bool, fastPath int) (*nf.Pipeline, error) {
		t.Helper()
		var clock libvig.Clock
		if withClock {
			clock = libvig.NewVirtualClock(0)
		}
		sharded, err := nat.NewSharded(natCfg, libvig.NewVirtualClock(0), 1)
		if err != nil {
			t.Fatal(err)
		}
		_, intPort, extPort := twoPorts(t, 8)
		return nf.NewPipeline(sharded, nf.Config{
			Internal: intPort, External: extPort, Clock: clock, FastPath: fastPath,
		})
	}

	t.Run("explicit-needs-clock", func(t *testing.T) {
		if _, err := build(t, false, 512); err == nil {
			t.Fatal("explicit fast path without a clock must be rejected")
		}
	})
	t.Run("disabled-overrides-env", func(t *testing.T) {
		t.Setenv(nf.FastPathEnv, "1")
		p, err := build(t, true, nf.FastPathDisabled)
		if err != nil {
			t.Fatal(err)
		}
		if p.FastPathEntries() != 0 {
			t.Fatal("FastPathDisabled did not override the environment")
		}
	})
	t.Run("env-on", func(t *testing.T) {
		t.Setenv(nf.FastPathEnv, "1")
		p, err := build(t, true, 0)
		if err != nil {
			t.Fatal(err)
		}
		if p.FastPathEntries() != nf.DefaultFastPathEntries {
			t.Fatalf("env-enabled cache resolved to %d entries", p.FastPathEntries())
		}
	})
	t.Run("env-size", func(t *testing.T) {
		t.Setenv(nf.FastPathEnv, "4096")
		p, err := build(t, true, 0)
		if err != nil {
			t.Fatal(err)
		}
		if p.FastPathEntries() != 4096 {
			t.Fatalf("env size resolved to %d entries", p.FastPathEntries())
		}
	})
	t.Run("env-garbage", func(t *testing.T) {
		t.Setenv(nf.FastPathEnv, "many")
		if _, err := build(t, true, 0); err == nil {
			t.Fatal("garbage env value must be rejected")
		}
	})
	t.Run("env-off", func(t *testing.T) {
		t.Setenv(nf.FastPathEnv, "off")
		p, err := build(t, true, 0)
		if err != nil {
			t.Fatal(err)
		}
		if p.FastPathEntries() != 0 {
			t.Fatal("env off did not disable")
		}
	})
	t.Run("env-on-clockless-stays-off", func(t *testing.T) {
		t.Setenv(nf.FastPathEnv, "1")
		p, err := build(t, false, 0)
		if err != nil {
			t.Fatal(err)
		}
		if p.FastPathEntries() != 0 {
			t.Fatal("clockless rig must silently stay uncached")
		}
	})
	t.Run("non-fastpather-nf", func(t *testing.T) {
		_, intPort, extPort := twoPorts(t, 8)
		p, err := nf.NewPipeline(discard.NewFrameNF(), nf.Config{
			Internal: intPort, External: extPort,
			Clock: libvig.NewVirtualClock(0), FastPath: 512,
		})
		if err != nil {
			t.Fatal(err)
		}
		if p.FastPathEntries() != 0 {
			t.Fatal("non-participating NF must resolve to no cache")
		}
	})
}

// TestFastPathHitSurvivesEvictingInstall is the regression test for a
// hit's entry going stale inside its own burst: the engine finds a
// packet's entry, then flushes the slow run queued before it, and that
// flush's installs may displace the very slot the entry sits in — the
// packet must not then be rewritten from the new occupant's template.
// Every frame must match the uncached pipeline's.
func TestFastPathHitSurvivesEvictingInstall(t *testing.T) {
	extIP := flow.MakeAddr(198, 18, 1, 1)
	natCfg := nat.Config{Capacity: 4096, Timeout: time.Hour, ExternalIP: extIP, ExternalPort: 1}
	type fr = struct {
		b        []byte
		internal bool
	}
	buf := make([]byte, 2048)
	outbound := func(i int) (flow.ID, fr) {
		id := flow.ID{
			SrcIP:   flow.MakeAddr(10, byte(i>>16), byte(i>>8), byte(i)),
			DstIP:   flow.MakeAddr(198, 51, 100, 7),
			SrcPort: uint16(5000 + i%50000), DstPort: 80, Proto: flow.UDP,
		}
		return id, fr{b: append([]byte(nil), udpFrame(t, buf, id)...), internal: true}
	}
	rigs := func() (on, off *natRig, clock *libvig.VirtualClock) {
		clock = libvig.NewVirtualClock(0)
		return newNATRig(t, clock, natCfg, nf.DefaultFastPathEntries),
			newNATRig(t, clock, natCfg, nf.FastPathDisabled), clock
	}

	// Forced: nine flows whose cache keys share one home slot. Eight fill
	// its probe window in order, the first of them in the home slot
	// itself; the ninth, admitted on its second sighting, can then only be
	// installed by displacing the home slot. Put it in a burst ahead of a
	// packet of the flow that sits there.
	t.Run("forced", func(t *testing.T) {
		on, off, clock := rigs()
		mask := uint64(on.pipe.FastPathEntries() - 1)
		var same []fr
		for i, home := 0, uint64(0); len(same) < 9; i++ {
			id, f := outbound(i)
			h := fastpath.Key{ID: id, FromInternal: true}.Hash() & mask
			if len(same) == 0 {
				home = h
			}
			if h == home {
				same = append(same, f)
			}
		}
		stepBoth(t, on, off, clock, same[:8]) // first sighting
		stepBoth(t, on, off, clock, same[:8]) // admitted, installed in order
		stepBoth(t, on, off, clock, same[8:]) // the ninth's first sighting
		before := on.pipe.Stats()
		stepBoth(t, on, off, clock, []fr{same[8], same[0]})
		after := on.pipe.Stats()
		if after.FastPathEvictions == before.FastPathEvictions {
			t.Fatalf("the ninth flow's install displaced nothing: %+v", after)
		}
		stepBoth(t, on, off, clock, same)
	})

	// The population that first showed the defect (benchmark/README.md):
	// 2,048 active flows are 4,096 keys against 8,192 entries, a load at
	// which installs evict now and then, half of each burst outbound and
	// half replies.
	t.Run("population", func(t *testing.T) {
		const flows, bursts = 2048, 20000
		on, off, clock := rigs()
		out := make([]fr, flows)
		in := make([]fr, flows)
		for i := range out {
			var id flow.ID
			id, out[i] = outbound(i)
			// The allocator hands ports out in order, the same on both rigs.
			reply := flow.ID{
				SrcIP: id.DstIP, DstIP: extIP,
				SrcPort: 80, DstPort: uint16(int(nat.DefaultPortBase) + i), Proto: flow.UDP,
			}
			in[i] = fr{b: append([]byte(nil), udpFrame(t, buf, reply)...), internal: false}
		}
		for i := 0; i < flows; i += 16 {
			stepBoth(t, on, off, clock, out[i:i+16])
		}
		rng := uint64(1)
		next := func() int {
			rng = rng*6364136223846793005 + 1442695040888963407
			return int(rng>>33) % flows
		}
		burst := make([]fr, 0, 32)
		for b := 0; b < bursts; b++ {
			burst = burst[:0]
			for i := 0; i < 16; i++ {
				burst = append(burst, out[next()])
			}
			for i := 0; i < 16; i++ {
				burst = append(burst, in[next()])
			}
			stepBoth(t, on, off, clock, burst)
			clock.Advance(int64(time.Microsecond))
		}
		ps := on.pipe.Stats()
		if ps.FastPathHits == 0 || ps.FastPathEvictions == 0 {
			t.Fatalf("the traffic must both hit and evict: %+v", ps)
		}
		if onStats, offStats := on.nat.Stats(), off.nat.Stats(); onStats != offStats {
			t.Fatalf("NAT core stats diverge\n fast: %+v\n slow: %+v", onStats, offStats)
		}
	})
}

// TestFastPathColdStaysColdUnderChurn pins the doorkeeper's false
// admissions to a level at which a flood cannot re-warm a cold worker:
// an admitted key is installed, and an install takes the worker out of
// cold mode for at least coldAfter bursts. With one-byte tags 1.6% of
// never-seen keys were admitted and the worker classified a quarter of
// a flood of never-repeating tuples for nothing.
func TestFastPathColdStaysColdUnderChurn(t *testing.T) {
	const packets = 1 << 20
	clock := libvig.NewVirtualClock(0)
	natCfg := nat.Config{Capacity: 4096, Timeout: time.Millisecond, ExternalIP: flow.MakeAddr(198, 18, 1, 1), ExternalPort: 1}
	rig := newNATRig(t, clock, natCfg, nf.DefaultFastPathEntries)
	buf := make([]byte, 2048)
	bufs := make([]*dpdk.Mbuf, 64)
	id := flow.ID{DstIP: flow.MakeAddr(198, 51, 100, 7), DstPort: 80, Proto: flow.UDP}
	for seq := uint32(1); seq <= packets; {
		for i := 0; i < nf.DefaultBurst; i, seq = i+1, seq+1 {
			// A multiplicative walk of the 2^32 addresses: no tuple repeats.
			id.SrcIP, id.SrcPort = flow.Addr(seq*2654435761), uint16(seq)
			if !rig.intPort.DeliverRx(udpFrame(t, buf, id), clock.Now()) {
				t.Fatal("rx rejected")
			}
		}
		clock.Advance(int64(nf.DefaultBurst * time.Microsecond))
		if _, err := rig.pipe.Poll(); err != nil {
			t.Fatal(err)
		}
		for k := rig.extPort.DrainTx(bufs); k > 0; k = rig.extPort.DrainTx(bufs) {
			for _, m := range bufs[:k] {
				if err := m.Pool().Free(m); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	ps := rig.pipe.Stats()
	if ps.TxPackets != packets || ps.FastPathHits != 0 {
		t.Fatalf("every packet opens a flow and none can hit: %+v", ps)
	}
	if share := float64(ps.FastPathBypassed) / packets; share < 0.9 {
		t.Fatalf("bypassed share %.3f under never-repeating tuples, want ≥ 0.9: %+v", share, ps)
	}
}
