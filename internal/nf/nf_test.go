package nf_test

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"vignat/internal/discard"
	"vignat/internal/dpdk"
	"vignat/internal/flow"
	"vignat/internal/libvig"
	"vignat/internal/nat"
	"vignat/internal/netstack"
	"vignat/internal/nf"
	"vignat/internal/nf/nfkit/nfkittest"
)

// --- test fixtures ---

// recordNF is a scripted NF that logs every packet it is handed and
// answers with a fixed verdict.
type recordNF struct {
	name    string
	verdict nf.Verdict
	log     *[]string
	stats   nf.Stats
}

func (r *recordNF) Name() string { return r.name }

func (r *recordNF) ProcessBatch(pkts []nf.Pkt, verdicts []nf.Verdict) {
	for i := range pkts {
		*r.log = append(*r.log, fmt.Sprintf("%s/%v", r.name, pkts[i].FromInternal))
		r.stats.Processed++
		if r.verdict == nf.Forward {
			r.stats.Forwarded++
		} else {
			r.stats.Dropped++
		}
		verdicts[i] = r.verdict
	}
}

func (r *recordNF) Expire(now libvig.Time) int { return 0 }
func (r *recordNF) NFStats() nf.Stats          { return r.stats }

func udpFrame(t *testing.T, buf []byte, id flow.ID) []byte {
	t.Helper()
	id.Proto = flow.UDP
	spec := &netstack.FrameSpec{ID: id}
	return netstack.Craft(buf[:netstack.FrameLen(spec)], spec)
}

func twoPorts(t *testing.T, nMbufs int) (*dpdk.Mempool, *dpdk.Port, *dpdk.Port) {
	t.Helper()
	pool, err := dpdk.NewMempool(nMbufs)
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
	return pool, intPort, extPort
}

// multiQueuePorts builds two ports with nQueues queue pairs each and a
// dedicated mempool per queue (the configuration concurrent per-worker
// polling requires). It returns all pools for leak accounting.
func multiQueuePorts(t *testing.T, nQueues, mbufsPerQueue int) ([]*dpdk.Mempool, *dpdk.Port, *dpdk.Port) {
	t.Helper()
	var pools []*dpdk.Mempool
	newPools := func() []*dpdk.Mempool {
		ps := make([]*dpdk.Mempool, nQueues)
		for i := range ps {
			p, err := dpdk.NewMempool(mbufsPerQueue)
			if err != nil {
				t.Fatal(err)
			}
			ps[i] = p
			pools = append(pools, p)
		}
		return ps
	}
	intPort, err := dpdk.NewMultiQueuePort(0, nQueues, dpdk.DefaultRxQueue, dpdk.DefaultTxQueue, newPools())
	if err != nil {
		t.Fatal(err)
	}
	extPort, err := dpdk.NewMultiQueuePort(1, nQueues, dpdk.DefaultRxQueue, dpdk.DefaultTxQueue, newPools())
	if err != nil {
		t.Fatal(err)
	}
	return pools, intPort, extPort
}

func inUseTotal(pools []*dpdk.Mempool) int {
	n := 0
	for _, p := range pools {
		n += p.InUse()
	}
	return n
}

// cacheLegs runs leg as two subtests: "uncached" with the flow cache
// off, and "cached" with it at nf.DefaultFastPathEntries per worker,
// which the leg passes as Config.FastPath. The cache may change no
// output, so every check a leg makes must hold on both.
func cacheLegs(t *testing.T, leg func(t *testing.T, fastPath int)) {
	for _, fastPath := range []int{0, nf.DefaultFastPathEntries} {
		name := "uncached"
		if fastPath > 0 {
			name = "cached"
		}
		t.Run(name, func(t *testing.T) { leg(t, fastPath) })
	}
}

// requireCache fails a leg whose pipeline did not take the cache size
// it asked for: a cached leg the cache never joined checks nothing new.
func requireCache(t *testing.T, p *nf.Pipeline, fastPath int) {
	t.Helper()
	if got := p.FastPathEntries(); got != fastPath {
		t.Fatalf("pipeline runs %d flow-cache entries per worker, want %d", got, fastPath)
	}
}

func drainAllPools(t *testing.T, port *dpdk.Port) []flow.ID {
	t.Helper()
	var ids []flow.ID
	bufs := make([]*dpdk.Mbuf, 8)
	for {
		k := port.DrainTx(bufs)
		if k == 0 {
			return ids
		}
		for i := 0; i < k; i++ {
			var p netstack.Packet
			if err := p.Parse(bufs[i].Data); err != nil {
				t.Fatal(err)
			}
			ids = append(ids, p.FlowID())
			if err := bufs[i].Pool().Free(bufs[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func drainAll(t *testing.T, port *dpdk.Port, pool *dpdk.Mempool) []flow.ID {
	t.Helper()
	var ids []flow.ID
	bufs := make([]*dpdk.Mbuf, 8)
	for {
		k := port.DrainTx(bufs)
		if k == 0 {
			return ids
		}
		for i := 0; i < k; i++ {
			var p netstack.Packet
			if err := p.Parse(bufs[i].Data); err != nil {
				t.Fatal(err)
			}
			ids = append(ids, p.FlowID())
			if err := pool.Free(bufs[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// --- Chain ---

// TestChainDirectionOrder checks the service-chain ordering contract:
// internal→external traffic traverses elements left to right, return
// traffic right to left.
func TestChainDirectionOrder(t *testing.T) {
	var log []string
	a := &recordNF{name: "a", verdict: nf.Forward, log: &log}
	b := &recordNF{name: "b", verdict: nf.Forward, log: &log}
	c, err := nf.NewChain("t", a, b)
	if err != nil {
		t.Fatal(err)
	}

	if v := nfkittest.Send(c, nil, true); v != nf.Forward {
		t.Fatalf("outbound verdict %v", v)
	}
	if v := nfkittest.Send(c, nil, false); v != nf.Forward {
		t.Fatalf("inbound verdict %v", v)
	}
	want := []string{"a/true", "b/true", "b/false", "a/false"}
	if len(log) != len(want) {
		t.Fatalf("call log %v, want %v", log, want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("call log %v, want %v", log, want)
		}
	}
}

// TestChainDropShortCircuits: the first element to drop wins and later
// elements never see the packet.
func TestChainDropShortCircuits(t *testing.T) {
	var log []string
	a := &recordNF{name: "a", verdict: nf.Drop, log: &log}
	b := &recordNF{name: "b", verdict: nf.Forward, log: &log}
	c, err := nf.NewChain("t", a, b)
	if err != nil {
		t.Fatal(err)
	}
	if v := nfkittest.Send(c, nil, true); v != nf.Drop {
		t.Fatalf("verdict %v, want drop", v)
	}
	if len(log) != 1 || log[0] != "a/true" {
		t.Fatalf("call log %v: element after the dropper ran", log)
	}
	// Inbound traverses in reverse, so b (closest to external) drops
	// nothing and a drops; both run only until the drop.
	log = log[:0]
	if v := nfkittest.Send(c, nil, false); v != nf.Drop {
		t.Fatalf("verdict %v, want drop", v)
	}
	want := []string{"b/false", "a/false"}
	if len(log) != len(want) || log[0] != want[0] || log[1] != want[1] {
		t.Fatalf("call log %v, want %v", log, want)
	}
}

// parityNF drops frames whose first byte is odd — a deterministic
// stateless dropper for batch-vs-per-packet equivalence checks.
type parityNF struct{ stats nf.Stats }

func (p *parityNF) Name() string { return "parity" }
func (p *parityNF) ProcessBatch(pkts []nf.Pkt, verdicts []nf.Verdict) {
	for i, pkt := range pkts {
		p.stats.Processed++
		if len(pkt.Frame) > 0 && pkt.Frame[0]%2 == 1 {
			p.stats.Dropped++
			verdicts[i] = nf.Drop
		} else {
			p.stats.Forwarded++
			verdicts[i] = nf.Forward
		}
	}
}
func (p *parityNF) Expire(now libvig.Time) int { return 0 }
func (p *parityNF) NFStats() nf.Stats          { return p.stats }

// TestChainBatchedElementPasses: ProcessBatch runs each element once
// over the whole surviving direction group (the i-cache win), with the
// internal-side group first and reverse element order for the
// external-side group.
func TestChainBatchedElementPasses(t *testing.T) {
	var log []string
	a := &recordNF{name: "a", verdict: nf.Forward, log: &log}
	b := &recordNF{name: "b", verdict: nf.Forward, log: &log}
	c, err := nf.NewChain("t", a, b)
	if err != nil {
		t.Fatal(err)
	}
	pkts := []nf.Pkt{{FromInternal: true}, {FromInternal: false}, {FromInternal: true}}
	verd := make([]nf.Verdict, len(pkts))
	c.ProcessBatch(pkts, verd)
	// Two outbound packets take one a-pass then one b-pass; the inbound
	// packet then takes b and a in reverse order.
	want := []string{"a/true", "a/true", "b/true", "b/true", "b/false", "a/false"}
	if len(log) != len(want) {
		t.Fatalf("call log %v, want %v", log, want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("call log %v, want %v", log, want)
		}
	}
	for i, v := range verd {
		if v != nf.Forward {
			t.Fatalf("packet %d verdict %v", i, v)
		}
	}
}

// TestChainBatchedDropShortCircuits: a packet dropped by an element
// never reaches later elements in batched mode either.
func TestChainBatchedDropShortCircuits(t *testing.T) {
	var log []string
	a := &recordNF{name: "a", verdict: nf.Drop, log: &log}
	b := &recordNF{name: "b", verdict: nf.Forward, log: &log}
	c, err := nf.NewChain("t", a, b)
	if err != nil {
		t.Fatal(err)
	}
	pkts := []nf.Pkt{{FromInternal: true}, {FromInternal: true}}
	verd := make([]nf.Verdict, len(pkts))
	c.ProcessBatch(pkts, verd)
	if verd[0] != nf.Drop || verd[1] != nf.Drop {
		t.Fatalf("verdicts %v, want drops", verd)
	}
	for _, entry := range log {
		if entry[0] == 'b' {
			t.Fatalf("call log %v: element after the dropper ran", log)
		}
	}
	if st := c.NFStats(); st.Processed != 2 || st.Dropped != 2 || st.Forwarded != 0 {
		t.Fatalf("chain stats %+v", st)
	}
}

// TestChainBatchMatchesPerPacket: batched and per-packet chain
// processing agree on every verdict and on the aggregate stats, for a
// mixed-direction burst with drops at both chain ends.
func TestChainBatchMatchesPerPacket(t *testing.T) {
	mkChain := func() *nf.Chain {
		c, err := nf.NewChain("t", &parityNF{}, discard.NewFrameNF())
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	batched, perPkt := mkChain(), mkChain()

	var pkts []nf.Pkt
	buf := make([]byte, 2048)
	for i := 0; i < 64; i++ {
		dst := uint16(80)
		if i%5 == 0 {
			dst = 9 // dropped by the discard element
		}
		id := flow.ID{
			SrcIP:   flow.MakeAddr(10, 0, 0, byte(i)),
			DstIP:   flow.MakeAddr(198, 51, 100, 1),
			SrcPort: uint16(3000 + i),
			DstPort: dst,
		}
		frame := append([]byte(nil), udpFrame(t, buf, id)...)
		if i%3 == 0 {
			frame[0] = 1 // dropped by the parity element
		} else {
			frame[0] = 0
		}
		pkts = append(pkts, nf.Pkt{Frame: frame, FromInternal: i%2 == 0})
	}

	got := make([]nf.Verdict, len(pkts))
	batched.ProcessBatch(pkts, got)
	for i := range pkts {
		want := nfkittest.Send(perPkt, pkts[i].Frame, pkts[i].FromInternal)
		if got[i] != want {
			t.Fatalf("packet %d: batched %v, per-packet %v", i, got[i], want)
		}
	}
	bs, ps := batched.NFStats(), perPkt.NFStats()
	if bs != ps {
		t.Fatalf("stats diverge: batched %+v, per-packet %+v", bs, ps)
	}
}

// TestChainBatchGroupedMatchesPerPacket drives a direction-grouped
// burst — the exact shape the engine's steer pass emits (the internal
// port's frames first, then the external port's) — through the chain,
// and checks verdict-for-verdict agreement with per-packet processing.
// Together with TestChainBatchMatchesPerPacket (interleaved directions)
// this pins that the batch's grouping, and its one parse per packet, are
// observably invisible.
func TestChainBatchGroupedMatchesPerPacket(t *testing.T) {
	mkChain := func() *nf.Chain {
		c, err := nf.NewChain("t", &parityNF{}, discard.NewFrameNF())
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	batched, perPkt := mkChain(), mkChain()

	var pkts []nf.Pkt
	buf := make([]byte, 2048)
	mk := func(i int, fromInternal bool) {
		dst := uint16(80)
		if i%5 == 0 {
			dst = 9 // dropped by the discard element
		}
		id := flow.ID{
			SrcIP:   flow.MakeAddr(10, 0, 0, byte(i)),
			DstIP:   flow.MakeAddr(198, 51, 100, 1),
			SrcPort: uint16(3000 + i),
			DstPort: dst,
		}
		frame := append([]byte(nil), udpFrame(t, buf, id)...)
		frame[0] = byte(i % 3 % 2) // some dropped by the parity element
		pkts = append(pkts, nf.Pkt{Frame: frame, FromInternal: fromInternal})
	}
	// Internal group first, external group second.
	for i := 0; i < 20; i++ {
		mk(i, true)
	}
	for i := 20; i < 32; i++ {
		mk(i, false)
	}

	got := make([]nf.Verdict, len(pkts))
	batched.ProcessBatch(pkts, got)
	for i := range pkts {
		want := nfkittest.Send(perPkt, pkts[i].Frame, pkts[i].FromInternal)
		if got[i] != want {
			t.Fatalf("packet %d: batched %v, per-packet %v", i, got[i], want)
		}
	}
	if bs, ps := batched.NFStats(), perPkt.NFStats(); bs != ps {
		t.Fatalf("stats diverge: batched %+v, per-packet %+v", bs, ps)
	}

	// A single-direction burst starting mid-slice: the chain's scratch
	// (its parses included) is indexed from the sub-slice's start.
	single := mkChain()
	sub := pkts[3:17]
	verd := make([]nf.Verdict, len(sub))
	single.ProcessBatch(sub, verd)
	ref := mkChain()
	for i := range sub {
		if want := nfkittest.Send(ref, sub[i].Frame, sub[i].FromInternal); verd[i] != want {
			t.Fatalf("offset packet %d: batched %v, per-packet %v", i, verd[i], want)
		}
	}
}

// --- Pipeline ---

// TestPipelineForwardsAndDrops runs the frame-level discard NF on the
// engine: port-9 frames are dropped and freed, the rest are forwarded
// out the opposite port, and every mbuf is accounted for.
func TestPipelineForwardsAndDrops(t *testing.T) {
	pool, intPort, extPort := twoPorts(t, 32)
	pipe, err := nf.NewPipeline(discard.NewFrameNF(), nf.Config{Internal: intPort, External: extPort})
	if err != nil {
		t.Fatal(err)
	}

	buf := make([]byte, 2048)
	host := flow.MakeAddr(10, 0, 0, 1)
	server := flow.MakeAddr(198, 51, 100, 1)
	for i, dst := range []uint16{80, 9, 443} {
		id := flow.ID{SrcIP: host, DstIP: server, SrcPort: uint16(4000 + i), DstPort: dst}
		if !intPort.DeliverRx(udpFrame(t, buf, id), 0) {
			t.Fatal("rx rejected")
		}
	}
	// And one inbound frame, to check direction handling.
	inbound := flow.ID{SrcIP: server, DstIP: host, SrcPort: 80, DstPort: 4000, Proto: flow.UDP}
	if !extPort.DeliverRx(udpFrame(t, buf, inbound), 0) {
		t.Fatal("rx rejected")
	}

	n, err := pipe.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("polled %d packets, want 4", n)
	}

	out := drainAll(t, extPort, pool)
	if len(out) != 2 {
		t.Fatalf("%d frames on the external wire, want 2 (port 9 dropped)", len(out))
	}
	for _, id := range out {
		if id.DstPort == 9 {
			t.Fatal("a port-9 frame escaped")
		}
	}
	in := drainAll(t, intPort, pool)
	if len(in) != 1 || in[0] != inbound {
		t.Fatalf("inbound frame mangled: %v", in)
	}

	st := pipe.Stats()
	if st.RxPackets != 4 || st.TxPackets != 3 || st.Dropped != 1 {
		t.Fatalf("engine stats %+v, want rx=4 tx=3 dropped=1", st)
	}
	if pool.InUse() != 0 {
		t.Fatalf("%d mbufs leaked", pool.InUse())
	}
}

// TestPipelineNATRoundTrip drives the verified NAT through the engine:
// outbound packets are translated and emerge on the external port,
// replies to the translated tuple come back translated on the internal
// port, unsolicited outside packets die.
func TestPipelineNATRoundTrip(t *testing.T) { cacheLegs(t, pipelineNATRoundTrip) }

func pipelineNATRoundTrip(t *testing.T, fastPath int) {
	extIP := flow.MakeAddr(198, 18, 1, 1)
	clock := libvig.NewVirtualClock(0)
	sharded, err := nat.NewSharded(nat.Config{
		Capacity: 1024, Timeout: time.Hour, ExternalIP: extIP, ExternalPort: 1,
	}, clock, 4)
	if err != nil {
		t.Fatal(err)
	}
	pools, intPort, extPort := multiQueuePorts(t, 4, 64)
	pipe, err := nf.NewPipeline(sharded, nf.Config{
		Internal: intPort, External: extPort, Workers: 4, Clock: clock, FastPath: fastPath,
	})
	if err != nil {
		t.Fatal(err)
	}
	requireCache(t, pipe, fastPath)

	buf := make([]byte, 2048)
	nFlows := 16
	for i := 0; i < nFlows; i++ {
		id := flow.ID{
			SrcIP:   flow.MakeAddr(10, 0, 0, byte(1+i)),
			DstIP:   flow.MakeAddr(198, 51, 100, 7),
			SrcPort: uint16(5000 + i),
			DstPort: 80,
		}
		if !intPort.DeliverRx(udpFrame(t, buf, id), clock.Now()) {
			t.Fatal("rx rejected")
		}
	}
	if _, err := pipe.Poll(); err != nil {
		t.Fatal(err)
	}
	outbound := drainAllPools(t, extPort)
	if len(outbound) != nFlows {
		t.Fatalf("%d translated frames, want %d", len(outbound), nFlows)
	}

	// Replies to every translated tuple return through the NAT.
	for _, id := range outbound {
		if id.SrcIP != extIP {
			t.Fatalf("outbound frame not translated: %v", id)
		}
		if !extPort.DeliverRx(udpFrame(t, buf, id.Reverse()), clock.Now()) {
			t.Fatal("rx rejected")
		}
	}
	// One unsolicited packet to a port no flow owns.
	bogus := flow.ID{SrcIP: flow.MakeAddr(203, 0, 113, 9), DstIP: extIP, SrcPort: 443, DstPort: 65535}
	if !extPort.DeliverRx(udpFrame(t, buf, bogus), clock.Now()) {
		t.Fatal("rx rejected")
	}

	if _, err := pipe.Poll(); err != nil {
		t.Fatal(err)
	}
	replies := drainAllPools(t, intPort)
	if len(replies) != nFlows {
		t.Fatalf("%d replies delivered inside, want %d (bogus packet dropped)", len(replies), nFlows)
	}
	for _, id := range replies {
		if id.DstIP == extIP {
			t.Fatalf("reply not translated back: %v", id)
		}
	}
	if sharded.Flows() != nFlows {
		t.Fatalf("%d live flows, want %d", sharded.Flows(), nFlows)
	}
	if inUseTotal(pools) != 0 {
		t.Fatalf("%d mbufs leaked", inUseTotal(pools))
	}
}

// TestPipelineParallelWorkers runs four run-to-completion workers on
// their own goroutines, each owning a queue pair and a shard set
// end-to-end: deliver outbound bursts, PollWorker, drain its TX queue,
// feed the replies back, with zero synchronization between workers.
// Run under -race this is the proof that no shared mutable state sits
// on the packet path.
func TestPipelineParallelWorkers(t *testing.T) { cacheLegs(t, pipelineParallelWorkers) }

func pipelineParallelWorkers(t *testing.T, fastPath int) {
	const nWorkers = 4
	const flowsPerWorker = 24
	extIP := flow.MakeAddr(198, 18, 1, 1)
	clock := libvig.NewVirtualClock(0)
	sharded, err := nat.NewSharded(nat.Config{
		Capacity: 1024, Timeout: time.Hour, ExternalIP: extIP, ExternalPort: 1,
	}, clock, nWorkers)
	if err != nil {
		t.Fatal(err)
	}
	pools, intPort, extPort := multiQueuePorts(t, nWorkers, 256)
	pipe, err := nf.NewPipeline(sharded, nf.Config{
		Internal: intPort, External: extPort, Workers: nWorkers, Clock: clock, FastPath: fastPath,
	})
	if err != nil {
		t.Fatal(err)
	}
	requireCache(t, pipe, fastPath)

	// Pre-steer flows so each worker's wire driver delivers only frames
	// that RSS places on its own queue — the single-producer contract a
	// real NIC gives each queue.
	perWorker := make([][][]byte, nWorkers)
	buf := make([]byte, 2048)
	total := 0
	for i := 0; total < nWorkers*flowsPerWorker; i++ {
		id := flow.ID{
			SrcIP:   flow.MakeAddr(10, 0, byte(i>>8), byte(i)),
			DstIP:   flow.MakeAddr(198, 51, 100, 7),
			SrcPort: uint16(5000 + i),
			DstPort: 80,
			Proto:   flow.UDP,
		}
		frame := udpFrame(t, buf, id)
		w := sharded.ShardOf(frame, true) % nWorkers
		if len(perWorker[w]) >= flowsPerWorker {
			continue
		}
		perWorker[w] = append(perWorker[w], append([]byte(nil), frame...))
		total++
	}

	type result struct {
		replies int
		err     error
	}
	results := make([]result, nWorkers)
	var wg sync.WaitGroup
	for w := 0; w < nWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			drain := make([]*dpdk.Mbuf, nf.DefaultBurst)
			reply := make([]byte, 2048)
			for _, frame := range perWorker[w] {
				// Outbound: wire → internal port (RSS steers to queue w).
				if !intPort.DeliverRx(frame, clock.Now()) {
					results[w].err = fmt.Errorf("worker %d: rx rejected", w)
					return
				}
				if _, err := pipe.PollWorker(w); err != nil {
					results[w].err = err
					return
				}
				// Drain the translated frame from this worker's TX queue
				// and send the server's reply back through the NAT.
				k := extPort.DrainTxQueue(w, drain)
				if k != 1 {
					results[w].err = fmt.Errorf("worker %d: %d frames on the wire, want 1", w, k)
					return
				}
				var p netstack.Packet
				if err := p.Parse(drain[0].Data); err != nil {
					results[w].err = err
					return
				}
				replyFrame := udpFrame(t, reply, p.FlowID().Reverse())
				if err := drain[0].Pool().Free(drain[0]); err != nil {
					results[w].err = err
					return
				}
				if !extPort.DeliverRx(replyFrame, clock.Now()) {
					results[w].err = fmt.Errorf("worker %d: reply rx rejected", w)
					return
				}
				if _, err := pipe.PollWorker(w); err != nil {
					results[w].err = err
					return
				}
				k = intPort.DrainTxQueue(w, drain)
				if k != 1 {
					results[w].err = fmt.Errorf("worker %d: %d replies inside, want 1", w, k)
					return
				}
				if err := drain[0].Pool().Free(drain[0]); err != nil {
					results[w].err = err
					return
				}
				results[w].replies++
			}
		}(w)
	}
	wg.Wait()

	for w, r := range results {
		if r.err != nil {
			t.Fatal(r.err)
		}
		if r.replies != flowsPerWorker {
			t.Fatalf("worker %d completed %d round trips, want %d", w, r.replies, flowsPerWorker)
		}
		if ws := pipe.WorkerStats(w); ws.RxPackets != 2*flowsPerWorker {
			t.Fatalf("worker %d stats %+v, want rx=%d", w, ws, 2*flowsPerWorker)
		}
	}
	if st := pipe.Stats(); st.RxPackets != 2*nWorkers*flowsPerWorker {
		t.Fatalf("engine stats %+v", st)
	}
	if sharded.Flows() != nWorkers*flowsPerWorker {
		t.Fatalf("%d live flows, want %d", sharded.Flows(), nWorkers*flowsPerWorker)
	}
	if inUseTotal(pools) != 0 {
		t.Fatalf("%d mbufs leaked", inUseTotal(pools))
	}
}

// TestSetWorkersSweepSettlesQueuedFrames delivers outbound and
// unsolicited inbound frames into a 2-shard NAT's RX queues without
// polling, then changes the worker count. The reshard's sweep settles
// every one: each unsolicited frame is dropped, freed and counted, and
// each outbound frame leaves rewritten exactly as a lock-step twin
// rewrites the same frames.
func TestSetWorkersSweepSettlesQueuedFrames(t *testing.T) {
	cacheLegs(t, setWorkersSweepSettlesQueuedFrames)
}

func setWorkersSweepSettlesQueuedFrames(t *testing.T, fastPath int) {
	const outbound, unsolicited = 24, 8
	extIP := flow.MakeAddr(198, 18, 1, 1)
	var frames [][]byte
	var fromInternal []bool
	buf := make([]byte, 2048)
	for i := 0; i < outbound; i++ {
		id := flow.ID{SrcIP: flow.MakeAddr(10, 0, 0, byte(1+i)), DstIP: flow.MakeAddr(198, 51, 100, 7), SrcPort: uint16(5000 + i), DstPort: 80}
		frames, fromInternal = append(frames, append([]byte(nil), udpFrame(t, buf, id)...)), append(fromInternal, true)
		if i%3 == 0 { // to an external port no flow holds
			id := flow.ID{SrcIP: flow.MakeAddr(203, 0, 113, byte(1+i)), DstIP: extIP, SrcPort: 53, DstPort: uint16(60000 + i)}
			frames, fromInternal = append(frames, append([]byte(nil), udpFrame(t, buf, id)...)), append(fromInternal, false)
		}
	}
	type rig struct {
		pipe             *nf.Pipeline
		pools            []*dpdk.Mempool
		intPort, extPort *dpdk.Port
	}
	build := func() rig {
		clock := libvig.NewVirtualClock(0)
		sharded, err := nat.NewSharded(nat.Config{Capacity: 64, Timeout: time.Hour, ExternalIP: extIP, ExternalPort: 1}, clock, 2)
		if err != nil {
			t.Fatal(err)
		}
		r := rig{}
		r.pools, r.intPort, r.extPort = multiQueuePorts(t, 2, 64)
		if r.pipe, err = nf.NewPipeline(sharded, nf.Config{Internal: r.intPort, External: r.extPort, Workers: 2, Clock: clock, FastPath: fastPath}); err != nil {
			t.Fatal(err)
		}
		requireCache(t, r.pipe, fastPath)
		for i, f := range frames {
			port := r.extPort
			if fromInternal[i] {
				port = r.intPort
			}
			if !port.DeliverRx(f, libvig.Time(i+1)) {
				t.Fatalf("frame %d refused", i)
			}
		}
		return r
	}
	swept, twin := build(), build()
	if err := swept.pipe.SetWorkers(1); err != nil {
		t.Fatal(err)
	}
	for n := -1; n != 0; {
		var err error
		if n, err = twin.pipe.Poll(); err != nil {
			t.Fatal(err)
		}
	}
	sent := func(r rig) []string {
		var out []string
		bufs := make([]*dpdk.Mbuf, 8)
		for k := r.extPort.DrainTx(bufs); k > 0; k = r.extPort.DrainTx(bufs) {
			for _, m := range bufs[:k] {
				out = append(out, string(m.Data))
				if err := m.Pool().Free(m); err != nil {
					t.Fatal(err)
				}
			}
		}
		if k := r.intPort.DrainTx(bufs); k != 0 {
			t.Fatalf("%d frames sent inside", k)
		}
		slices.Sort(out)
		return out
	}
	got, want := sent(swept), sent(twin)
	if len(got) != outbound || !slices.Equal(got, want) {
		t.Fatalf("sweep sent %d frames, the lock-step twin %d; equal: %v", len(got), len(want), slices.Equal(got, want))
	}
	if st := swept.pipe.Stats(); st.Polls != 0 || st.RxPackets != outbound+unsolicited || st.Dropped != unsolicited || st.TxPackets != outbound {
		t.Fatalf("swept stats %+v", st)
	}
	for _, r := range []rig{swept, twin} {
		if n := inUseTotal(r.pools); n != 0 {
			t.Fatalf("%d mbufs leaked", n)
		}
	}
}

// TestPipelineRejectsUnderQueuedPorts: more workers than queue pairs is
// a configuration error, not a silent serialization.
func TestPipelineRejectsUnderQueuedPorts(t *testing.T) {
	_, intPort, extPort := twoPorts(t, 8)
	_, err := nf.NewPipeline(discard.NewFrameNF(), nf.Config{
		Internal: intPort, External: extPort, Workers: 2,
	})
	if err == nil {
		t.Fatal("pipeline accepted 2 workers on single-queue ports")
	}
}

// TestPipelineIdleExpiry: idle polls advance NF expiry when a clock is
// configured, so state drains without traffic.
func TestPipelineIdleExpiry(t *testing.T) { cacheLegs(t, pipelineIdleExpiry) }

func pipelineIdleExpiry(t *testing.T, fastPath int) {
	extIP := flow.MakeAddr(198, 18, 1, 1)
	clock := libvig.NewVirtualClock(0)
	texp := time.Second
	sharded, err := nat.NewSharded(nat.Config{
		Capacity: 64, Timeout: texp, ExternalIP: extIP, ExternalPort: 1,
	}, clock, 1)
	if err != nil {
		t.Fatal(err)
	}
	pool, intPort, extPort := twoPorts(t, 8)
	pipe, err := nf.NewPipeline(sharded, nf.Config{Internal: intPort, External: extPort, Clock: clock, FastPath: fastPath})
	if err != nil {
		t.Fatal(err)
	}
	requireCache(t, pipe, fastPath)

	buf := make([]byte, 2048)
	id := flow.ID{SrcIP: flow.MakeAddr(10, 0, 0, 1), DstIP: flow.MakeAddr(1, 1, 1, 1), SrcPort: 1234, DstPort: 53}
	intPort.DeliverRx(udpFrame(t, buf, id), clock.Now())
	if _, err := pipe.Poll(); err != nil {
		t.Fatal(err)
	}
	drainAll(t, extPort, pool)
	if sharded.Flows() != 1 {
		t.Fatalf("%d flows after packet, want 1", sharded.Flows())
	}

	clock.Advance(2 * texp.Nanoseconds())
	if n, err := pipe.Poll(); err != nil || n != 0 {
		t.Fatalf("idle poll returned (%d, %v)", n, err)
	}
	if sharded.Flows() != 0 {
		t.Fatalf("%d flows after idle poll past Texp, want 0", sharded.Flows())
	}
	if pool.InUse() != 0 {
		t.Fatalf("%d mbufs leaked", pool.InUse())
	}
}
