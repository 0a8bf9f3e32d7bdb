package nf

// White-box tests for the engine's error paths: mbuf ownership must be
// conserved even when a free or flush fails mid-burst. The paper's
// checker proves VigNAT never leaks an mbuf; these tests pin the same
// property onto the engine's unhappy paths, where the original
// implementation returned early and leaked every still-owned buffer.

import (
	"testing"

	"vignat/internal/dpdk"
	"vignat/internal/libvig"
)

// passNF forwards everything (defined locally: the internal test
// cannot import internal/discard without a cycle through nf).
type passNF struct{}

func (passNF) Name() string { return "pass" }
func (passNF) ProcessBatch(pkts []Pkt, v []Verdict) {
	for i := range pkts {
		v[i] = Forward
	}
}
func (passNF) Expire(libvig.Time) int { return 0 }
func (passNF) NFStats() Stats         { return Stats{} }

// buildPipe returns a 1-worker pipeline over fresh single-queue ports
// with the given TX queue depth.
func buildPipe(t *testing.T, pool *dpdk.Mempool, txDepth int) (*Pipeline, *dpdk.Port, *dpdk.Port) {
	t.Helper()
	intPort, err := dpdk.NewPort(0, 64, txDepth, pool)
	if err != nil {
		t.Fatal(err)
	}
	extPort, err := dpdk.NewPort(1, 64, txDepth, pool)
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := NewPipeline(passNF{}, Config{Internal: intPort, External: extPort})
	if err != nil {
		t.Fatal(err)
	}
	return pipe, intPort, extPort
}

// loadWorker hand-fills worker 0's shard-0 scratch with mbufs and
// verdicts, bypassing RX — the state emit sees right after processing.
func loadWorker(t *testing.T, pipe *Pipeline, pool *dpdk.Mempool, verdicts []Verdict) []*dpdk.Mbuf {
	t.Helper()
	wk := pipe.workers[0]
	wk.pkts[0] = wk.pkts[0][:0]
	wk.bufs[0] = wk.bufs[0][:0]
	frame := make([]byte, 60)
	mbufs := make([]*dpdk.Mbuf, len(verdicts))
	for i := range verdicts {
		m := pool.Alloc()
		if m == nil {
			t.Fatal("pool exhausted in setup")
		}
		if err := m.SetFrame(frame); err != nil {
			t.Fatal(err)
		}
		mbufs[i] = m
		wk.pkts[0] = append(wk.pkts[0], Pkt{Frame: m.Data, FromInternal: true})
		wk.bufs[0] = append(wk.bufs[0], m)
		wk.verd[0][i] = verdicts[i]
	}
	return mbufs
}

// TestEmitConservesMbufsOnFreeError injects a double-free into emit's
// drop path: the error must be reported, but every other mbuf of the
// burst must still be freed or handed to a TX queue —
// allocated == freed + in-flight.
func TestEmitConservesMbufsOnFreeError(t *testing.T) {
	pool, err := dpdk.NewMempool(8)
	if err != nil {
		t.Fatal(err)
	}
	pipe, _, extPort := buildPipe(t, pool, 64)
	mbufs := loadWorker(t, pipe, pool, []Verdict{Forward, Drop, Forward, Drop})

	// Sabotage: mbufs[1] is freed out from under the engine, so emit's
	// Free on the Drop verdict fails mid-walk.
	if err := pool.Free(mbufs[1]); err != nil {
		t.Fatal(err)
	}

	if err := pipe.workers[0].emit(); err == nil {
		t.Fatal("emit swallowed the double free")
	}
	// Conservation: the two Forwards sit in the external TX queue, both
	// Drops are back in the pool (one legitimately, one pre-freed).
	if got := extPort.TxQueueLen(); got != 2 {
		t.Fatalf("%d frames in the TX queue, want 2", got)
	}
	if pool.InUse() != extPort.TxQueueLen() {
		t.Fatalf("pool accounting broken after error: %d in use, %d in flight — %d leaked",
			pool.InUse(), extPort.TxQueueLen(), pool.InUse()-extPort.TxQueueLen())
	}
}

// TestTxFlushConservesMbufsOnFreeError injects a double-free into the
// TX-reject path with a full TX queue: two more forwards than a burst,
// so that the first flush runs inside Batcher.Push and fails there, and
// every rejected mbuf — before and after the failing one, in that flush
// and in the last — must still return to its pool.
func TestTxFlushConservesMbufsOnFreeError(t *testing.T) {
	pool, err := dpdk.NewMempool(2 * DefaultBurst)
	if err != nil {
		t.Fatal(err)
	}
	// TX depth 1: the first flushed packet is accepted, everything
	// later is rejected and must be freed.
	pipe, _, extPort := buildPipe(t, pool, 1)
	verdicts := make([]Verdict, DefaultBurst+2)
	for i := range verdicts {
		verdicts[i] = Forward
	}
	mbufs := loadWorker(t, pipe, pool, verdicts)

	// Sabotage: mbufs[2] will be TX-rejected and its free will fail.
	if err := pool.Free(mbufs[2]); err != nil {
		t.Fatal(err)
	}

	if err := pipe.workers[0].emit(); err == nil {
		t.Fatal("emit swallowed the double free inside txFlush")
	}
	if got := extPort.TxQueueLen(); got != 1 {
		t.Fatalf("%d frames in the TX queue, want 1 (depth)", got)
	}
	if pool.InUse() != extPort.TxQueueLen() {
		t.Fatalf("pool accounting broken after error: %d in use, %d in flight — %d leaked",
			pool.InUse(), extPort.TxQueueLen(), pool.InUse()-extPort.TxQueueLen())
	}
	st := pipe.Stats()
	if st.TxPackets != 1 || st.TxFreed != uint64(len(verdicts)-1) {
		t.Fatalf("stats %+v, want tx=1 tx_freed=%d", st, len(verdicts)-1)
	}
}

// TestEmitHappyPathAccounting pins the no-error baseline of the same
// invariant, so the error tests above cannot pass vacuously.
func TestEmitHappyPathAccounting(t *testing.T) {
	pool, err := dpdk.NewMempool(8)
	if err != nil {
		t.Fatal(err)
	}
	pipe, _, extPort := buildPipe(t, pool, 64)
	loadWorker(t, pipe, pool, []Verdict{Forward, Drop, Forward, Forward})
	if err := pipe.workers[0].emit(); err != nil {
		t.Fatal(err)
	}
	if pool.InUse() != 3 || extPort.TxQueueLen() != 3 {
		t.Fatalf("in use %d, in flight %d; want 3 and 3", pool.InUse(), extPort.TxQueueLen())
	}
}
