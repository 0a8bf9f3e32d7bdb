// The shared conformance fixture every dpdk.Transport backend must
// pass: the same burst, steering, overflow, conservation, and
// failure-mode checks run against the in-memory rings and both
// kernel-socket wires.

package transporttest

import (
	"fmt"
	"os"
	"runtime"
	"syscall"
	"testing"
	"time"

	"vignat/internal/dpdk"
	"vignat/internal/libvig"
)

// Backend describes one transport under test.
type Backend struct {
	// Name labels the subtests ("mem", "udp", "unix").
	Name string
	// HasTxBackpressure is true when a full TX path rejects bursts back
	// to the caller (in-memory ring-full, unix SNDBUF exhaustion) and
	// false when the wire is lossy instead (UDP: a full receiver drops,
	// the sender never learns).
	HasTxBackpressure bool
	// New builds a port on this backend with nQueues queue pairs
	// drawing from a fresh pool of poolSize mbufs, plus the tester-side
	// wire talking to it. Cleanup registers with t.
	New func(t *testing.T, nQueues, poolSize int) (*dpdk.Port, Wire)
	// NewBackpressure builds a single-queue port whose TX path rejects
	// after a bounded number of accepted frames — no consumer drains
	// the far end. Nil when HasTxBackpressure is false.
	NewBackpressure func(t *testing.T, poolSize int) *dpdk.Port
	// NewPeer builds a further tester-side endpoint sending to queue 0
	// of a port New built: a second cable into the same NIC. Nil when
	// the backend's wire is the only way in (mem).
	NewPeer func(t *testing.T, port *dpdk.Port) Wire
}

const (
	collectTimeout = 5 * time.Second
	frameLen       = 64
)

// mkFrame builds a test frame: byte 0 is the RSS steering tag, byte 1
// the identity, the rest a fixed pattern.
func mkFrame(tag, id byte, size int) []byte {
	f := make([]byte, size)
	for i := range f {
		f[i] = 0xA5
	}
	f[0], f[1] = tag, id
	return f
}

// rxCollect polls every queue (parking briefly when idle) until want
// mbufs arrive or the deadline passes, returning them per queue.
func rxCollect(p *dpdk.Port, want int, timeout time.Duration) [][]*dpdk.Mbuf {
	perQ := make([][]*dpdk.Mbuf, p.Queues())
	bufs := make([]*dpdk.Mbuf, 64)
	total := 0
	deadline := time.Now().Add(timeout)
	for total < want && !time.Now().After(deadline) {
		progress := 0
		for q := 0; q < p.Queues(); q++ {
			n := p.RxBurstQueue(q, bufs)
			perQ[q] = append(perQ[q], bufs[:n]...)
			progress += n
		}
		total += progress
		if progress == 0 {
			dpdk.WaitRx(0, time.Millisecond, p)
		}
	}
	return perQ
}

func freeAll(t *testing.T, ms []*dpdk.Mbuf) {
	t.Helper()
	for _, m := range ms {
		if err := m.Pool().Free(m); err != nil {
			t.Fatalf("free: %v", err)
		}
	}
}

// Run drives the full conformance suite against one backend.
func Run(t *testing.T, b Backend) {
	t.Run("BurstRoundtrip", func(t *testing.T) { testBurstRoundtrip(t, b) })
	t.Run("RSSSteering", func(t *testing.T) { testRSSSteering(t, b) })
	t.Run("OversizeDrop", func(t *testing.T) { testOversizeDrop(t, b) })
	t.Run("PoolExhaustion", func(t *testing.T) { testPoolExhaustion(t, b) })
	t.Run("TxBackpressure", func(t *testing.T) { testTxBackpressure(t, b) })
	t.Run("CloseMidBurst", func(t *testing.T) { testCloseMidBurst(t, b) })
	t.Run("TxShortBatch", func(t *testing.T) { testTxShortBatch(t, b) })
	t.Run("RxShortBatch", func(t *testing.T) { testRxShortBatch(t, b) })
	t.Run("OversizeMidBatch", func(t *testing.T) { testOversizeMidBatch(t, b) })
	t.Run("EmptyFrameMidBatch", func(t *testing.T) { testEmptyFrameMidBatch(t, b) })
	t.Run("SecondPeer", func(t *testing.T) { testSecondPeer(t, b) })
	t.Run("PeerDeathMidTx", func(t *testing.T) { testPeerDeathMidTx(t, b) })
	t.Run("NoAllocs", func(t *testing.T) { testNoAllocs(t, b) })
	t.Run("ResteerWakesParked", func(t *testing.T) { testResteerWakesParked(t, b) })
	t.Run("WaitOutlastsSignals", func(t *testing.T) { testWaitOutlastsSignals(t, b) })
}

// testBurstRoundtrip sends a burst through the wire, receives it on
// the NF side with metadata intact, echoes it back, and checks the
// wire sees every frame — with the pool drained to zero at the end.
func testBurstRoundtrip(t *testing.T, b Backend) {
	const k = 32
	port, wire := b.New(t, 1, 2*k)
	pool := port.Pool()

	for i := 0; i < k; i++ {
		if !wire.Send(mkFrame(0, byte(i), frameLen), libvig.Time(1000*(i+1))) {
			t.Fatalf("send %d failed", i)
		}
	}
	got := rxCollect(port, k, collectTimeout)[0]
	if len(got) != k {
		t.Fatalf("received %d frames, want %d", len(got), k)
	}
	seen := map[byte]bool{}
	for _, m := range got {
		if m.Port != port.ID {
			t.Fatalf("mbuf port %d, want %d", m.Port, port.ID)
		}
		if m.RxTime <= 0 {
			t.Fatalf("mbuf not timestamped: RxTime=%d", m.RxTime)
		}
		if len(m.Data) != frameLen || m.Data[0] != 0 || m.Data[2] != 0xA5 {
			t.Fatalf("frame corrupted: len=%d head=%v", len(m.Data), m.Data[:3])
		}
		seen[m.Data[1]] = true
	}
	if len(seen) != k {
		t.Fatalf("got %d distinct frames, want %d", len(seen), k)
	}

	if n := port.TxBurstQueue(0, got); n != k {
		t.Fatalf("echo accepted %d, want %d", n, k)
	}
	back := map[byte]bool{}
	buf := make([]byte, 4096)
	for i := 0; i < k; i++ {
		n, ok := wire.Recv(buf, collectTimeout)
		if !ok {
			t.Fatalf("wire received %d echoed frames, want %d", i, k)
		}
		if n != frameLen {
			t.Fatalf("echoed frame length %d, want %d", n, frameLen)
		}
		back[buf[1]] = true
	}
	if len(back) != k {
		t.Fatalf("wire saw %d distinct frames, want %d", len(back), k)
	}
	if pool.InUse() != 0 {
		t.Fatalf("pool leaks %d mbufs after roundtrip", pool.InUse())
	}
	st := port.Stats()
	if st.RxPackets != k || st.TxPackets != k {
		t.Fatalf("stats rx=%d tx=%d, want %d/%d", st.RxPackets, st.TxPackets, k, k)
	}
}

// testRSSSteering checks that with a 4-queue port and a steering
// function on byte 0, every frame lands on (and is counted by) the
// queue the function names — whether the backend steers at delivery
// (mem) or re-steers after the kernel hands frames over (sockets).
func testRSSSteering(t *testing.T, b Backend) {
	const nq, k = 4, 64
	port, wire := b.New(t, nq, 2*k)
	port.SetRSS(func(f []byte) int { return int(f[0]) })

	for i := 0; i < k; i++ {
		if !wire.Send(mkFrame(byte(i%nq), byte(i), frameLen), libvig.Time(1000*(i+1))) {
			t.Fatalf("send %d failed", i)
		}
	}
	perQ := rxCollect(port, k, collectTimeout)
	total := 0
	var rx uint64
	for q := 0; q < nq; q++ {
		for _, m := range perQ[q] {
			if int(m.Data[0]) != q {
				t.Fatalf("frame tagged %d landed on queue %d", m.Data[0], q)
			}
		}
		if len(perQ[q]) != k/nq {
			t.Fatalf("queue %d got %d frames, want %d", q, len(perQ[q]), k/nq)
		}
		total += len(perQ[q])
		rx += port.QueueStats(q).RxPackets
		freeAll(t, perQ[q])
	}
	if total != k || rx != k {
		t.Fatalf("steered %d frames (stats %d), want %d", total, rx, k)
	}
	if port.QueuePool(0).InUse() != 0 {
		t.Fatalf("pool leaks %d mbufs", port.QueuePool(0).InUse())
	}
}

// testOversizeDrop checks the defined behavior for frames that cannot
// fit an mbuf: dropped whole and counted, never truncated into a
// valid-looking prefix.
func testOversizeDrop(t *testing.T, b Backend) {
	port, wire := b.New(t, 1, 16)
	oversize := make([]byte, dpdk.DataRoomSize+1)
	for i := range oversize {
		oversize[i] = 0xEE
	}
	wire.Send(oversize, 1000) // mem rejects at delivery, sockets at read: both fine
	if !wire.Send(mkFrame(0, 7, frameLen), 2000) {
		t.Fatal("valid send failed")
	}
	got := rxCollect(port, 1, collectTimeout)[0]
	if len(got) != 1 || len(got[0].Data) != frameLen || got[0].Data[1] != 7 {
		t.Fatalf("want exactly the valid frame, got %d frames", len(got))
	}
	if st := port.Stats(); st.RxDropped != 1 {
		t.Fatalf("RxDropped=%d, want 1 (the oversize frame)", st.RxDropped)
	}
	freeAll(t, got)
}

// testPoolExhaustion checks that an empty mempool turns arrivals into
// counted drops — not crashes, not stalls — and that service resumes
// once mbufs come back.
func testPoolExhaustion(t *testing.T, b Backend) {
	const poolSize, sent = 4, 8
	port, wire := b.New(t, 1, poolSize)
	pool := port.Pool()
	for i := 0; i < sent; i++ {
		wire.Send(mkFrame(0, byte(i), frameLen), libvig.Time(1000*(i+1)))
	}
	got := rxCollect(port, poolSize, collectTimeout)[0]
	if len(got) != poolSize {
		t.Fatalf("received %d frames, want %d (pool bound)", len(got), poolSize)
	}
	// Drain any stragglers the backend still buffers: with the pool
	// empty they must drop, not stall the port.
	extra := rxCollect(port, sent-poolSize, time.Second)[0]
	if len(extra) != 0 {
		t.Fatalf("received %d frames with an empty pool", len(extra))
	}
	if st := port.Stats(); st.RxDropped != sent-poolSize {
		t.Fatalf("RxDropped=%d, want %d", st.RxDropped, sent-poolSize)
	}
	freeAll(t, got)
	// Service resumes with mbufs back.
	if !wire.Send(mkFrame(0, 99, frameLen), 9000) {
		t.Fatal("post-recovery send failed")
	}
	again := rxCollect(port, 1, collectTimeout)[0]
	if len(again) != 1 || again[0].Data[1] != 99 {
		t.Fatalf("port did not recover after pool refill")
	}
	freeAll(t, again)
	if pool.InUse() != 0 {
		t.Fatalf("pool leaks %d mbufs", pool.InUse())
	}
}

// testTxBackpressure checks mbuf conservation under TX short write:
// with no consumer, the transport accepts a bounded number of frames
// then rejects; rejected mbufs stay with the caller (retriable,
// freeable, never double-freed), accepted ones are accounted exactly.
func testTxBackpressure(t *testing.T, b Backend) {
	if !b.HasTxBackpressure {
		t.Skipf("%s is lossy: a full far end drops instead of backpressuring", b.Name)
	}
	const poolSize = 64
	port := b.NewBackpressure(t, poolSize)
	pool := port.Pool()

	frame := mkFrame(0, 1, 1024) // big frames fill socket buffers fast
	sent := 0
	var rejected *dpdk.Mbuf
	for i := 0; i < poolSize; i++ {
		m := pool.Alloc()
		if m == nil {
			t.Fatalf("pool empty after %d sends: accepted frames not freed?", sent)
		}
		if err := m.SetFrame(frame); err != nil {
			t.Fatal(err)
		}
		if port.TxBurstQueue(0, []*dpdk.Mbuf{m}) == 0 {
			rejected = m
			break
		}
		sent++
	}
	if rejected == nil {
		t.Fatalf("no TX rejection within %d frames on a full path", poolSize)
	}
	// A rejected mbuf is still the caller's: retrying must not
	// double-consume it.
	if port.TxBurstQueue(0, []*dpdk.Mbuf{rejected}) != 0 {
		t.Fatal("retry accepted on a still-full path")
	}
	if err := rejected.Pool().Free(rejected); err != nil {
		t.Fatalf("rejected mbuf not ours to free: %v", err)
	}
	if st := port.Stats(); st.TxPackets != uint64(sent) {
		t.Fatalf("TxPackets=%d, want %d", st.TxPackets, sent)
	}
	// Conservation: whatever the pool still holds must be exactly what
	// the transport parked for the wire (zero on socket backends, the
	// TX ring occupancy on mem).
	if pool.InUse() != port.TxQueueLen() {
		t.Fatalf("pool holds %d mbufs but transport parks %d", pool.InUse(), port.TxQueueLen())
	}
	drain := make([]*dpdk.Mbuf, poolSize)
	for {
		n := port.DrainTx(drain)
		if n == 0 {
			break
		}
		freeAll(t, drain[:n])
	}
	if pool.InUse() != 0 {
		t.Fatalf("pool leaks %d mbufs after drain", pool.InUse())
	}
}

// testCloseMidBurst checks that closing the port while a receive loop
// runs neither panics, deadlocks, nor strands mbufs — and that TX
// after close consumes nothing it shouldn't.
func testCloseMidBurst(t *testing.T, b Backend) {
	const k = 16
	port, wire := b.New(t, 1, 2*k)
	pool := port.Pool()
	for i := 0; i < k; i++ {
		wire.Send(mkFrame(0, byte(i), frameLen), libvig.Time(1000*(i+1)))
	}
	closed := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		bufs := make([]*dpdk.Mbuf, 8)
		for {
			n := port.RxBurstQueue(0, bufs)
			for _, m := range bufs[:n] {
				_ = m.Pool().Free(m)
			}
			if n == 0 {
				select {
				case <-closed:
					return
				default:
					time.Sleep(100 * time.Microsecond)
				}
			}
		}
	}()
	time.Sleep(2 * time.Millisecond)
	if err := port.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	close(closed)
	select {
	case <-done:
	case <-time.After(collectTimeout):
		t.Fatal("receive loop deadlocked across Close")
	}
	// TX after close: accepted-or-rejected, every mbuf accounted.
	m := pool.Alloc()
	_ = m.SetFrame(mkFrame(0, 0, frameLen))
	if port.TxBurstQueue(0, []*dpdk.Mbuf{m}) == 0 {
		if err := pool.Free(m); err != nil {
			t.Fatalf("rejected mbuf not ours: %v", err)
		}
	}
	drain := make([]*dpdk.Mbuf, 2*k)
	for {
		n := port.DrainTx(drain)
		if n == 0 {
			break
		}
		freeAll(t, drain[:n])
	}
	if pool.InUse() != 0 {
		t.Fatalf("pool leaks %d mbufs after close", pool.InUse())
	}
}

// sendAll hands the frames to the wire back to back, so a socket
// backend finds them queued together and reads them as one batch.
func sendAll(t *testing.T, wire Wire, frames ...[]byte) {
	t.Helper()
	for i, f := range frames {
		if !wire.Send(f, libvig.Time(1000*(i+1))) {
			t.Fatalf("send %d of %d failed", i, len(frames))
		}
	}
}

// allocFrames takes k mbufs from pool, each carrying frame.
func allocFrames(t *testing.T, pool *dpdk.Mempool, k int, frame []byte) []*dpdk.Mbuf {
	t.Helper()
	bufs := make([]*dpdk.Mbuf, k)
	for i := range bufs {
		if bufs[i] = pool.Alloc(); bufs[i] == nil {
			t.Fatalf("pool empty after %d allocations", i)
		}
		if err := bufs[i].SetFrame(frame); err != nil {
			t.Fatal(err)
		}
	}
	return bufs
}

// drainAndCheck frees whatever the transport parked for the wire and
// checks the pool is whole again.
func drainAndCheck(t *testing.T, port *dpdk.Port, pool *dpdk.Mempool) {
	t.Helper()
	if pool.InUse() != port.TxQueueLen() {
		t.Fatalf("pool holds %d mbufs but transport parks %d", pool.InUse(), port.TxQueueLen())
	}
	drain := make([]*dpdk.Mbuf, 64)
	for n := port.DrainTx(drain); n > 0; n = port.DrainTx(drain) {
		freeAll(t, drain[:n])
	}
	if pool.InUse() != 0 {
		t.Fatalf("pool leaks %d mbufs", pool.InUse())
	}
}

// testTxShortBatch hands a whole burst to a TX path with room for only
// part of it: the transport takes a prefix (one sendmmsg that stops
// early on the socket backends), and the caller still owns exactly the
// rest — every mbuf counted once, as sent or as rejected.
func testTxShortBatch(t *testing.T, b Backend) {
	if !b.HasTxBackpressure {
		t.Skipf("%s is lossy: a full far end drops instead of backpressuring", b.Name)
	}
	const n = 32
	port := b.NewBackpressure(t, n)
	pool := port.Pool()
	bufs := allocFrames(t, pool, n, mkFrame(0, 1, 1024))
	k := port.TxBurstQueue(0, bufs)
	if k <= 0 || k >= n {
		t.Fatalf("a bounded TX path accepted %d of %d frames, want a proper prefix", k, n)
	}
	freeAll(t, bufs[k:]) // ours: a double free or a foreign mbuf fails here
	st := port.Stats()
	if st.TxPackets != uint64(k) || st.TxDropped != uint64(n-k) {
		t.Fatalf("stats tx=%d tx_dropped=%d, want %d/%d", st.TxPackets, st.TxDropped, k, n-k)
	}
	if w := port.WireStats(0); w.TxSyscalls > 0 && w.TxAgain == 0 {
		t.Fatalf("the kernel refused the tail but TxAgain=0 (%+v)", w)
	}
	drainAndCheck(t, port, pool)
}

// testRxShortBatch receives fewer frames than the burst has room for:
// the short count is the answer — the burst does not go back to learn
// that the queue is empty — and the next, empty burst on the now
// established connection costs one readiness query and touches neither
// the listener nor the connection.
func testRxShortBatch(t *testing.T, b Backend) {
	const k = 5
	port, wire := b.New(t, 1, 2*k)
	sendAll(t, wire, mkFrame(0, 0, frameLen)) // brings the connection up
	freeAll(t, rxCollect(port, 1, collectTimeout)[0])
	frames := make([][]byte, k)
	for i := range frames {
		frames[i] = mkFrame(0, byte(i+1), frameLen)
	}
	sendAll(t, wire, frames...)
	bufs := make([]*dpdk.Mbuf, 32)
	var got []*dpdk.Mbuf
	before := port.WireStats(0)
	bursts := uint64(0)
	for deadline := time.Now().Add(collectTimeout); len(got) < k && time.Now().Before(deadline); bursts++ {
		n := port.RxBurstQueue(0, bufs)
		got = append(got, bufs[:n]...)
	}
	after := port.WireStats(0)
	if len(got) != k {
		t.Fatalf("received %d frames, want %d", len(got), k)
	}
	for i, m := range got {
		if m.Data[1] != byte(i+1) {
			t.Fatalf("frame %d carries id %d: batch out of order", i, m.Data[1])
		}
	}
	freeAll(t, got)
	// Per burst at most one readiness query and one recvmmsg.
	if d := after.RxSyscalls - before.RxSyscalls; d > 2*bursts {
		t.Fatalf("%d bursts made %d RX syscalls", bursts, d)
	}
	if d := after.RxFrames - before.RxFrames; after.RxSyscalls > 0 && d != k {
		t.Fatalf("recvmmsg returned %d frames, want %d", d, k)
	}
	if n := port.RxBurstQueue(0, bufs); n != 0 {
		t.Fatalf("empty queue yielded %d frames", n)
	}
	if d := port.WireStats(0).RxSyscalls - after.RxSyscalls; d > 1 {
		t.Fatalf("an empty burst made %d syscalls, want one readiness query", d)
	}
	if port.Pool().InUse() != 0 {
		t.Fatalf("pool leaks %d mbufs", port.Pool().InUse())
	}
}

// testOversizeMidBatch puts a frame that cannot fit an mbuf between two
// that can: only it is dropped, and its neighbours arrive whole.
func testOversizeMidBatch(t *testing.T, b Backend) {
	port, wire := b.New(t, 1, 16)
	oversize := make([]byte, dpdk.DataRoomSize+1)
	sendAll(t, wire, mkFrame(0, 1, frameLen))
	wire.Send(oversize, 2000) // mem rejects at delivery, sockets at read
	sendAll(t, wire, mkFrame(0, 3, frameLen))
	got := rxCollect(port, 2, collectTimeout)[0]
	if len(got) != 2 || got[0].Data[1] != 1 || got[1].Data[1] != 3 ||
		len(got[0].Data) != frameLen || len(got[1].Data) != frameLen {
		t.Fatalf("want the two valid frames in order, got %d frames", len(got))
	}
	if st := port.Stats(); st.RxDropped != 1 || st.RxPackets != 2 {
		t.Fatalf("rx=%d rx_dropped=%d, want 2/1", st.RxPackets, st.RxDropped)
	}
	freeAll(t, got)
	if port.Pool().InUse() != 0 {
		t.Fatalf("pool leaks %d mbufs", port.Pool().InUse())
	}
}

// testEmptyFrameMidBatch sends a zero-length frame between two real
// ones. On a connection that is end-of-stream: the frames around it
// still arrive, the connection is retired, and the peer's next
// connection is picked up. On a datagram or in-memory wire it is just
// an empty frame. Either way nothing leaks.
func testEmptyFrameMidBatch(t *testing.T, b Backend) {
	port, wire := b.New(t, 1, 16)
	sendAll(t, wire, mkFrame(0, 1, frameLen), nil, mkFrame(0, 3, frameLen))
	seen := map[byte]bool{}
	collect := func(want byte) {
		t.Helper()
		for deadline := time.Now().Add(collectTimeout); !seen[want]; {
			for _, m := range rxCollect(port, 1, 10*time.Millisecond)[0] {
				if len(m.Data) > 0 {
					seen[m.Data[1]] = true
				}
				freeAll(t, []*dpdk.Mbuf{m})
			}
			if time.Now().After(deadline) {
				t.Fatalf("frame %d never arrived (have %v)", want, seen)
			}
		}
	}
	collect(1)
	collect(3)
	// A peer whose connection was retired learns so on its next send and
	// redials on the one after.
	for deadline := time.Now().Add(collectTimeout); !wire.Send(mkFrame(0, 9, frameLen), 9000); {
		if time.Now().After(deadline) {
			t.Fatal("peer could not reach the port again")
		}
	}
	collect(9)
	if port.Pool().InUse() != 0 {
		t.Fatalf("pool leaks %d mbufs", port.Pool().InUse())
	}
}

// testSecondPeer connects a second sender while the first is streaming
// and receives with a bare RxBurst loop — no wait call in between,
// which is how the benchmark harness drives a transport: a burst must
// find new connections and readable sockets on its own.
func testSecondPeer(t *testing.T, b Backend) {
	if b.NewPeer == nil {
		t.Skipf("%s has one way in", b.Name)
	}
	const k = 8
	port, first := b.New(t, 1, 4*k)
	for i := 0; i < k; i++ {
		sendAll(t, first, mkFrame(0, byte(i), frameLen))
	}
	second := b.NewPeer(t, port)
	for i := 0; i < k; i++ {
		sendAll(t, first, mkFrame(0, byte(k+i), frameLen))
		sendAll(t, second, mkFrame(0, byte(2*k+i), frameLen))
	}
	seen := map[byte]bool{}
	bufs := make([]*dpdk.Mbuf, 4) // small bursts: the new peer is found mid-stream
	for deadline := time.Now().Add(collectTimeout); len(seen) < 3*k && time.Now().Before(deadline); {
		n := port.RxBurstQueue(0, bufs)
		for _, m := range bufs[:n] {
			seen[m.Data[1]] = true
		}
		freeAll(t, bufs[:n])
	}
	if len(seen) != 3*k {
		t.Fatalf("received %d distinct frames from two peers, want %d", len(seen), 3*k)
	}
	if port.Pool().InUse() != 0 {
		t.Fatalf("pool leaks %d mbufs", port.Pool().InUse())
	}
}

// testPeerDeathMidTx takes the far end away between two TX bursts. The
// second burst meets whatever the backend makes of that — a broken
// connection, an unanswered datagram, a ring nobody drains — and every
// mbuf of it is still counted exactly once: sent, consumed as dropped,
// or rejected back to the caller.
func testPeerDeathMidTx(t *testing.T, b Backend) {
	const k = 8
	port, wire := b.New(t, 1, 4*k)
	pool := port.Pool()
	frame := mkFrame(0, 1, frameLen)
	if n := port.TxBurstQueue(0, allocFrames(t, pool, k, frame)); n != k {
		t.Fatalf("healthy link accepted %d of %d", n, k)
	}
	_ = wire.Close()
	for round := 0; round < 2; round++ { // the second finds the link already down
		bufs := allocFrames(t, pool, k, frame)
		n := port.TxBurstQueue(0, bufs)
		freeAll(t, bufs[n:])
	}
	if st := port.Stats(); st.TxPackets+st.TxDropped != 3*k {
		t.Fatalf("tx=%d tx_dropped=%d, want them to sum to %d", st.TxPackets, st.TxDropped, 3*k)
	}
	drainAndCheck(t, port, pool)
}

// testNoAllocs holds the steady-state packet path to zero heap
// allocations per call: the idle wait on two ports and on one, a burst
// that receives, a burst that finds nothing, a burst that transmits — on
// one queue, and on two with every frame re-steered from the queue it
// arrived on to the other (the staged frames recycle).
func testNoAllocs(t *testing.T, b Backend) {
	const k, runs = 4, 10
	check := func(what string, f func()) {
		t.Helper()
		if a := testing.AllocsPerRun(runs, f); a != 0 {
			t.Errorf("%s allocates %.1f times a call", what, a)
		}
	}
	bufs := make([]*dpdk.Mbuf, 32)
	for _, nq := range []int{1, 2} {
		port, wire := b.New(t, nq, 64)
		port.SetRSS(func(f []byte) int { return int(f[0]) })
		last := nq - 1 // frames arrive on queue 0 and are steered here
		// Everything the measured calls receive is sent first: the
		// tester's own sends allocate.
		for i := 0; i < (runs+1)*k; i++ {
			sendAll(t, wire, mkFrame(byte(last), byte(i), frameLen))
		}
		check(fmt.Sprintf("%d-queue receiving burst", nq), func() {
			got := 0
			for deadline := time.Now().Add(collectTimeout); got < k && time.Now().Before(deadline); {
				if last != 0 {
					if n := port.RxBurstQueue(0, bufs[:k]); n != 0 {
						t.Errorf("queue 0 kept %d frames steered to queue %d", n, last)
					}
				}
				n := port.RxBurstQueue(last, bufs[:k-got])
				for _, m := range bufs[:n] {
					_ = m.Pool().Free(m)
				}
				got += n
			}
		})
		check(fmt.Sprintf("%d-queue empty burst", nq), func() {
			for q := 0; q < nq; q++ {
				if n := port.RxBurstQueue(q, bufs); n != 0 {
					t.Errorf("drained queue %d yielded %d frames", q, n)
				}
			}
		})
		check(fmt.Sprintf("%d-queue idle wait", nq), func() { dpdk.WaitRx(last, time.Microsecond, port, port) })
		check(fmt.Sprintf("%d-queue subset wait", nq), func() { dpdk.WaitRx(last, time.Microsecond, port) })
		if port.QueuePool(0).InUse() != 0 {
			t.Fatalf("pool leaks %d mbufs", port.QueuePool(0).InUse())
		}
	}

	// TX against a far end that only buffers: the tester's wire would
	// allocate for every frame it reads.
	var port *dpdk.Port
	if b.HasTxBackpressure {
		port = b.NewBackpressure(t, 64)
	} else {
		port, _ = b.New(t, 1, 64)
	}
	pool := port.Pool()
	frame := mkFrame(0, 1, frameLen)
	one := make([]*dpdk.Mbuf, 1)
	check("transmitting burst", func() {
		one[0] = pool.Alloc()
		_ = one[0].SetFrame(frame)
		if port.TxBurstQueue(0, one) == 0 {
			_ = pool.Free(one[0])
		}
	})
	drainAndCheck(t, port, pool)
}

// testResteerWakesParked parks queue 1 in a long wait, then sends a
// frame that arrives on queue 0's socket and that RSS steers to queue 1:
// queue 0's burst re-steers it, and that must end queue 1's wait at once
// rather than when its second runs out.
func testResteerWakesParked(t *testing.T, b Backend) {
	port, wire := b.New(t, 2, 8)
	if port.Transport().Name() == "mem" {
		t.Skip("mem steers at delivery and its wait only sleeps")
	}
	port.SetRSS(func(f []byte) int { return int(f[0]) })
	var woke time.Time
	done := make(chan struct{})
	go func() {
		defer close(done)
		dpdk.WaitRx(1, time.Second, port)
		woke = time.Now()
	}()
	t.Cleanup(func() { <-done })
	time.Sleep(20 * time.Millisecond) // let the wait block; had it not, it finds the frame staged
	sent := time.Now()
	sendAll(t, wire, mkFrame(1, 7, frameLen))
	bufs := make([]*dpdk.Mbuf, 4)
	for parked := true; parked; {
		// Queue 0's worker: wait for its socket, then burst what arrived.
		dpdk.WaitRx(0, time.Millisecond, port)
		if n := port.RxBurstQueue(0, bufs); n != 0 {
			t.Fatalf("queue 0 kept %d frames steered to queue 1", n)
		}
		select {
		case <-done:
			parked = false
		default:
		}
	}
	if woke.Before(sent) {
		t.Fatal("queue 1's wait ended before anything was sent")
	}
	if d := woke.Sub(sent); d > 50*time.Millisecond {
		t.Fatalf("a frame re-steered to a parked queue woke it after %v, want < 50ms", d)
	}
	got := rxCollect(port, 1, collectTimeout)[1]
	if len(got) != 1 || got[0].Data[1] != 7 {
		t.Fatalf("queue 1 received %d frames, want the re-steered one", len(got))
	}
	freeAll(t, got)
}

// testWaitOutlastsSignals parks a queue of a silent port for a while
// and signals the parked thread every few milliseconds, as the Go
// runtime does to preempt it: every signal interrupts the wait, which
// must resume and last its whole duration regardless.
func testWaitOutlastsSignals(t *testing.T, b Backend) {
	port, _ := b.New(t, 1, 8)
	const d = 40 * time.Millisecond
	tid := make(chan int)
	waited := make(chan time.Duration)
	go func() {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		tid <- syscall.Gettid()
		start := time.Now()
		dpdk.WaitRx(0, d, port)
		waited <- time.Since(start)
	}()
	thread, signals := <-tid, 0
	for {
		select {
		case w := <-waited:
			if w < d {
				t.Fatalf("a wait of %v signalled %d times returned after %v", d, signals, w)
			}
			if signals < 2 {
				t.Fatalf("only %d signals reached the wait", signals)
			}
			return
		case <-time.After(3 * time.Millisecond):
			// SIGURG is the runtime's own preemption signal: harmless.
			if err := syscall.Tgkill(os.Getpid(), thread, syscall.SIGURG); err != nil {
				t.Fatal(err)
			}
			signals++
		}
	}
}
