package nf

// Tests for the wire-mode idle policy (Config.IdleWait): what a worker
// does between polls, decided by what the last poll saw. The policy is
// checked with the engine's wait and sleep replaced by recorders, so no
// test depends on how long anything takes; the real waits are then
// checked against real sockets for what a recorder cannot show — that
// traffic on either port ends a blocking wait, and only traffic on the
// external port ends a reply wait.

import (
	"net"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"vignat/internal/dpdk"
	"vignat/internal/libvig"
)

// expiringNF forwards everything (drops everything while drop is set)
// and counts its expiry sweeps: one "session" dies when the clock passes
// deadline.
type expiringNF struct {
	passNF
	drop     bool
	deadline libvig.Time
	sweeps   atomic.Int64
	expired  atomic.Bool
}

func (n *expiringNF) ProcessBatch(pkts []Pkt, v []Verdict) {
	for i := range pkts {
		v[i] = Forward
		if n.drop {
			v[i] = Drop
		}
	}
}

func (n *expiringNF) Expire(now libvig.Time) int {
	n.sweeps.Add(1)
	if now >= n.deadline && n.expired.CompareAndSwap(false, true) {
		return 1
	}
	return 0
}

// idleRecorder stands in for the engine's wait and sleep. A wait naming
// both ports is a blocking wait (waits), one naming the external port
// alone a reply wait (replies); any other choice of ports is recorded as
// neither, which the counts then show.
type idleRecorder struct {
	waits, replies, sleeps []time.Duration
}

func (r *idleRecorder) install(p *Pipeline) {
	p.wait = func(_ int, d time.Duration, ports ...*dpdk.Port) {
		switch {
		case slices.Equal(ports, []*dpdk.Port{p.intPort, p.extPort}):
			r.waits = append(r.waits, d)
		case slices.Equal(ports, []*dpdk.Port{p.extPort}):
			r.replies = append(r.replies, d)
		}
	}
	p.sleep = func(d time.Duration) { r.sleeps = append(r.sleeps, d) }
}

// TestIdlePolicyThreeStates drives one worker through the things a poll
// can find: nothing (sweep expiry, then block on both ports for
// IdleWait); bursts that did not fill (after sending out of the external
// port, wait there for the replies at most the moderation gap, unless
// the last idle step was such a wait; otherwise sleep the gap); a full
// burst (poll again at once).
func TestIdlePolicyThreeStates(t *testing.T) {
	const burst = 4
	const idleWait = 7 * time.Millisecond
	pool, err := dpdk.NewMempool(64)
	if err != nil {
		t.Fatal(err)
	}
	intPort, _ := dpdk.NewPort(0, 64, 64, pool)
	extPort, _ := dpdk.NewPort(1, 64, 64, pool)
	clock := libvig.NewVirtualClock(0)
	n := &expiringNF{deadline: 1000}
	pipe, err := NewPipeline(n, Config{
		Internal: intPort, External: extPort, Burst: burst, Clock: clock,
		IdleWait: idleWait,
	})
	if err != nil {
		t.Fatal(err)
	}
	var rec idleRecorder
	rec.install(pipe)
	frame := make([]byte, 60)
	drain := make([]*dpdk.Mbuf, 64)
	poll := func(nInt, nExt int) {
		t.Helper()
		rec.waits, rec.replies, rec.sleeps = rec.waits[:0], rec.replies[:0], rec.sleeps[:0]
		for i := 0; i < nInt; i++ {
			intPort.DeliverRx(frame, clock.Now())
		}
		for i := 0; i < nExt; i++ {
			extPort.DeliverRx(frame, clock.Now())
		}
		got, err := pipe.PollWorker(0)
		if err != nil || got != nInt+nExt {
			t.Fatalf("poll returned %d, %v; want %d", got, err, nInt+nExt)
		}
		for _, p := range []*dpdk.Port{intPort, extPort} {
			for k := p.DrainTx(drain); k > 0; k = p.DrainTx(drain) {
				for _, m := range drain[:k] {
					_ = m.Pool().Free(m)
				}
			}
		}
	}
	want := func(what string, waits, replies, sleeps int) {
		t.Helper()
		if len(rec.waits) != waits || len(rec.replies) != replies || len(rec.sleeps) != sleeps {
			t.Fatalf("%s: %d waits, %d reply waits and %d sleeps, want %d, %d and %d",
				what, len(rec.waits), len(rec.replies), len(rec.sleeps), waits, replies, sleeps)
		}
		for _, d := range append(rec.replies, rec.sleeps...) {
			if d != moderationGap {
				t.Fatalf("%s: a drained poll idled %v, want the moderation gap %v", what, d, moderationGap)
			}
		}
	}

	poll(0, 0)
	want("empty poll", 1, 0, 0)
	if rec.waits[0] != idleWait {
		t.Fatalf("empty poll waited %v, want IdleWait %v", rec.waits[0], idleWait)
	}
	if n.sweeps.Load() != 1 {
		t.Fatalf("empty poll ran %d expiry sweeps, want 1", n.sweeps.Load())
	}

	poll(2, 1)
	want("partial bursts that sent requests out", 0, 1, 0)
	poll(2, 1)
	want("the drained poll after a reply wait", 0, 0, 1)
	poll(0, burst-1)
	want("a drained poll that forwarded only inbound", 0, 0, 1)
	n.drop = true
	poll(2, 0)
	want("a drained poll whose outbound frames were all dropped", 0, 0, 1)
	n.drop = false

	poll(burst, 0)
	want("full internal burst", 0, 0, 0)
	poll(1, burst)
	want("full external burst", 0, 0, 0)
	poll(1, 0)
	want("requests out after a sleep", 0, 1, 0)

	// An idle timeout is still an expiry tick: the sweep runs before the
	// worker blocks again, and frees what the clock has passed.
	clock.Advance(2000)
	poll(0, 0)
	want("idle timeout", 1, 0, 0)
	if !n.expired.Load() {
		t.Fatal("idle poll did not expire the session the clock had passed")
	}
	poll(1, 0)
	want("requests out after a blocking wait", 0, 1, 0)
	w := pipe.Wire()
	if len(w) != 1 || w[0].Waits != 2 || w[0].ReplyWaits != 3 || w[0].Sleeps != 3 {
		t.Fatalf("wire counters %+v, want 2 waits, 3 reply waits and 3 sleeps on one queue", w)
	}
	if pool.InUse() != 0 {
		t.Fatalf("pool leaks %d mbufs", pool.InUse())
	}
}

// TestBusyPollHasNoIdlePolicy pins the other half: with IdleWait zero
// (every in-process harness) a poll never waits or sleeps.
func TestBusyPollHasNoIdlePolicy(t *testing.T) {
	pool, _ := dpdk.NewMempool(8)
	pipe, intPort, extPort := buildPipe(t, pool, 64, 4)
	var rec idleRecorder
	rec.install(pipe)
	for _, n := range []int{0, 1, 4} {
		for i := 0; i < n; i++ {
			intPort.DeliverRx(make([]byte, 60), 0)
		}
		if _, err := pipe.PollWorker(0); err != nil {
			t.Fatal(err)
		}
		drain := make([]*dpdk.Mbuf, 8)
		for _, m := range drain[:extPort.DrainTx(drain)] {
			_ = m.Pool().Free(m)
		}
	}
	if len(rec.waits)+len(rec.replies)+len(rec.sleeps) != 0 || pipe.Wire() != nil {
		t.Fatalf("busy-poll pipeline waited %d times, waited for replies %d, slept %d, reports %v",
			len(rec.waits), len(rec.replies), len(rec.sleeps), pipe.Wire())
	}
}

// unixPipe builds a one-worker pipeline over two silent unix
// transports.
func unixPipe(t *testing.T, n NF, clock libvig.Clock, idleWait time.Duration) (*Pipeline, *dpdk.UnixTransport, *dpdk.UnixTransport) {
	t.Helper()
	dir := t.TempDir()
	side := func(id uint16, name string) (*dpdk.Port, *dpdk.UnixTransport) {
		tr, err := dpdk.NewUnixTransport(dpdk.SocketConfig{Local: dir + "/" + name})
		if err != nil {
			t.Fatal(err)
		}
		pool, err := dpdk.NewMempool(16)
		if err != nil {
			t.Fatal(err)
		}
		port, err := dpdk.NewPortOn(id, tr, []*dpdk.Mempool{pool})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = port.Close() })
		return port, tr
	}
	intPort, intTr := side(0, "int")
	extPort, extTr := side(1, "ext")
	pipe, err := NewPipeline(n, Config{
		Internal: intPort, External: extPort, Clock: clock, IdleWait: idleWait,
	})
	if err != nil {
		t.Fatal(err)
	}
	return pipe, intTr, extTr
}

// TestIdleWaitCoversBothPorts is the regression test for the serial
// wait: a worker parked with a long IdleWait must be woken by a frame
// that arrives on the external port alone. When each port was waited on
// in turn, half the budget each, that frame sat out the internal port's
// 250 ms first.
func TestIdleWaitCoversBothPorts(t *testing.T) {
	pipe, _, extTr := unixPipe(t, passNF{}, nil, 500*time.Millisecond)
	got := make(chan time.Time, 1)
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			n, err := pipe.PollWorker(0)
			if err != nil || n > 0 {
				got <- time.Now()
				return
			}
		}
	}()
	// Parked: the first wait has begun, and has had time to block.
	for deadline := time.Now().Add(5 * time.Second); pipe.Wire()[0].Waits == 0; {
		if time.Now().After(deadline) {
			t.Fatal("worker never parked")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	conn, err := net.DialUnix("unixpacket", nil, &net.UnixAddr{Name: extTr.LocalAddr(0), Net: "unixpacket"})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	sent := time.Now()
	if _, err := conn.Write(make([]byte, 60)); err != nil {
		t.Fatal(err)
	}
	select {
	case at := <-got:
		if d := at.Sub(sent); d > 50*time.Millisecond {
			t.Fatalf("frame on the external port was served after %v, want < 50ms", d)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("frame on the external port never woke the worker")
	}
}

// TestReplyWaitEndsOnExternalFrameOnly runs the real reply wait,
// stretched to a second so that what ends it can be told from its
// timeout: the worker forwards a request out of the external port and
// waits there for the reply. A frame on the internal port must not end
// the wait; the reply on the external port must, at once.
func TestReplyWaitEndsOnExternalFrameOnly(t *testing.T) {
	pipe, intTr, extTr := unixPipe(t, passNF{}, nil, time.Second)
	peer := t.TempDir() + "/peer" // where requests go: a listener nobody reads
	sink, err := net.ListenUnix("unixpacket", &net.UnixAddr{Name: peer + ".q0", Net: "unixpacket"})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	if err := extTr.SetPeer(peer); err != nil {
		t.Fatal(err)
	}
	pipe.wait = func(w int, d time.Duration, ports ...*dpdk.Port) {
		if len(ports) == 1 {
			d = time.Second
		}
		dpdk.WaitRx(w, d, ports...)
	}
	dial := func(tr *dpdk.UnixTransport) *net.UnixConn {
		t.Helper()
		conn, err := net.DialUnix("unixpacket", nil, &net.UnixAddr{Name: tr.LocalAddr(0), Net: "unixpacket"})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = conn.Close() })
		return conn
	}
	send := func(conn *net.UnixConn) time.Time {
		t.Helper()
		at := time.Now()
		if _, err := conn.Write(make([]byte, 60)); err != nil {
			t.Fatal(err)
		}
		return at
	}
	// Both connections exist before the request, so the poll that
	// forwards it has accepted them: only frames can end the reply wait.
	in, out := dial(intTr), dial(extTr)
	returned := make(chan time.Time, 1)
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			if n, err := pipe.PollWorker(0); err != nil || n > 0 {
				returned <- time.Now()
				return
			}
		}
	}()
	send(in)
	for deadline := time.Now().Add(5 * time.Second); pipe.Wire()[0].ReplyWaits == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the worker forwarded a request but never waited for its reply")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // let the reply wait block
	send(in)
	select {
	case <-returned:
		t.Fatal("a frame on the internal port ended a reply wait")
	case <-time.After(50 * time.Millisecond):
	}
	sent := send(out)
	select {
	case at := <-returned:
		if d := at.Sub(sent); d > 50*time.Millisecond {
			t.Fatalf("the reply ended the wait after %v, want < 50ms", d)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("the reply on the external port never ended the wait")
	}
}

// TestParkedWorkerDoesNotHoldApply checks that a control verb is not
// held by a worker blocked in its idle wait: the worker touches no NF
// state while parked, so Apply runs at once rather than after the wait.
func TestParkedWorkerDoesNotHoldApply(t *testing.T) {
	pool, _ := dpdk.NewMempool(8)
	intPort, _ := dpdk.NewPort(0, 64, 64, pool)
	extPort, _ := dpdk.NewPort(1, 64, 64, pool)
	pipe, err := NewPipeline(passNF{}, Config{Internal: intPort, External: extPort, IdleWait: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	parked, release := make(chan struct{}), make(chan struct{})
	pipe.wait = func(int, time.Duration, ...*dpdk.Port) { close(parked); <-release }
	polled := make(chan struct{})
	go func() {
		defer close(polled)
		if _, err := pipe.PollWorker(0); err != nil {
			t.Error(err)
		}
	}()
	<-parked
	applied := make(chan error, 1)
	go func() { applied <- pipe.Apply(func() error { return nil }) }()
	select {
	case err := <-applied:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Apply waited for a parked worker")
	}
	close(release)
	<-polled
}

// TestIdleExpiryKeepsCadence runs the managed driver over a silent
// wire: with no traffic at all the worker must still sweep expiry about
// once per IdleWait — often enough that state drains on the NF's
// (virtual) clock, not so often that parking has turned into spinning.
func TestIdleExpiryKeepsCadence(t *testing.T) {
	const idleWait = 5 * time.Millisecond
	clock := libvig.NewVirtualClock(0)
	n := &expiringNF{deadline: 1_000_000}
	pipe, _, _ := unixPipe(t, n, clock, idleWait)
	// Timed from before Start: the worker sweeps from its first poll, and
	// a test goroutine descheduled right after Start must not leave those
	// sweeps out of the period count.
	start := time.Now()
	if err := pipe.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * idleWait)
	if n.expired.Load() {
		t.Fatal("session expired before its deadline")
	}
	clock.Advance(2_000_000)
	for deadline := time.Now().Add(5 * time.Second); !n.expired.Load(); {
		if time.Now().After(deadline) {
			t.Fatal("an idle worker never swept the expired session")
		}
		time.Sleep(time.Millisecond)
	}
	sweeps, ticks := n.sweeps.Load(), int64(time.Since(start)/idleWait)
	if err := pipe.Stop(); err != nil {
		t.Fatal(err)
	}
	// Timer slack and a loaded host stretch a wait, never shrink it.
	if sweeps < ticks/4 || sweeps > ticks+2 {
		t.Fatalf("%d expiry sweeps in %d IdleWait periods of silence", sweeps, ticks)
	}
	if w := pipe.Wire()[0]; w.Waits == 0 || w.ReplyWaits != 0 || w.Sleeps != 0 {
		t.Fatalf("silent wire: %d waits, %d reply waits, %d sleeps", w.Waits, w.ReplyWaits, w.Sleeps)
	}
}
