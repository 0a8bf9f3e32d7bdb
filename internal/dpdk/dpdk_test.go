package dpdk

import (
	"testing"
)

func TestMempoolAllocFree(t *testing.T) {
	p, err := NewMempool(4)
	if err != nil {
		t.Fatal(err)
	}
	if p.Size() != 4 || p.InUse() != 0 {
		t.Fatal("fresh pool state wrong")
	}
	var bufs []*Mbuf
	for i := 0; i < 4; i++ {
		m := p.Alloc()
		if m == nil {
			t.Fatalf("alloc %d failed", i)
		}
		bufs = append(bufs, m)
	}
	if p.Alloc() != nil {
		t.Fatal("exhausted pool handed out an mbuf")
	}
	if p.InUse() != 4 {
		t.Fatalf("in use %d", p.InUse())
	}
	for _, m := range bufs {
		if err := p.Free(m); err != nil {
			t.Fatal(err)
		}
	}
	if p.InUse() != 0 {
		t.Fatalf("in use %d after frees", p.InUse())
	}
}

func TestMempoolDoubleFree(t *testing.T) {
	p, _ := NewMempool(2)
	m := p.Alloc()
	if err := p.Free(m); err != nil {
		t.Fatal(err)
	}
	if err := p.Free(m); err == nil {
		t.Fatal("double free accepted (P2 violation class)")
	}
	if err := p.Free(nil); err == nil {
		t.Fatal("nil free accepted")
	}
}

func TestMempoolForeignFree(t *testing.T) {
	p1, _ := NewMempool(1)
	p2, _ := NewMempool(1)
	m := p1.Alloc()
	if err := p2.Free(m); err == nil {
		t.Fatal("foreign-pool free accepted")
	}
	if err := p1.Free(m); err != nil {
		t.Fatal(err)
	}
}

func TestMbufSetFrame(t *testing.T) {
	p, _ := NewMempool(1)
	m := p.Alloc()
	frame := make([]byte, 100)
	frame[0] = 0xab
	if err := m.SetFrame(frame); err != nil {
		t.Fatal(err)
	}
	if len(m.Data) != 100 || m.Data[0] != 0xab {
		t.Fatal("frame not stored")
	}
	huge := make([]byte, DataRoomSize+1)
	if err := m.SetFrame(huge); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

func TestPortDeliverAndRxBurst(t *testing.T) {
	pool, _ := NewMempool(64)
	port, err := NewPort(3, 8, 8, pool)
	if err != nil {
		t.Fatal(err)
	}
	frame := make([]byte, 60)
	for i := 0; i < 5; i++ {
		frame[0] = byte(i)
		if !port.DeliverRx(frame, int64(1000+i)) {
			t.Fatalf("deliver %d rejected", i)
		}
	}
	bufs := make([]*Mbuf, 32)
	n := port.RxBurstQueue(0, bufs)
	if n != 5 {
		t.Fatalf("rx burst %d want 5", n)
	}
	for i := 0; i < n; i++ {
		if bufs[i].Data[0] != byte(i) {
			t.Fatal("rx order broken")
		}
		if bufs[i].Port != 3 {
			t.Fatal("port metadata missing")
		}
		if bufs[i].RxTime != int64(1000+i) {
			t.Fatal("rx timestamp missing")
		}
		_ = pool.Free(bufs[i])
	}
	s := port.Stats()
	if s.RxPackets != 5 || s.RxDropped != 0 {
		t.Fatalf("stats %+v", s)
	}
}

func TestPortRxQueueOverflowDrops(t *testing.T) {
	pool, _ := NewMempool(64)
	port, _ := NewPort(0, 4, 4, pool)
	frame := make([]byte, 60)
	delivered := 0
	for i := 0; i < 10; i++ {
		if port.DeliverRx(frame, 0) {
			delivered++
		}
	}
	if delivered != 4 {
		t.Fatalf("delivered %d want 4 (queue depth)", delivered)
	}
	if port.Stats().RxDropped != 6 {
		t.Fatalf("dropped %d want 6", port.Stats().RxDropped)
	}
}

func TestPortMempoolExhaustionDrops(t *testing.T) {
	pool, _ := NewMempool(2)
	port, _ := NewPort(0, 8, 8, pool)
	frame := make([]byte, 60)
	ok := 0
	for i := 0; i < 5; i++ {
		if port.DeliverRx(frame, 0) {
			ok++
		}
	}
	if ok != 2 {
		t.Fatalf("accepted %d want 2 (pool size)", ok)
	}
}

func TestMultiQueuePortRSSSteering(t *testing.T) {
	pools := []*Mempool{}
	for i := 0; i < 4; i++ {
		p, _ := NewMempool(8)
		pools = append(pools, p)
	}
	port, err := NewMultiQueuePort(0, 4, 8, 8, pools)
	if err != nil {
		t.Fatal(err)
	}
	if port.Queues() != 4 {
		t.Fatalf("queues %d want 4", port.Queues())
	}
	// Steer by the first frame byte, like an RSS hash over the flow key.
	port.SetRSS(func(frame []byte) int { return int(frame[0]) })
	frame := make([]byte, 60)
	for i := 0; i < 8; i++ {
		frame[0] = byte(i % 4)
		if !port.DeliverRx(frame, 0) {
			t.Fatalf("deliver %d rejected", i)
		}
	}
	bufs := make([]*Mbuf, 8)
	for q := 0; q < 4; q++ {
		n := port.RxBurstQueue(q, bufs)
		if n != 2 {
			t.Fatalf("queue %d got %d frames, want 2", q, n)
		}
		for i := 0; i < n; i++ {
			if bufs[i].Data[0] != byte(q) {
				t.Fatalf("queue %d holds a frame steered to %d", q, bufs[i].Data[0])
			}
			if bufs[i].Pool() != pools[q] {
				t.Fatalf("queue %d frame allocated from a foreign pool", q)
			}
			_ = bufs[i].Pool().Free(bufs[i])
		}
		if qs := port.QueueStats(q); qs.RxPackets != 2 {
			t.Fatalf("queue %d stats %+v", q, qs)
		}
	}
	if s := port.Stats(); s.RxPackets != 8 {
		t.Fatalf("aggregate stats %+v", s)
	}
}

func TestMultiQueuePortPerQueueIsolation(t *testing.T) {
	// An overflow or pool exhaustion on one queue must not affect
	// another queue's traffic.
	p0, _ := NewMempool(1)
	p1, _ := NewMempool(8)
	port, err := NewMultiQueuePort(0, 2, 2, 2, []*Mempool{p0, p1})
	if err != nil {
		t.Fatal(err)
	}
	frame := make([]byte, 60)
	if !port.DeliverRxQueue(0, frame, 0) {
		t.Fatal("first frame on queue 0 rejected")
	}
	if port.DeliverRxQueue(0, frame, 0) {
		t.Fatal("queue 0 accepted a frame with its pool exhausted")
	}
	if !port.DeliverRxQueue(1, frame, 0) {
		t.Fatal("queue 1 rejected a frame while queue 0 was exhausted")
	}
	if port.QueueStats(0).RxDropped != 1 || port.QueueStats(1).RxDropped != 0 {
		t.Fatalf("per-queue drop accounting wrong: %+v %+v",
			port.QueueStats(0), port.QueueStats(1))
	}
}

func TestMultiQueuePortDrainSweepsQueues(t *testing.T) {
	pool, _ := NewMempool(8)
	port, err := NewMultiQueuePort(0, 2, 4, 4, []*Mempool{pool})
	if err != nil {
		t.Fatal(err)
	}
	m0, m1 := pool.Alloc(), pool.Alloc()
	if port.TxBurstQueue(1, []*Mbuf{m0}) != 1 || port.TxBurstQueue(0, []*Mbuf{m1}) != 1 {
		t.Fatal("tx rejected")
	}
	out := make([]*Mbuf, 4)
	// DrainTx sweeps queue 0 first, then queue 1.
	if n := port.DrainTx(out); n != 2 || out[0] != m1 || out[1] != m0 {
		t.Fatalf("drain swept %d frames in wrong order", n)
	}
	_ = pool.Free(m0)
	_ = pool.Free(m1)
	if pool.InUse() != 0 {
		t.Fatalf("leaked mbufs: %d", pool.InUse())
	}
}

func TestMultiQueuePortValidation(t *testing.T) {
	pool, _ := NewMempool(1)
	if _, err := NewMultiQueuePort(0, 0, 4, 4, []*Mempool{pool}); err == nil {
		t.Fatal("0 queues accepted")
	}
	if _, err := NewMultiQueuePort(0, 3, 4, 4, []*Mempool{pool, pool}); err == nil {
		t.Fatal("2 pools for 3 queues accepted")
	}
	if _, err := NewMultiQueuePort(0, 2, 4, 4, []*Mempool{pool, nil}); err == nil {
		t.Fatal("nil pool accepted")
	}
}

func TestPoolPanicsOnMultiQueuePort(t *testing.T) {
	poolA, _ := NewMempool(4)
	poolB, _ := NewMempool(4)
	port, err := NewMultiQueuePort(0, 2, 4, 4, []*Mempool{poolA, poolB})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Pool() on a 2-queue port did not panic")
		}
	}()
	_ = port.Pool()
}

func TestPortTxBurstAndDrain(t *testing.T) {
	pool, _ := NewMempool(16)
	port, _ := NewPort(0, 4, 2, pool)
	m1, m2, m3 := pool.Alloc(), pool.Alloc(), pool.Alloc()
	n := port.TxBurstQueue(0, []*Mbuf{m1, m2, m3})
	if n != 2 {
		t.Fatalf("tx burst accepted %d want 2 (queue depth)", n)
	}
	s := port.Stats()
	if s.TxPackets != 2 || s.TxDropped != 1 {
		t.Fatalf("stats %+v", s)
	}
	out := make([]*Mbuf, 8)
	d := port.DrainTx(out)
	if d != 2 || out[0] != m1 || out[1] != m2 {
		t.Fatal("drain wrong")
	}
	// Ownership conservation: caller still owns m3 and the drained.
	_ = pool.Free(m1)
	_ = pool.Free(m2)
	_ = pool.Free(m3)
	if pool.InUse() != 0 {
		t.Fatalf("leaked mbufs: %d", pool.InUse())
	}
}

func TestDeliverRxQueueOutOfRange(t *testing.T) {
	p0, _ := NewMempool(8)
	p1, _ := NewMempool(8)
	port, err := NewMultiQueuePort(0, 2, 4, 4, []*Mempool{p0, p1})
	if err != nil {
		t.Fatal(err)
	}
	frame := make([]byte, 60)
	for _, q := range []int{-1, 2, 100} {
		if port.DeliverRxQueue(q, frame, 0) {
			t.Fatalf("queue %d accepted a frame (port has 2 queues)", q)
		}
	}
	// The rejection must not have touched any real queue's state.
	s := port.Stats()
	if s.RxPackets != 0 || s.RxDropped != 0 {
		t.Fatalf("out-of-range delivery perturbed stats: %+v", s)
	}
	if p0.InUse() != 0 || p1.InUse() != 0 {
		t.Fatal("out-of-range delivery leaked an mbuf")
	}
	// In-range delivery still works afterwards.
	if !port.DeliverRxQueue(1, frame, 0) {
		t.Fatal("valid queue rejected after out-of-range attempts")
	}
	bufs := make([]*Mbuf, 4)
	if n := port.RxBurstQueue(1, bufs); n != 1 {
		t.Fatalf("rx burst %d want 1", n)
	}
	_ = bufs[0].Pool().Free(bufs[0])
}

// TestSetRSSReprogramming re-steers live traffic: frames delivered
// after SetRSS land per the *new* function (the analogue of rewriting a
// NIC's indirection table), and SetRSS(nil) restores everything to
// queue 0.
func TestSetRSSReprogramming(t *testing.T) {
	pools := make([]*Mempool, 4)
	for i := range pools {
		pools[i], _ = NewMempool(16)
	}
	port, err := NewMultiQueuePort(0, 4, 16, 16, pools)
	if err != nil {
		t.Fatal(err)
	}
	frame := make([]byte, 60)
	deliver := func(tag byte) {
		t.Helper()
		frame[0] = tag
		if !port.DeliverRx(frame, 0) {
			t.Fatal("deliver rejected")
		}
	}
	countQueue := func(q int) int {
		bufs := make([]*Mbuf, 16)
		n := port.RxBurstQueue(q, bufs)
		for i := 0; i < n; i++ {
			_ = bufs[i].Pool().Free(bufs[i])
		}
		return n
	}

	// First program: steer by the tag directly.
	port.SetRSS(func(f []byte) int { return int(f[0]) })
	deliver(1)
	deliver(3)
	if countQueue(1) != 1 || countQueue(3) != 1 {
		t.Fatal("initial RSS steering wrong")
	}

	// Reprogram: shift every flow by one queue. The same tags must now
	// land on the new queues — no stale steering state anywhere.
	port.SetRSS(func(f []byte) int { return (int(f[0]) + 1) % 4 })
	deliver(1)
	deliver(3)
	if countQueue(2) != 1 || countQueue(0) != 1 {
		t.Fatal("re-steering after SetRSS reprogram wrong")
	}
	if countQueue(1) != 0 || countQueue(3) != 0 {
		t.Fatal("old steering still active after reprogram")
	}

	// A function returning junk clamps to a valid queue (negative → 0,
	// large → mod).
	port.SetRSS(func(f []byte) int { return -7 })
	deliver(9)
	if countQueue(0) != 1 {
		t.Fatal("negative RSS result not clamped to queue 0")
	}
	port.SetRSS(func(f []byte) int { return 6 })
	deliver(9)
	if countQueue(2) != 1 {
		t.Fatal("out-of-range RSS result not wrapped")
	}

	// nil restores the default: everything on queue 0.
	port.SetRSS(nil)
	deliver(3)
	if countQueue(0) != 1 || countQueue(3) != 0 {
		t.Fatal("SetRSS(nil) did not restore queue-0 default")
	}
}

// TestTxQueueStatsConservation: under mixed-queue TX bursts with some
// queues overflowing, every offered mbuf is either counted as
// transmitted on exactly its queue or as dropped there — the aggregate
// conserves the offered count, and drained frames match per-queue
// TxPackets.
func TestTxQueueStatsConservation(t *testing.T) {
	pool, _ := NewMempool(64)
	// Queue depth 4: a 6-frame burst on one queue overflows by 2.
	port, err := NewMultiQueuePort(0, 3, 8, 4, []*Mempool{pool})
	if err != nil {
		t.Fatal(err)
	}
	offered, accepted := 0, 0
	var kept []*Mbuf
	for _, load := range []struct{ q, n int }{
		{0, 6}, // overflows: 4 accepted, 2 rejected
		{1, 3}, // fits
		{0, 2}, // queue 0 already full: all rejected
		{2, 4}, // fills exactly
		{2, 1}, // rejected
	} {
		bufs := make([]*Mbuf, load.n)
		for i := range bufs {
			bufs[i] = pool.Alloc()
			if bufs[i] == nil {
				t.Fatal("pool exhausted")
			}
		}
		offered += load.n
		n := port.TxBurstQueue(load.q, bufs)
		accepted += n
		// Rejected mbufs stay with the caller (DPDK semantics).
		for _, m := range bufs[n:] {
			kept = append(kept, m)
		}
	}

	var agg PortStats
	drained := 0
	drain := make([]*Mbuf, 16)
	for q := 0; q < 3; q++ {
		qs := port.QueueStats(q)
		agg.add(qs)
		n := port.DrainTxQueue(q, drain)
		if uint64(n) != qs.TxPackets {
			t.Fatalf("queue %d drained %d frames but counted %d transmitted", q, n, qs.TxPackets)
		}
		drained += n
		for i := 0; i < n; i++ {
			_ = drain[i].Pool().Free(drain[i])
		}
	}
	if agg.TxPackets+agg.TxDropped != uint64(offered) {
		t.Fatalf("offered %d, counted tx=%d dropped=%d", offered, agg.TxPackets, agg.TxDropped)
	}
	if int(agg.TxPackets) != accepted || drained != accepted {
		t.Fatalf("accepted %d, counted %d, drained %d", accepted, agg.TxPackets, drained)
	}
	if s := port.Stats(); s != agg {
		t.Fatalf("aggregate stats %+v != per-queue sum %+v", s, agg)
	}
	for _, m := range kept {
		_ = pool.Free(m)
	}
	if pool.InUse() != 0 {
		t.Fatalf("leaked mbufs: %d", pool.InUse())
	}
}
