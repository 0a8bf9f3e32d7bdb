package main

import (
	"fmt"
	"time"

	"vignat/internal/dpdk"
	"vignat/internal/flow"
	"vignat/internal/libvig"
	"vignat/internal/nat"
	"vignat/internal/netstack"
)

// micro times op, which performs n operations a call, over five windows
// that share budget, and returns nanoseconds per operation.
func micro(budget time.Duration, n int, op func()) summary {
	const windows = 5
	vals := make([]float64, 0, windows)
	var total uint64
	for range windows {
		t0 := time.Now()
		count := 0
		for time.Since(t0) < budget/windows {
			op()
			count += n
		}
		vals = append(vals, float64(time.Since(t0))/float64(count))
		total += uint64(count)
	}
	return summarize(vals, total)
}

// passC times the libVig structures, and the NAT's flow table built on
// them, standing alone at the workload's capacity and occupancy, plus
// the few primitives the ladder needs a price for.
func passC(o *options, rep *report, capacity int, occupancy float64) error {
	budget := time.Duration(o.pairs()) * o.traceWindow() / 16 // sixteen micro-benchmarks share a pass's time
	live := int(float64(capacity) * occupancy)
	if live < 1 {
		live = 1
	}
	r := newRng(o.seed, 5)
	ids := make([]flow.ID, live)
	for i := range ids {
		ids[i] = natFlowID(&r, 10, i)
	}
	const batch = 32
	spare := natFlowID(&r, 11, 0)

	dm, err := libvig.NewDoubleMap[flow.ID, flow.ID, flow.Flow](capacity,
		func(f *flow.Flow) flow.ID { return f.IntKey }, func(f *flow.Flow) flow.ID { return f.ExtKey })
	if err != nil {
		return err
	}
	for i, id := range ids {
		if err := dm.Put(i, flow.MakeFlow(id, natExtIP, uint16(1+i))); err != nil {
			return err
		}
	}
	k := 0
	nextID := func() flow.ID { k = (k + 7919) % live; return ids[k] }
	rep.add("libvig.dmap_get_ns", micro(budget, batch, func() {
		for range batch {
			idxSink, _ = dm.GetByFst(nextID())
		}
	}))
	freeIdx := capacity - 1
	spareFlow := flow.MakeFlow(spare, natExtIP, uint16(capacity))
	rep.add("libvig.dmap_put_erase_ns", micro(budget, batch, func() {
		for range batch {
			_ = dm.Put(freeIdx, spareFlow)
			_ = dm.Erase(freeIdx)
		}
	}))

	chain, err := libvig.NewDChain(capacity)
	if err != nil {
		return err
	}
	now := libvig.Time(0)
	for range live {
		now++
		if _, err := chain.Allocate(now); err != nil {
			return err
		}
	}
	rep.add("libvig.dchain_rejuvenate_ns", micro(budget, batch, func() {
		for range batch {
			now++
			k = (k + 7919) % live
			_ = chain.Rejuvenate(k, now)
		}
	}))
	rep.add("libvig.dchain_alloc_free_ns", micro(budget, batch, func() {
		for range batch {
			now++
			i, _ := chain.Allocate(now)
			_ = chain.Free(i)
		}
	}))
	// Expiry: allocate a batch (untimed), then expire exactly that batch.
	noop := libvig.IndexEraserFunc(func(int) error { return nil })
	exp, err := libvig.NewDChain(capacity)
	if err != nil {
		return err
	}
	expNow := libvig.Time(0)
	rep.add("libvig.expire_ns_per_item", microTimed(budget, func() (time.Duration, int) {
		for range batch {
			expNow++
			_, _ = exp.Allocate(expNow)
		}
		t0 := time.Now()
		n, _ := libvig.ExpireItems(exp, expNow+1, noop)
		return time.Since(t0), n
	}))

	ports, err := libvig.NewPortAllocator(1, capacity)
	if err != nil {
		return err
	}
	for range live {
		if _, err := ports.Allocate(); err != nil {
			return err
		}
	}
	rep.add("libvig.portalloc_ns", micro(budget, batch, func() {
		for range batch {
			p, _ := ports.Allocate()
			_ = ports.Release(p)
		}
	}))

	hm, err := libvig.NewMap[flow.Addr](capacity)
	if err != nil {
		return err
	}
	for i, id := range ids {
		if err := hm.Put(id.SrcIP, i); err != nil {
			return err
		}
	}
	rep.add("libvig.map_get_ns", micro(budget, batch, func() {
		for range batch {
			idxSink, _ = hm.Get(nextID().SrcIP)
		}
	}))

	tb, err := libvig.NewTokenBucket(capacity, gwPolRate, gwPolBurst)
	if err != nil {
		return err
	}
	for i := range live {
		_ = tb.Fill(i, 0)
	}
	rep.add("libvig.tokenbucket_charge_ns", micro(budget, batch, func() {
		for range batch {
			now++
			k = (k + 7919) % live
			boolSink = tb.Charge(k, 64, now)
		}
	}))

	cht, err := libvig.NewCHT(len(gwBackends), 1021)
	if err != nil {
		return err
	}
	for i, ip := range gwBackends {
		if err := cht.AddBackend(i, uint64(ip)); err != nil {
			return err
		}
	}
	h := uint64(o.seed)
	rep.add("libvig.cht_lookup_ns", micro(budget, batch, func() {
		for range batch {
			h = h*6364136223846793005 + 1442695040888963407
			idxSink, _ = cht.Lookup(h)
		}
	}))

	ft, err := nat.NewFlowTable(capacity, natExtIP, 1)
	if err != nil {
		return err
	}
	for _, id := range ids[:min(live, capacity-1)] {
		now++
		if _, ok := ft.Add(id, now); !ok {
			return fmt.Errorf("flow table refused a flow below capacity")
		}
	}
	rep.add("nat.flow_add_ns", micro(budget, batch, func() {
		for range batch {
			now++
			i, _ := ft.Add(spare, now)
			_ = ft.Remove(i)
		}
	}))
	rep.add("nat.flow_lookup_ns", micro(budget, batch, func() {
		for range batch {
			idxSink, _ = ft.LookupInt(nextID())
		}
	}))

	pool, err := dpdk.NewMempool(poolSize)
	if err != nil {
		return err
	}
	rep.add("dpdk.mempool_alloc_free_ns", micro(budget, batch, func() {
		for range batch {
			m := pool.Alloc()
			_ = pool.Free(m)
		}
	}))

	// A NAT's outbound rewrite: source address and port, checksums kept
	// right incrementally.
	t := craft(ids[0], smallFrame)
	var p netstack.Packet
	if err := p.Parse(t.frame); err != nil {
		return err
	}
	rep.add("netstack.rewrite_ns_per_pkt", micro(budget, batch, func() {
		for i := range batch {
			p.SetSrcIP(natExtIP + flow.Addr(i))
			p.SetSrcPort(uint16(1024 + i))
		}
	}))

	epoch := time.Now()
	rep.add("gen.clock_read_ns", micro(budget, batch, func() {
		for range batch {
			durSink = time.Since(epoch)
		}
	}))
	return nil
}

// microTimed is micro for operations that time themselves because part
// of each round is preparation.
func microTimed(budget time.Duration, op func() (time.Duration, int)) summary {
	const windows = 5
	vals := make([]float64, 0, windows)
	var total uint64
	for range windows {
		t0 := time.Now()
		var ns time.Duration
		count := 0
		for time.Since(t0) < budget/windows {
			d, n := op()
			ns += d
			count += n
		}
		vals = append(vals, float64(ns)/float64(max(count, 1)))
		total += uint64(count)
	}
	return summarize(vals, total)
}

// Sinks keep the compiler from discarding the measured calls.
var (
	idxSink  int
	boolSink bool
	durSink  time.Duration
)
