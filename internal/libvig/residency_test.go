package libvig_test

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"testing"

	"vignat/internal/flow"
	"vignat/internal/libvig"
	"vignat/internal/nat"
	"vignat/internal/netstack"
	"vignat/internal/nf"
	"vignat/internal/nf/nfkit/nfkittest"
)

// vmRSS reads this process's resident set from /proc, in bytes.
func vmRSS(t *testing.T) int {
	t.Helper()
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range bytes.Split(status, []byte("\n")) {
		var kb int
		if _, err := fmt.Sscanf(string(line), "VmRSS: %d kB", &kb); err == nil {
			return kb << 10
		}
	}
	t.Fatal("no VmRSS line in /proc/self/status")
	return 0
}

// mapCount reads how many mappings this process has: the lines of
// /proc/self/maps, the count vm.max_map_count bounds.
func mapCount(t *testing.T) int {
	t.Helper()
	maps, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Count(maps, []byte("\n"))
}

// collect runs the collector until the finalizers of everything
// unreachable when it was called have run, so the mappings behind
// dropped structures are gone: a sentinel dropped with them has its
// finalizer queued in the same cycle, and a second round leaves no
// batch of the first behind. It then returns the free heap to the
// kernel, so the background scavenger does not shrink VmRSS in the
// middle of a measurement.
func collect() {
	for range 2 {
		done := make(chan struct{})
		runtime.SetFinalizer(&struct{ p *int }{}, func(*struct{ p *int }) { close(done) })
		runtime.GC()
		<-done
	}
	debug.FreeOSMemory()
}

// skipUnlessResident skips a test that reads the resident set where it
// cannot mean the program's own memory.
func skipUnlessResident(t *testing.T) {
	t.Helper()
	if runtime.GOOS != "linux" {
		t.Skip("resident-set checks read /proc/self (Linux only)")
	}
	if libvig.RaceEnabled {
		t.Skip("the race detector's shadow memory is resident too, and its tables stay on the heap")
	}
}

// skipIfPoisoned skips a test that counts what dropped structures give
// back: a vigpoison build keeps every released mapping, inaccessible.
func skipIfPoisoned(t *testing.T) {
	t.Helper()
	if libvig.PoisonEnabled {
		t.Skip("a vigpoison build never unmaps a released mapping")
	}
}

// TestFlowTableResidency (Linux only; skipped under the race detector,
// whose shadow memory grows with every byte written):
//
//   - construction: the NAT's 65,535-flow table — its keyless Map,
//     DoubleMap, DChain and generation table, ~3.5 MB in all — grows
//     VmRSS by under 512 KB, because construction writes none of it;
//   - flows: 1,024 flows grow it by about the slot pages their hashes
//     land on plus 1,024 records, not by the capacity;
//   - rebuild: the table dropped and collected, a second one grows VmRSS
//     by under 512 KB too. Its arrays come from fresh mappings, so
//     nothing clears memory a heap would hand out a second time (which
//     faulted the whole capacity in);
//   - fill: the rebuilt table filled to 58,982 flows, nat_established's
//     90%, grows VmRSS by no more than the pages its flows are written
//     on — the slot pages their hashes land on, then per index a 16-byte
//     record, a chain cell, an occupancy flag and a generation — plus
//     256 KB. Bytes per flow are the bound: a record that stored a key
//     it can derive, or a per-index hash cell, exceeds it.
func TestFlowTableResidency(t *testing.T) {
	skipUnlessResident(t)
	const capacity, flows = 65535, 1024
	var tab *nat.FlowTable
	build := func(t *testing.T) {
		// A collection the allocations started would make memory of the
		// collector's own resident.
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		before := vmRSS(t)
		var err error
		if tab, err = nat.NewFlowTable(capacity, 0xc0000201, 0); err != nil {
			t.Fatal(err)
		}
		grew := vmRSS(t) - before
		if grew >= 512<<10 {
			t.Fatalf("a %d-flow table grew VmRSS by %d KB; construction wrote its arrays", capacity, grew>>10)
		}
		t.Logf("a %d-flow table grew VmRSS by %d KB", capacity, grew>>10)
	}
	collect()
	t.Run("construction", build)
	t.Run("flows", func(t *testing.T) {
		if tab == nil {
			t.Skip("no table was built")
		}
		// The first-key map's slots: SlotBytes each, the next power of two
		// at or above twice the capacity. A flow writes the slot its hash
		// homes to; the pages those slots lie on are what its index costs.
		slots := 1
		for slots < 2*capacity {
			slots <<= 1
		}
		page := os.Getpagesize()
		keys := make([]flow.ID, flows)
		homes := map[int]bool{}
		for i := range keys {
			keys[i] = flow.ID{SrcIP: flow.Addr(0x0a000000 + i), DstIP: 0xc6336407,
				SrcPort: uint16(1024 + i), DstPort: 53, Proto: flow.UDP}
			homes[int(keys[i].Hash()&uint64(slots-1))*libvig.SlotBytes/page] = true
		}
		collect() // the runtime's own growth after a large allocation settles first
		before := vmRSS(t)
		for i, k := range keys {
			if _, ok := tab.Add(k, libvig.Time(i)); !ok {
				t.Fatalf("flow %d refused", i)
			}
		}
		grew := vmRSS(t) - before
		// Besides the slot pages, each index writes its record, its chain
		// links, stamp and flags, and its guard: under 64 bytes, all of
		// them at the low indices the chain hands out first.
		lo, hi := len(homes)*page*8/10, len(homes)*page+flows*64+128<<10
		if grew < lo || grew > hi {
			t.Fatalf("%d flows grew VmRSS by %d KB, want %d–%d KB (%d slot pages)", flows, grew>>10, lo>>10, hi>>10, len(homes))
		}
		t.Logf("%d flows grew VmRSS by %d KB (%d slot pages of %d)", flows, grew>>10, len(homes), slots*libvig.SlotBytes/page)
		if hw := tab.HighWater(); hw != flows {
			t.Fatalf("high water %d after %d flows", hw, flows)
		}
	})
	t.Run("rebuild", func(t *testing.T) {
		tab = nil
		collect()
		build(t)
	})
	t.Run("fill", func(t *testing.T) {
		if tab == nil || tab.Size() != 0 {
			t.Skip("no empty table was rebuilt")
		}
		const fill = 58982
		// The NAT's record is its internal 5-tuple alone, size-asserted
		// in internal/nat; the generation table keeps a uint32 an index.
		const recordBytes, genBytes = 16, 4
		slots := 1
		for slots < 2*capacity {
			slots <<= 1
		}
		page := os.Getpagesize()
		pages := func(n, size int) int { return (n*size + page - 1) / page }
		keys := make([]flow.ID, fill)
		homes := map[int]bool{}
		for i := range keys {
			keys[i] = flow.ID{SrcIP: flow.Addr(0x0a000000 + i), DstIP: 0xc6336407,
				SrcPort: uint16(1024 + i), DstPort: 53, Proto: flow.UDP}
			homes[int(keys[i].Hash()&uint64(slots-1))*libvig.SlotBytes/page] = true
		}
		// Indices 0…fill−1, and the chain's two list heads and the
		// creation epoch past the last index, one page each.
		perIndex := pages(fill, recordBytes) + pages(fill, libvig.ChainCellBytes) +
			pages(fill, libvig.OccupancyBytes) + pages(fill, genBytes) + 3
		want := (len(homes) + perIndex) * page
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		collect()
		before := vmRSS(t)
		for i, k := range keys {
			if _, ok := tab.Add(k, libvig.Time(i)); !ok {
				t.Fatalf("flow %d refused", i)
			}
		}
		grew := vmRSS(t) - before
		if hi := want + 256<<10; grew > hi || grew < want*8/10 {
			t.Fatalf("%d flows grew VmRSS by %d KB, want %d–%d KB (%d slot pages, %d per-index pages)",
				fill, grew>>10, want*8/10>>10, hi>>10, len(homes), perIndex)
		}
		t.Logf("%d flows grew VmRSS by %d KB: %d slot pages and %d per-index pages make %d KB",
			fill, grew>>10, len(homes), perIndex, want>>10)
	})
}

// TestFlowTableOffHeap: building the NAT's 65,535-flow table grows the
// Go heap by under 64 KB — its ~3.5 MB of arrays are mappings of their
// own, which the collector's pacing never counts (Linux only; under the
// race detector they stay on the heap).
func TestFlowTableOffHeap(t *testing.T) {
	skipUnlessResident(t)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tab, err := nat.NewFlowTable(65535, 0xc0000201, 0)
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	grew := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if grew >= 64<<10 {
		t.Fatalf("a 65535-flow table grew HeapAlloc by %d bytes", grew)
	}
	t.Logf("a 65535-flow table grew HeapAlloc by %d bytes", grew)
	runtime.KeepAlive(tab)
}

// TestFlowTableBuildDropBounded: 2,000 cycles of building the NAT's
// 65,535-flow table and dropping it keep VmRSS and the process's
// mapping count bounded throughout (Linux only, not under the race
// detector): the dropped tables' mappings are unmapped as they go, so
// neither the pages construction touched nor the map entries pile up
// towards vm.max_map_count — even though each cycle allocates only ~2 KB
// of heap, a collection's worth only every ~2,000 cycles.
func TestFlowTableBuildDropBounded(t *testing.T) {
	skipUnlessResident(t)
	skipIfPoisoned(t)
	const cycles, every = 2000, 100
	const maxRSS, maxMaps = 2 << 20, 64
	build := func() {
		if _, err := nat.NewFlowTable(65535, 0xc0000201, 0); err != nil {
			t.Fatal(err)
		}
	}
	for range every {
		build()
	}
	collect()
	rss0, maps0 := vmRSS(t), mapCount(t)
	peakRSS, peakMaps := 0, 0
	for i := 1; i <= cycles; i++ {
		build()
		if i%every != 0 {
			continue
		}
		peakRSS, peakMaps = max(peakRSS, vmRSS(t)-rss0), max(peakMaps, mapCount(t)-maps0)
		if peakRSS >= maxRSS || peakMaps >= maxMaps {
			t.Fatalf("after %d cycles VmRSS grew by %d KB and the mappings by %d; want under %d KB and %d",
				i, peakRSS>>10, peakMaps, maxRSS>>10, maxMaps)
		}
	}
	collect()
	if maps := mapCount(t) - maps0; maps > 8 {
		t.Fatalf("%d cycles, collected, left %d more mappings", cycles, maps)
	}
	t.Logf("%d cycles: VmRSS grew by at most %d KB, the mappings by at most %d", cycles, peakRSS>>10, peakMaps)
}

// TestReshardResidency: a 61,440-flow NAT on two shards holding ~1,000
// flows, resharded 2 → 4 → 3 → 2, ends up with VmRSS under 1 MB above
// where it started, and — collected — its mapping count back within a
// few of where it started (Linux only, not under the race detector).
// Each reshard builds a full set of shards and drops the old one; the
// new tables come from fresh mappings that only the migrated flows
// touch, and the dropped tables' mappings are unmapped whole, so
// nothing clears a recycled capacity or keeps a dropped one resident.
func TestReshardResidency(t *testing.T) {
	skipUnlessResident(t)
	skipIfPoisoned(t)
	build := func(capacity, flows int) *nat.Sharded {
		s, err := nat.NewSharded(nat.Config{
			Capacity: capacity, ExternalIP: flow.MakeAddr(198, 18, 1, 1),
			PortBase: 1024, InternalPort: 0, ExternalPort: 1,
		}, libvig.NewVirtualClock(0), 2)
		if err != nil {
			t.Fatal(err)
		}
		frame := make([]byte, 128)
		for i := range flows {
			fs := &netstack.FrameSpec{ID: flow.ID{
				SrcIP: flow.MakeAddr(10, 0, byte(i>>8), byte(i)), SrcPort: uint16(20000 + i),
				DstIP: flow.MakeAddr(93, 184, 216, 34), DstPort: 80, Proto: flow.UDP,
			}, PayloadLen: 4}
			if v := nfkittest.Send(s, netstack.Craft(frame[:netstack.FrameLen(fs)], fs), true); v != nf.Forward {
				t.Fatalf("flow %d: verdict %v", i, v)
			}
		}
		return s
	}
	reshard := func(s *nat.Sharded) {
		for _, n := range []int{4, 3, 2} {
			if err := s.Reshard(n); err != nil {
				t.Fatalf("reshard to %d: %v", n, err)
			}
		}
	}
	// A small NAT resharded first pages in the code a reshard runs, which
	// the test binary's file-backed share of VmRSS would count.
	reshard(build(240, 100))
	const flows = 1000
	s := build(61440, flows)
	collect()
	rss0, maps0 := vmRSS(t), mapCount(t)
	reshard(s)
	if got := s.Flows(); got != flows {
		t.Fatalf("%d flows after the reshards, want %d", got, flows)
	}
	collect()
	grew, maps := vmRSS(t)-rss0, mapCount(t)-maps0
	if grew >= 1<<20 {
		t.Fatalf("resharding 2→4→3→2 grew VmRSS by %d KB", grew>>10)
	}
	if maps > 4 {
		t.Fatalf("resharding 2→4→3→2, collected, left %d more mappings; the dropped shards were not unmapped", maps)
	}
	t.Logf("resharding 2→4→3→2 grew VmRSS by %d KB and the mappings by %d", grew>>10, maps)
}
