package libvig_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"testing"

	"vignat/internal/flow"
	"vignat/internal/libvig"
	"vignat/internal/nat"
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

// residencyChild is the argument that makes the test binary run
// TestFlowTableResidency's checks itself, in a process whose heap has
// never held anything else: memory the heap hands out a second time is
// zeroed, and zeroing faults it in, so only a fresh heap shows what
// construction itself touches — as in the daemon, which builds its
// tables at start-up.
const residencyChild = "flowtable-residency-child"

// TestFlowTableResidency, in a fresh process (Linux only; skipped under
// the race detector, whose shadow memory grows with every byte written):
//
//   - construction: the NAT's 65,535-flow table — its keyless Map,
//     DoubleMap, DChain and generation table, ~4.9 MB in all — grows
//     VmRSS by under 512 KB, because construction writes none of it;
//   - flows: 1,024 flows grow it by about the slot pages their hashes
//     land on plus 1,024 records, not by the capacity.
func TestFlowTableResidency(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("resident-set checks read /proc/self/status (Linux only)")
	}
	if raceEnabled {
		t.Skip("the race detector's shadow memory is resident too")
	}
	if flag.Arg(0) != residencyChild {
		out, err := exec.Command(os.Args[0], "-test.run=^TestFlowTableResidency$", "-test.count=1", "-test.v", residencyChild).CombinedOutput()
		if err != nil {
			t.Fatalf("%v\n%s", err, out)
		}
		t.Logf("%s", out)
		return
	}
	const capacity, flows = 65535, 1024
	var tab *nat.FlowTable
	t.Run("construction", func(t *testing.T) {
		// The collector's first cycle, which the allocations would start,
		// makes ~500 KB of its own memory resident.
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
	})
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
		runtime.GC() // the runtime's own growth after a large allocation settles first
		before := vmRSS(t)
		for i, k := range keys {
			if _, ok := tab.Add(k, libvig.Time(i)); !ok {
				t.Fatalf("flow %d refused", i)
			}
		}
		grew := vmRSS(t) - before
		// Besides the slot pages, each index writes its record, both
		// hashes' cell, its chain links, stamp and flags, and its guard:
		// under 64 bytes, all of them at the low indices the chain hands
		// out first.
		lo, hi := len(homes)*page*8/10, len(homes)*page+flows*64+128<<10
		if grew < lo || grew > hi {
			t.Fatalf("%d flows grew VmRSS by %d KB, want %d–%d KB (%d slot pages)", flows, grew>>10, lo>>10, hi>>10, len(homes))
		}
		t.Logf("%d flows grew VmRSS by %d KB (%d slot pages of %d)", flows, grew>>10, len(homes), slots*libvig.SlotBytes/page)
		if hw := tab.HighWater(); hw != flows {
			t.Fatalf("high water %d after %d flows", hw, flows)
		}
	})
}
