package dpdk

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"testing"
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

// collect runs the collector until the finalizers of everything
// unreachable when it was called have run, so the slabs of dropped pools
// are unmapped, and returns the free heap to the kernel (see the libvig
// residency tests).
func collect() {
	for range 2 {
		done := make(chan struct{})
		runtime.SetFinalizer(&struct{ p *int }{}, func(*struct{ p *int }) { close(done) })
		runtime.GC()
		<-done
	}
	debug.FreeOSMemory()
}

// TestMempoolResidency (Linux only; skipped under the race detector,
// whose shadow memory grows with every byte written):
//
//   - construction: NewMempool(4096), the daemon's pool, grows VmRSS by
//     under 1 MB — it writes headers only, and its 8.6 MB of data rooms
//     stay unbacked;
//   - lifo: k mbufs allocated, each written over its whole room, then
//     freed in LIFO order make about k rooms resident, further rounds of
//     the same depth reuse exactly those rooms, and HighWater is k;
//   - rebuild: the pool dropped and collected, a second one grows VmRSS
//     by under 1 MB too. Its slab is a fresh mapping, so nothing clears
//     memory a heap would hand out a second time (which faulted every
//     room in).
func TestMempoolResidency(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("resident-set checks read /proc/self/status (Linux only)")
	}
	if raceEnabled {
		t.Skip("the race detector's shadow memory is resident too, and its slabs stay on the heap")
	}
	const n, k, rounds = 4096, 1024, 4
	var p *Mempool
	build := func(t *testing.T) {
		before := vmRSS(t)
		var err error
		if p, err = NewMempool(n); err != nil {
			t.Fatal(err)
		}
		grew := vmRSS(t) - before
		if grew >= 1<<20 {
			t.Fatalf("NewMempool(%d) grew VmRSS by %d KB; its rooms were faulted in at construction", n, grew>>10)
		}
		t.Logf("NewMempool(%d) grew VmRSS by %d KB", n, grew>>10)
	}
	collect()
	t.Run("construction", build)
	t.Run("lifo", func(t *testing.T) {
		if p == nil {
			t.Skip("no pool was built")
		}
		full := bytes.Repeat([]byte{0xa5}, DataRoomSize)
		held := make([]*Mbuf, k)
		collect() // the runtime's own growth after a large allocation settles first
		before := vmRSS(t)
		var first int
		for r := 0; r < rounds; r++ {
			for i := range held {
				if held[i] = p.Alloc(); held[i] == nil {
					t.Fatalf("round %d: pool exhausted at %d", r, i)
				}
				if err := held[i].SetFrame(full); err != nil {
					t.Fatal(err)
				}
			}
			for i := k - 1; i >= 0; i-- {
				if err := p.Free(held[i]); err != nil {
					t.Fatal(err)
				}
			}
			if r == 0 {
				first = vmRSS(t) - before
			}
		}
		want := k * roomStride
		if first < want*8/10 || first > want*5/4 {
			t.Fatalf("%d rooms written grew VmRSS by %d KB, want about %d KB", k, first>>10, want>>10)
		}
		again := vmRSS(t) - before - first
		if again > 1<<20 {
			t.Fatalf("rounds 2–%d at the same depth grew VmRSS by another %d KB; the pool did not reuse its top rooms", rounds, again>>10)
		}
		t.Logf("%d rooms written grew VmRSS by %d KB (%d KB of rooms), %d more rounds by %d KB", k, first>>10, want>>10, rounds-1, again>>10)
		if hw := p.HighWater(); hw != k {
			t.Fatalf("high water %d after rounds of %d", hw, k)
		}
	})
	t.Run("rebuild", func(t *testing.T) {
		p = nil
		collect()
		build(t)
	})
}

// TestRoomCapacityIsDataRoomSize: every room, and every frame set in
// one, ends where its room ends, so an append past it reallocates
// instead of running into the next room of the slab.
func TestRoomCapacityIsDataRoomSize(t *testing.T) {
	p, err := NewMempool(64)
	if err != nil {
		t.Fatal(err)
	}
	for m := p.Alloc(); m != nil; m = p.Alloc() {
		if len(m.Room()) != DataRoomSize || cap(m.Room()) != DataRoomSize {
			t.Fatalf("room len %d cap %d, want %d", len(m.Room()), cap(m.Room()), DataRoomSize)
		}
		if err := m.SetFrame(make([]byte, 60)); err != nil {
			t.Fatal(err)
		}
		if cap(m.Data) != DataRoomSize {
			t.Fatalf("frame cap %d, want %d", cap(m.Data), DataRoomSize)
		}
	}
}

// TestFullRoomWriteStaysInItsRoom: filling every room of a pool to the
// last byte, each with its own pattern, leaves every other room as it
// was.
func TestFullRoomWriteStaysInItsRoom(t *testing.T) {
	const n = 8
	p, err := NewMempool(n)
	if err != nil {
		t.Fatal(err)
	}
	ms := make([]*Mbuf, n)
	for i := range ms {
		ms[i] = p.Alloc()
		if err := ms[i].SetFrame(bytes.Repeat([]byte{byte(i + 1)}, DataRoomSize)); err != nil {
			t.Fatal(err)
		}
	}
	for i, m := range ms {
		if bytes.Count(m.Room(), []byte{byte(i + 1)}) != DataRoomSize {
			t.Fatalf("room %d was overwritten by a neighbour's full-room write", i)
		}
	}
	if hw := p.HighWater(); hw != n {
		t.Fatalf("high water %d with all %d mbufs out", hw, n)
	}
}

// TestHighWaterReadUnderTraffic: while the pool's one writer checks out
// ever deeper runs of mbufs, another goroutine reads the high-water mark
// (as /metrics does); it never sees the mark fall, and the mark ends at
// the deepest run.
func TestHighWaterReadUnderTraffic(t *testing.T) {
	const n = 64
	p, err := NewMempool(n)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		held := make([]*Mbuf, 0, n)
		for depth := 1; depth <= n; depth++ {
			for range depth {
				held = append(held, p.Alloc())
			}
			for _, m := range held {
				if err := p.Free(m); err != nil {
					t.Error(err)
					return
				}
			}
			held = held[:0]
		}
	}()
	for last, running := 0, true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		hw := p.HighWater()
		if hw < last {
			t.Fatalf("high water fell from %d to %d", last, hw)
		}
		last = hw
	}
	if hw := p.HighWater(); hw != n {
		t.Fatalf("high water %d after runs up to %d deep", hw, n)
	}
}
