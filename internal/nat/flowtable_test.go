package nat

import (
	"errors"
	"testing"

	"vignat/internal/flow"
	"vignat/internal/libvig"
)

var tExtIP = flow.MakeAddr(198, 18, 1, 1)

func intKey(i int) flow.ID {
	return flow.ID{
		SrcIP:   flow.MakeAddr(10, 0, 0, byte(1+i%200)),
		SrcPort: uint16(10000 + i),
		DstIP:   flow.MakeAddr(8, 8, 8, 8),
		DstPort: 53,
		Proto:   flow.UDP,
	}
}

// lastActivity reads flow idx's stamp off the table's walk.
func lastActivity(ft *FlowTable, idx int) (ts libvig.Time) {
	ft.ForEach(func(i int, _ *flow.ID, last libvig.Time) bool {
		ts = last
		return i != idx
	})
	return ts
}

func TestFlowTableAddLookup(t *testing.T) {
	ft, err := NewFlowTable(8, tExtIP, 1000)
	if err != nil {
		t.Fatal(err)
	}
	idx, ok := ft.Add(intKey(1), 100)
	if !ok {
		t.Fatal("add failed")
	}
	if got, ok := ft.LookupInt(intKey(1)); !ok || got != idx {
		t.Fatalf("LookupInt: %d %v", got, ok)
	}
	f, ok := ft.Flow(idx)
	if !ok || f.IntKey != intKey(1) {
		t.Fatalf("Flow: %v %v", &f, ok)
	}
	if got, ok := ft.LookupSnd(f.ExtKey, 0); !ok || got != idx {
		t.Fatalf("LookupExt: %d %v", got, ok)
	}
	if !f.Consistent(tExtIP) {
		t.Fatalf("inconsistent stored flow: %v", &f)
	}
	if ts := lastActivity(ft, idx); ts != 100 {
		t.Fatalf("last activity %d", ts)
	}
}

func TestFlowTableCapacity(t *testing.T) {
	ft, _ := NewFlowTable(3, tExtIP, 1000)
	for i := 0; i < 3; i++ {
		if _, ok := ft.Add(intKey(i), 1); !ok {
			t.Fatalf("add %d failed", i)
		}
	}
	if _, ok := ft.Add(intKey(9), 1); ok {
		t.Fatal("add beyond capacity succeeded")
	}
	if ft.Size() != 3 {
		t.Fatalf("size %d", ft.Size())
	}
}

func TestFlowTableExpireReleasesEverything(t *testing.T) {
	ft, _ := NewFlowTable(4, tExtIP, 1000)
	idx, _ := ft.Add(intKey(0), 10)
	f, _ := ft.Flow(idx)
	extKey, port := f.ExtKey, f.ExtPort()
	n := ft.Expire(11)
	if n != 1 {
		t.Fatalf("expired %d", n)
	}
	if ft.Size() != 0 {
		t.Fatal("flow survived expiry")
	}
	if _, ok := ft.LookupInt(intKey(0)); ok {
		t.Fatal("internal key survived expiry")
	}
	if _, ok := ft.LookupSnd(extKey, 0); ok {
		t.Fatal("external key survived expiry")
	}
	// The port must be free again: the table can host a new flow that
	// may receive the same port.
	idx2, ok := ft.Add(intKey(1), 20)
	if !ok {
		t.Fatal("add after expiry failed")
	}
	if f, _ := ft.Flow(idx2); f.ExtPort() != port {
		// LIFO reuse should hand the same port back immediately.
		t.Fatalf("expected port %d reuse, got %d", port, f.ExtPort())
	}
}

func TestFlowTableRejuvenatePreventsExpiry(t *testing.T) {
	ft, _ := NewFlowTable(4, tExtIP, 1000)
	idx, _ := ft.Add(intKey(0), 10)
	if err := ft.Rejuvenate(idx, 50); err != nil {
		t.Fatal(err)
	}
	if n := ft.Expire(30); n != 0 {
		t.Fatal("rejuvenated flow expired")
	}
	if n := ft.Expire(51); n != 1 {
		t.Fatal("flow not expired after rejuvenated timestamp passed")
	}
}

func TestFlowTableRemove(t *testing.T) {
	ft, _ := NewFlowTable(4, tExtIP, 1000)
	idx, _ := ft.Add(intKey(0), 10)
	if err := ft.Remove(idx); err != nil {
		t.Fatal(err)
	}
	if ft.Size() != 0 {
		t.Fatal("remove failed")
	}
	if err := ft.Remove(idx); err == nil {
		t.Fatal("double remove accepted")
	}
}

func TestFlowTableDuplicateAddFails(t *testing.T) {
	ft, _ := NewFlowTable(4, tExtIP, 1000)
	if _, ok := ft.Add(intKey(0), 10); !ok {
		t.Fatal("first add failed")
	}
	// Adding the same internal key again must fail cleanly (the
	// stateless code always looks up first, but the table must defend
	// its own invariant) and must not leak its allocations.
	if _, ok := ft.Add(intKey(0), 11); ok {
		t.Fatal("duplicate internal key accepted")
	}
	if ft.Size() != 1 {
		t.Fatalf("size %d after duplicate add", ft.Size())
	}
	// Capacity must not be consumed by the failed add: fill the rest.
	for i := 1; i < 4; i++ {
		if _, ok := ft.Add(intKey(i), 12); !ok {
			t.Fatalf("add %d failed: leaked index or port", i)
		}
	}
}

// TestFlowTableInvariant is the implementation-side check of the P5
// contract invariant: every stored flow is consistent, behind EXT_IP,
// with an in-range, unique external port — the port its index names —
// and is found from outside by exactly its external key.
func TestFlowTableInvariant(t *testing.T) {
	const cap = 128
	ft, _ := NewFlowTable(cap, tExtIP, 1000)
	now := libvig.Time(0)
	for i := 0; i < cap; i++ {
		now++
		if _, ok := ft.Add(intKey(i), now); !ok {
			t.Fatalf("add %d", i)
		}
	}
	// Expire half, add some more, rejuvenate a few.
	ft.Expire(now - int64(cap)/2)
	for i := cap; i < cap+30; i++ {
		now++
		ft.Add(intKey(i), now)
	}
	ports := map[uint16]bool{}
	ft.ForEach(func(i int, _ *flow.ID, last libvig.Time) bool {
		f, _ := ft.Flow(i)
		if !f.Consistent(tExtIP) {
			t.Errorf("flow %d inconsistent: %v", i, &f)
		}
		p := f.ExtPort()
		if int(p) != 1000+i {
			t.Errorf("flow %d holds port %d, its index names %d", i, p, 1000+i)
		}
		if ports[p] {
			t.Errorf("port %d assigned twice", p)
		}
		ports[p] = true
		if got, ok := ft.LookupSnd(f.ExtKey, 0); !ok || got != i {
			t.Errorf("flow %d: LookupExt of its own key: (%d, %v)", i, got, ok)
		}
		// The port alone finds the slot; only the whole key finds the flow.
		for what, change := range map[string]func(*flow.ID){
			"remote IP":   func(k *flow.ID) { k.SrcIP++ },
			"remote port": func(k *flow.ID) { k.SrcPort++ },
			"protocol":    func(k *flow.ID) { k.Proto = flow.TCP },
			"external IP": func(k *flow.ID) { k.DstIP++ },
		} {
			k := f.ExtKey
			change(&k)
			if got, ok := ft.LookupSnd(k, 0); ok {
				t.Errorf("flow %d: a key differing in %s found index %d", i, what, got)
			}
		}
		return true
	})
	// Ports no live flow holds, in range and on both sides of it.
	for _, p := range []uint16{0, 999, 1000 + cap, 65535} {
		if got, ok := ft.LookupSnd(flow.ID{SrcIP: flow.MakeAddr(8, 8, 8, 8), DstIP: tExtIP, SrcPort: 53, DstPort: p, Proto: flow.UDP}, 0); ok {
			t.Errorf("port %d outside the range found index %d", p, got)
		}
	}
}

// TestFlowTableExpiredPortsReturnLIFO: the port a flow is handed is the
// one its chain index names, so the quarantine a reused port gets is
// the chain's — an index is only free again Texp after its flow's last
// packet — and a burst that expires and then creates hands the ports
// back newest-freed first.
func TestFlowTableExpiredPortsReturnLIFO(t *testing.T) {
	const cap = 8
	ft, _ := NewFlowTable(cap, tExtIP, 1000)
	for i := 0; i < cap; i++ {
		if _, ok := ft.Add(intKey(i), libvig.Time(i)); !ok {
			t.Fatalf("add %d", i)
		}
	}
	if _, ok := ft.Add(intKey(99), cap); ok {
		t.Fatal("full table accepted a flow")
	}
	if n := ft.Expire(3); n != 3 { // flows 0, 1, 2, oldest first
		t.Fatalf("expired %d flows, want 3", n)
	}
	for n, want := range []uint16{1002, 1001, 1000} {
		idx, ok := ft.Add(intKey(100+n), libvig.Time(cap+n))
		if !ok {
			t.Fatalf("add %d after expiry failed", n)
		}
		if f, _ := ft.Flow(idx); f.ExtPort() != want {
			t.Fatalf("flow %d after the sweep got port %d, want %d", n, f.ExtPort(), want)
		}
	}
	if _, ok := ft.Add(intKey(200), 2*cap); ok {
		t.Fatal("full table accepted a flow")
	}
}

// TestFlowTablePortRange: the table owns [portBase, portBase+capacity),
// which must fit the port space, and Restore claims exactly the index a
// port names — or nothing.
func TestFlowTablePortRange(t *testing.T) {
	if _, err := NewFlowTable(8, tExtIP, 65529); !errors.Is(err, libvig.ErrPortRange) {
		t.Fatalf("ports 65529…65536 accepted: %v", err)
	}
	ft, err := NewFlowTable(8, tExtIP, 65528)
	if err != nil {
		t.Fatalf("ports 65528…65535 refused: %v", err)
	}
	idx, ok := ft.Add(intKey(0), 10)
	if f, _ := ft.Flow(idx); !ok || f.ExtPort() != 65528 {
		t.Fatalf("first flow: index %d ok %v", idx, ok)
	}
	for _, tc := range []struct {
		name string
		key  flow.ID
		port uint16
		want error
	}{
		{"below the range", intKey(1), 65527, libvig.ErrChainRange},
		{"far below the range", intKey(1), 1, libvig.ErrChainRange},
		{"held by a live flow", intKey(1), 65528, libvig.ErrChainBusy},
		{"duplicate internal key", intKey(0), 65530, libvig.ErrMapDupKey},
	} {
		if err := ft.Restore(flow.MakeFlow(tc.key, tExtIP, tc.port), 20); !errors.Is(err, tc.want) {
			t.Fatalf("restore %s: %v, want %v", tc.name, err, tc.want)
		}
		if ft.Size() != 1 {
			t.Fatalf("restore %s left a mark: table holds %d", tc.name, ft.Size())
		}
		if err := ft.CheckInvariant(); err != nil {
			t.Fatalf("restore %s: %v", tc.name, err)
		}
	}
	if err := ft.Restore(flow.MakeFlow(intKey(1), tExtIP, 65535), 20); err != nil {
		t.Fatalf("restore at the last port: %v", err)
	}
	f, ok := ft.Flow(7)
	if !ok || f.IntKey != intKey(1) || f.ExtPort() != 65535 {
		t.Fatalf("restored flow not at the index its port names: %v", &f)
	}
	if got, ok := ft.LookupSnd(f.ExtKey, 0); !ok || got != 7 {
		t.Fatalf("LookupExt of the restored flow: (%d, %v)", got, ok)
	}
	if ts := lastActivity(ft, 7); ts != 20 {
		t.Fatalf("restored stamp %d", ts)
	}
	// A table above the range of a small one: ports past the end.
	small, _ := NewFlowTable(4, tExtIP, 1000)
	if err := small.Restore(flow.MakeFlow(intKey(2), tExtIP, 1004), 1); !errors.Is(err, libvig.ErrChainRange) {
		t.Fatalf("restore past the range: %v", err)
	}
}
