package nat

import (
	"fmt"

	"vignat/internal/flow"
	"vignat/internal/libvig"
)

// FlowTable is the paper's flow table: the composition of a double-keyed
// map (which flow lives where) and a double chain (which index is live
// and how stale). The same index identifies a flow in both, and names
// its external port: the flow at index i owns port portBase+i, as in
// VigNAT's flow manager (start_port + index). A port is therefore free
// exactly when its index is, no allocator hands it out, and an external
// key is resolved by subtracting portBase — the map files flows under
// their internal key only.
type FlowTable struct {
	dmap     *libvig.DoubleMap[flow.ID, flow.ID, flow.Flow]
	chain    *libvig.DChain
	extIP    flow.Addr
	portBase uint16
	// erasers is built once so the per-packet expiry path is
	// allocation-free.
	erasers []libvig.IndexEraser
	// eraseHook, when set, observes every successful flow erasure
	// (expiry and administrative removal alike) — the NAT wires the
	// engine flow-cache invalidation here.
	eraseHook func(i int)
}

// NewFlowTable builds a flow table for capacity flows behind extIP,
// owning the external ports [portBase, portBase+capacity) — one port
// per possible flow, as in VigNAT where the port space bounds the flow
// space — which must end within the 16-bit port space (ErrPortRange).
func NewFlowTable(capacity int, extIP flow.Addr, portBase uint16) (*FlowTable, error) {
	if int(portBase)+capacity > 1<<16 {
		return nil, fmt.Errorf("nat: flow table ports: %w", libvig.ErrPortRange)
	}
	dm, err := libvig.NewIndexedDoubleMap[flow.ID, flow.ID, flow.Flow](
		capacity,
		func(f *flow.Flow) flow.ID { return f.IntKey },
		func(f *flow.Flow) flow.ID { return f.ExtKey },
		func(ext flow.ID) int { return int(ext.DstPort) - int(portBase) },
	)
	if err != nil {
		return nil, fmt.Errorf("nat: flow table dmap: %w", err)
	}
	ch, err := libvig.NewDChain(capacity)
	if err != nil {
		return nil, fmt.Errorf("nat: flow table chain: %w", err)
	}
	t := &FlowTable{dmap: dm, chain: ch, extIP: extIP, portBase: portBase}
	t.erasers = []libvig.IndexEraser{libvig.IndexEraserFunc(t.eraseIndex)}
	return t, nil
}

// eraseIndex tears down the table entry of flow i, and with it the
// flow's hold on port portBase+i. It is the eraser the expirator
// invokes.
func (t *FlowTable) eraseIndex(i int) error {
	if err := t.dmap.Erase(i); err != nil {
		return err
	}
	if t.eraseHook != nil {
		t.eraseHook(i)
	}
	return nil
}

// SetEraseHook registers fn to run after every successful flow erasure
// with the freed index. At most one hook; nil clears it.
func (t *FlowTable) SetEraseHook(fn func(i int)) { t.eraseHook = fn }

// Capacity returns CAP.
func (t *FlowTable) Capacity() int { return t.dmap.Capacity() }

// Size returns the number of live flows.
func (t *FlowTable) Size() int { return t.dmap.Size() }

// ExternalIP returns EXT_IP.
func (t *FlowTable) ExternalIP() flow.Addr { return t.extIP }

// Expire removes every flow whose last activity is strictly older than
// deadline, releasing its table slot and external port. It returns the
// number of expired flows. This is Fig. 6's expire_flows.
func (t *FlowTable) Expire(deadline libvig.Time) int {
	n, _ := libvig.ExpireItems(t.chain, deadline, t.erasers...)
	return n
}

// LookupInt finds the flow whose internal-side key matches id.
func (t *FlowTable) LookupInt(id flow.ID) (int, bool) { return t.dmap.GetByFst(id) }

// LookupExt finds the flow whose external-side key matches id.
func (t *FlowTable) LookupExt(id flow.ID) (int, bool) { return t.dmap.GetBySnd(id) }

// LookupIntHashed is LookupInt for a caller that holds h = id.Hash().
func (t *FlowTable) LookupIntHashed(id flow.ID, h uint64) (int, bool) {
	return t.dmap.GetByFstHashed(id, h)
}

// LookupExtHashed is LookupExt for a caller that holds h = id.Hash().
func (t *FlowTable) LookupExtHashed(id flow.ID, h uint64) (int, bool) {
	return t.dmap.GetBySndHashed(id, h)
}

// Flow returns the flow stored at index i (nil if free). The pointee is
// owned by the table; callers must not retain it across Expire/Remove.
func (t *FlowTable) Flow(i int) *flow.Flow { return t.dmap.Value(i) }

// Rejuvenate refreshes flow i's activity timestamp (Fig. 6 ll.11-12).
func (t *FlowTable) Rejuvenate(i int, now libvig.Time) error {
	return t.chain.Rejuvenate(i, now)
}

// LastActivity returns flow i's last-touch time.
func (t *FlowTable) LastActivity(i int) (libvig.Time, error) {
	return t.chain.Timestamp(i)
}

// Add creates a flow for internal-side key intKey at time now, allocating
// an index and with it the external port portBase+index. ok is false
// when the table is full. This is Fig. 6 ll.14-17.
func (t *FlowTable) Add(intKey flow.ID, now libvig.Time) (idx int, ok bool) {
	return t.AddHashed(intKey, intKey.Hash(), now)
}

// AddHashed is Add for a caller that holds h = intKey.Hash() — the hash
// the lookup that missed just used.
func (t *FlowTable) AddHashed(intKey flow.ID, h uint64, now libvig.Time) (idx int, ok bool) {
	idx, err := t.chain.Allocate(now)
	if err != nil {
		return 0, false
	}
	f := flow.MakeFlow(intKey, t.extIP, t.portBase+uint16(idx))
	if err := t.dmap.PutFstHashed(idx, f, h); err != nil {
		// Key collision: e.g. a retransmitted first packet racing an
		// existing flow is impossible (lookup precedes add), but an
		// internal key equal to an existing one must not corrupt the
		// table. Roll back.
		_ = t.chain.Free(idx)
		return 0, false
	}
	return idx, true
}

// Restore re-creates a migrated flow at the index its external port
// names, at its original stamp (the shard codec replays records in
// stamp order, so the chain contract's monotonicity holds). A port
// outside this shard's range is refused with ErrPortRange and one a
// live flow holds with ErrPortBusy; a refused restore leaves chain and
// table as they were. No creation counter moves: a migrated flow was
// created once, on the shard it came from.
func (t *FlowTable) Restore(intKey flow.ID, extPort uint16, stamp libvig.Time) error {
	idx := int(extPort) - int(t.portBase)
	if idx < 0 || idx >= t.Capacity() {
		return libvig.ErrPortRange
	}
	if t.chain.IsAllocated(idx) {
		return libvig.ErrPortBusy
	}
	if err := t.chain.AllocateIndex(idx, stamp); err != nil {
		return err
	}
	if err := t.dmap.Put(idx, flow.MakeFlow(intKey, t.extIP, extPort)); err != nil {
		_ = t.chain.Free(idx)
		return err
	}
	return nil
}

// Remove deletes flow i regardless of age (administrative removal; also
// used by extensions like TCP RST/FIN tracking).
func (t *FlowTable) Remove(i int) error {
	if err := t.eraseIndex(i); err != nil {
		return err
	}
	return t.chain.Free(i)
}

// ForEach visits every live flow with its index and last activity.
func (t *FlowTable) ForEach(fn func(i int, f *flow.Flow, last libvig.Time) bool) {
	t.dmap.ForEach(func(i int, f *flow.Flow) bool {
		ts, _ := t.chain.Timestamp(i)
		return fn(i, f, ts)
	})
}
