package nat

import (
	"fmt"

	"vignat/internal/flow"
	"vignat/internal/libvig"
	"vignat/internal/nf/nfkit"
)

// FlowTable is the NAT's view of the kit's flow table (keyed by the
// internal 5-tuple and, by index, the external one): it adds only the
// port arithmetic. The flow at index i owns external port portBase+i,
// as in VigNAT's flow manager (start_port + index), so a port is free
// exactly when its index is, no allocator hands it out, and an external
// key is resolved by subtracting portBase.
type FlowTable struct {
	*nfkit.FlowTable[flow.Flow]
	extIP    flow.Addr
	portBase uint16
}

// NewFlowTable builds a flow table for capacity flows behind extIP,
// owning the external ports [portBase, portBase+capacity) — one port
// per possible flow, as in VigNAT where the port space bounds the flow
// space — which must end within the 16-bit port space (ErrPortRange).
func NewFlowTable(capacity int, extIP flow.Addr, portBase uint16) (*FlowTable, error) {
	if int(portBase)+capacity > 1<<16 {
		return nil, fmt.Errorf("nat: flow table ports: %w", libvig.ErrPortRange)
	}
	t, err := nfkit.NewIndexedFlowTable(capacity, true,
		func(f *flow.Flow) flow.ID { return f.IntKey },
		func(f *flow.Flow) flow.ID { return f.ExtKey },
		func(ext flow.ID) int { return int(ext.DstPort) - int(portBase) },
	)
	if err != nil {
		return nil, fmt.Errorf("nat: %w", err)
	}
	return &FlowTable{FlowTable: t, extIP: extIP, portBase: portBase}, nil
}

// LookupInt finds the flow whose internal-side key matches id.
func (t *FlowTable) LookupInt(id flow.ID) (int, bool) { return t.LookupFst(id, id.Hash()) }

// Add creates a flow for internal-side key intKey at time now, allocating
// an index and with it the external port portBase+index. ok is false
// when the table is full.
func (t *FlowTable) Add(intKey flow.ID, now libvig.Time) (idx int, ok bool) {
	return t.AddHashed(intKey, intKey.Hash(), now)
}

// AddHashed is Add for a caller that holds h = intKey.Hash() — the hash
// the lookup that missed just used.
func (t *FlowTable) AddHashed(intKey flow.ID, h uint64, now libvig.Time) (idx int, ok bool) {
	if idx, ok = t.Reserve(now); ok {
		ok = t.Put(idx, flow.MakeFlow(intKey, t.extIP, t.portBase+uint16(idx)), h)
	}
	return idx, ok
}
