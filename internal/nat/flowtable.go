package nat

import (
	"fmt"
	"unsafe"

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
//
// A record is the flow's internal 5-tuple and nothing else: its
// external key — the remote endpoint and protocol the internal key
// holds, extIP and port portBase+i — is derived wherever it is needed,
// so it cannot disagree with the index it came from. Flow gives the
// whole flow.Flow view of a record, which is also what a flow migrates
// as.
type FlowTable struct {
	*nfkit.FlowTable[flow.ID]
	extIP    flow.Addr
	portBase uint16
}

// A NAT record is 16 bytes; either line fails to compile when it grows
// or shrinks.
const (
	_ = uint(16 - unsafe.Sizeof(flow.ID{}))
	_ = uint(unsafe.Sizeof(flow.ID{}) - 16)
)

// NewFlowTable builds a flow table for capacity flows behind extIP,
// owning the external ports [portBase, portBase+capacity) — one port
// per possible flow, as in VigNAT where the port space bounds the flow
// space — which must end within the 16-bit port space (ErrPortRange).
func NewFlowTable(capacity int, extIP flow.Addr, portBase uint16) (*FlowTable, error) {
	if int(portBase)+capacity > 1<<16 {
		return nil, fmt.Errorf("nat: flow table ports: %w", libvig.ErrPortRange)
	}
	t, err := nfkit.NewIndexedFlowTable(capacity, true,
		func(id *flow.ID) flow.ID { return *id },
		func(i int, id *flow.ID) flow.ID { return flow.MakeFlow(*id, extIP, portBase+uint16(i)).ExtKey },
		func(ext flow.ID) int { return int(ext.DstPort) - int(portBase) },
	)
	if err != nil {
		return nil, fmt.Errorf("nat: %w", err)
	}
	return &FlowTable{FlowTable: t, extIP: extIP, portBase: portBase}, nil
}

// extPort is the external port of the flow at index i.
func (t *FlowTable) extPort(i int) uint16 { return t.portBase + uint16(i) }

// Flow returns the flow at index i, both keys, or false if i holds none.
func (t *FlowTable) Flow(i int) (flow.Flow, bool) {
	id := t.Value(i)
	if id == nil {
		return flow.Flow{}, false
	}
	return flow.MakeFlow(*id, t.extIP, t.extPort(i)), true
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
	return t.FlowTable.Add(intKey, h, now)
}

// Restore re-creates migrated flow f at its original stamp, at the index
// its external port names, or changes nothing: f not a flow of this
// table's external IP (flow.Flow.Consistent), its port outside the
// table's range or held, its internal key present.
func (t *FlowTable) Restore(f flow.Flow, stamp libvig.Time) error {
	if !f.Consistent(t.extIP) {
		return fmt.Errorf("nat: flow %v is not a flow behind %v", &f, t.extIP)
	}
	return t.RestoreAt(int(f.ExtPort())-int(t.portBase), f.IntKey, stamp)
}
