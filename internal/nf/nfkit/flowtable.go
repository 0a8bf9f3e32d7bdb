package nfkit

import (
	"fmt"

	"vignat/internal/fastpath"
	"vignat/internal/flow"
	"vignat/internal/libvig"
	"vignat/internal/nf"
)

// FlowTable is the paper's flow table (§5.1), written once for every NF
// that keeps one: a double-keyed map saying which flow lives at which
// index, a double chain saying which indices are live and how stale,
// the generation table that kills a cached verdict the moment its
// index is erased.
// V is the stored record, pointer-free (libvig.Make); its first key is
// the flow's 5-tuple as seen from one side, its second the same flow's
// as seen from the other. Each flow is stored once: a record holds
// what its keys cannot be derived from and no more — the second key is
// a function of the record (the firewall's reverses the first) or, in
// an indexed table, of the record and its index (the NAT's external
// port is its index's).
// Every way a record dies goes through erase, which bumps its index's
// generation: "erased ⇒ cached verdicts dead" holds by construction.
// Add, Restore and RestoreAt, the ways one is born, bump the creation
// epoch, the guard of a cached miss.
type FlowTable[V any] struct {
	m     *libvig.DoubleMap[flow.ID, flow.ID, V]
	chain *libvig.DChain
	// gens[i] guards index i; gens[Capacity()] is the creation epoch.
	gens *fastpath.GenTable
	// fstInternal: the first key is the internal side's view.
	fstInternal bool
	// erasers is built once so the per-packet expiry allocates nothing.
	erasers []libvig.IndexEraser
}

// NewFlowTable builds a table of capacity records, both keys hashed.
func NewFlowTable[V any](capacity int, fstInternal bool, fst, snd func(*V) flow.ID) (*FlowTable[V], error) {
	m, err := libvig.NewDoubleMap[flow.ID, flow.ID, V](capacity, fst, snd)
	return newFlowTable(m, err, fstInternal)
}

// NewIndexedFlowTable builds a table whose second key is derived from
// the index its record lives at (libvig.NewIndexedDoubleMap): snd(i, v)
// is the second key of record v at index i, and index(snd(i, v)) = i.
// A record gets its key from the index Add hands out, and migrates
// with it (RestoreAt).
func NewIndexedFlowTable[V any](capacity int, fstInternal bool, fst func(*V) flow.ID, snd func(i int, v *V) flow.ID, index func(flow.ID) int) (*FlowTable[V], error) {
	m, err := libvig.NewIndexedDoubleMap[flow.ID, flow.ID, V](capacity, fst, snd, index)
	return newFlowTable(m, err, fstInternal)
}

func newFlowTable[V any](m *libvig.DoubleMap[flow.ID, flow.ID, V], err error, fstInternal bool) (*FlowTable[V], error) {
	if err != nil {
		return nil, fmt.Errorf("flow table map: %w", err)
	}
	chain, err := libvig.NewDChain(m.Capacity())
	if err != nil {
		return nil, fmt.Errorf("flow table chain: %w", err)
	}
	t := &FlowTable[V]{m: m, chain: chain, fstInternal: fstInternal,
		gens: fastpath.NewGenTable(m.Capacity() + 1)}
	t.erasers = []libvig.IndexEraser{libvig.IndexEraserFunc(t.erase)}
	return t, nil
}

// erase is the one erasure path: the expirator's eraser and Remove's.
func (t *FlowTable[V]) erase(i int) error {
	if err := t.m.Erase(i); err != nil {
		return err
	}
	t.gens.Bump(i)
	return nil
}

// Capacity returns the number of records the table can hold.
func (t *FlowTable[V]) Capacity() int { return t.m.Capacity() }

// Size returns the number of live records.
func (t *FlowTable[V]) Size() int { return t.m.Size() }

// HighWater returns how many of the table's indices have ever been
// handed out (libvig.DChain.HighWater): only their records have ever
// been written. It may be called from any goroutine.
func (t *FlowTable[V]) HighWater() int { return t.chain.HighWater() }

// Value returns the table's own record at index i (nil if free): not to
// be kept across Expire/Remove, its keys not to be changed.
func (t *FlowTable[V]) Value(i int) *V { return t.m.Value(i) }

// LookupFst finds the record whose first key is id, h = id.Hash().
func (t *FlowTable[V]) LookupFst(id flow.ID, h uint64) (int, bool) { return t.m.GetByFstHashed(id, h) }

// LookupSnd is LookupFst by second key (an indexed table ignores h).
func (t *FlowTable[V]) LookupSnd(id flow.ID, h uint64) (int, bool) { return t.m.GetBySndHashed(id, h) }

// Add creates record v at time now, under first-key hash h (Fig. 6
// ll.14-17): it allocates an index, stamped now, and files v there —
// or, refused by the map, releases the index. ok is false, and nothing
// has changed, when the table is full or holds the key.
func (t *FlowTable[V]) Add(v V, h uint64, now libvig.Time) (idx int, ok bool) {
	idx, err := t.chain.Allocate(now)
	if err != nil {
		return idx, false
	}
	if t.m.PutFstHashed(idx, v, h) != nil {
		_ = t.chain.Free(idx)
		return idx, false
	}
	t.gens.Bump(t.Capacity())
	return idx, true
}

// Restore re-creates a migrated record at its original stamp, at the
// next free index, or changes nothing (the table full, a key present).
// RestoreAt does the same at index idx, or changes nothing (idx out of
// range or held, a key present): an indexed table's records go back to
// the index their second key was derived from. Records must arrive in
// stamp order, as the chain's contract demands of any allocation.
func (t *FlowTable[V]) Restore(v V, stamp libvig.Time) error {
	idx, err := t.chain.Allocate(stamp)
	if err != nil {
		return err
	}
	return t.restore(idx, v)
}

func (t *FlowTable[V]) RestoreAt(idx int, v V, stamp libvig.Time) error {
	if err := t.chain.AllocateIndex(idx, stamp); err != nil {
		return err
	}
	return t.restore(idx, v)
}

func (t *FlowTable[V]) restore(idx int, v V) error {
	if err := t.m.Put(idx, v); err != nil {
		_ = t.chain.Free(idx)
		return err
	}
	t.gens.Bump(t.Capacity())
	return nil
}

// Rejuvenate refreshes record i's last-activity stamp (Fig. 6 ll.11-12).
func (t *FlowTable[V]) Rejuvenate(i int, now libvig.Time) error { return t.chain.Rejuvenate(i, now) }

// Expire removes every record last active strictly before deadline and
// returns how many: Fig. 6's expire_flows.
func (t *FlowTable[V]) Expire(deadline libvig.Time) int {
	n, _ := libvig.ExpireItems(t.chain, deadline, t.erasers...)
	return n
}

// Remove deletes record i regardless of age.
func (t *FlowTable[V]) Remove(i int) error {
	if err := t.erase(i); err != nil {
		return err
	}
	return t.chain.Free(i)
}

// RemoveIf removes every record doomed holds of and returns how many.
func (t *FlowTable[V]) RemoveIf(doomed func(v *V) bool) (n int) {
	for i, _, ok := t.chain.Oldest(); ok; {
		next, _, more := t.chain.After(i)
		if doomed(t.m.Value(i)) && t.Remove(i) == nil {
			n++
		}
		i, ok = next, more
	}
	return n
}

// ForEach visits every live record, oldest first — the order Expire
// takes them in — with its index and last-activity stamp, until fn
// returns false. fn must not add or remove records.
func (t *FlowTable[V]) ForEach(fn func(i int, v *V, last libvig.Time) bool) {
	for i, ts, ok := t.chain.Oldest(); ok && fn(i, t.m.Value(i), ts); i, ts, ok = t.chain.After(i) {
	}
}

// CheckInvariant verifies the map's own invariant and that map and
// chain agree on which indices are live. For tests.
func (t *FlowTable[V]) CheckInvariant() error {
	for i := 0; i < t.Capacity(); i++ {
		if t.chain.IsAllocated(i) != t.m.Occupied(i) {
			return fmt.Errorf("flow table: index %d allocated=%v occupied=%v", i, t.chain.IsAllocated(i), t.m.Occupied(i))
		}
	}
	return t.m.CheckInvariant()
}

// Prefetch is its owner's Decl.Prefetch: from the parses the burst
// carries (nf.Pkt.Parsed, the adapter's) it starts the loads of (a) the
// home slots of the records the burst's first packet will expire at
// deadline — the one Fig. 6 sweep of the burst that frees anything —
// and (b) each packet's own home slot, in the map of the key its side
// sees (in an indexed table, the record the second key names).
func (t *FlowTable[V]) Prefetch(pkts []nf.Pkt, deadline libvig.Time) {
	t.m.PrefetchExpiring(t.chain, deadline, len(pkts))
	for i := range pkts {
		if p := pkts[i].Parsed; pkts[i].FromInternal == t.fstInternal {
			t.m.PrefetchFst(p.Hash)
		} else {
			t.m.PrefetchSnd(p.ID, p.Hash)
		}
	}
}

// A record's flow-cache handle (aux) is its index over two kind bits.
// AuxFst and AuxSnd say which key resolved it; an NF whose cache also
// holds stateless verdicts numbers their kinds from AuxStateless.
const (
	AuxFst uint64 = iota
	AuxSnd
	AuxStateless
	auxKindBits = 2
)

// Offer is the table's half of FastPathHooks.Offer: the read-only
// lookup of key by the side it arrived on, answering the handle a hit
// should touch and the guard that dies with the record.
func (t *FlowTable[V]) Offer(key fastpath.Key) (aux uint64, guard fastpath.Guard, ok bool) {
	var idx int
	if key.FromInternal == t.fstInternal {
		aux = AuxFst
		idx, ok = t.m.GetByFst(key.ID)
	} else {
		aux = AuxSnd
		idx, ok = t.m.GetBySnd(key.ID)
	}
	if !ok {
		return 0, fastpath.Guard{}, false
	}
	return uint64(idx)<<auxKindBits | aux, t.gens.Guard(idx), true
}

// MissGuard guards a cached verdict that rests on a lookup having
// missed: it dies at the next Add or Restore, either of which could be
// the record that lookup would now find.
func (t *FlowTable[V]) MissGuard() fastpath.Guard { return t.gens.Guard(t.Capacity()) }

// Hit is the table's half of FastPathHooks.Hit: it rejuvenates the
// record aux names, if it names one, and returns aux's kind.
func (t *FlowTable[V]) Hit(aux uint64, now libvig.Time) uint64 {
	kind := aux & (1<<auxKindBits - 1)
	if kind < AuxStateless {
		_ = t.chain.Rejuvenate(int(aux>>auxKindBits), now)
	}
	return kind
}
