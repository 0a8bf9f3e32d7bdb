package nfkit

import "vignat/internal/vigor/sym"

// SymFlowTable is the symbolic model of FlowTable's operations over a
// SymDriver, written once like the production table: the libVig
// contracts of lookup, creation and rejuvenation, and the P2/P4
// discipline every NF owes them — a key only from a validated L4
// header, a lookup only after the iteration's expiry and only for a
// packet from that key's side, creation only after the first-key lookup
// missed, rejuvenation only of a handle this path minted. An NF's
// symbolic Env embeds one beside SymGuards and names what is its own:
// its handle type H, the calls as its Spec reads them back, and how a
// record's model variables correspond to the packet's under each key.
type SymFlowTable[H ~int] struct {
	D *SymDriver
	// Noun names a record in violations ("flow", "session").
	Noun string
	// GetFst, GetSnd and Create name the recorded calls.
	GetFst, GetSnd, Create string
	// FstSide are the discipline flags a packet looked up by first key
	// must carry, the side flag first: SymGuards' "from_internal", or
	// the NF's own. A second-key lookup requires the side flag unset.
	FstSide []string
	// Vars are the model variables every minted handle carries. Fst and
	// Snd pair them with the packet variables they equal when the
	// record was found by that key (Fst also when it was just created):
	// the key-correspondence clause of the table's contract, which
	// getByFst and getBySnd establish by comparing the whole key.
	Vars     []string
	Fst, Snd [][2]string
	// Inv, when set, is the rest of the contract: the record invariant
	// every record the table hands back satisfies (the NAT's: behind
	// EXT_IP, its port in the configured range).
	Inv func(h int) []sym.Atom
	// Pin and PinAt are what the under-approximate model (Fig. 4 (c))
	// claims of a created record beyond the contract: variable Pin held
	// at PinAt. An empty Pin claims nothing more.
	Pin   string
	PinAt uint64
}

// mint mints a handle bound, under the named contract clause, to the
// packet by the given correspondence, plus the invariant, plus any
// further atoms about the handle more, when set, builds; pin adds the
// under-approximate model's claim.
func (t SymFlowTable[H]) mint(clause string, pairs [][2]string, more func(h int) []sym.Atom, pin bool) H {
	h := t.D.Mint(t.Vars...)
	contract := make([]sym.Atom, len(pairs))
	for i, p := range pairs {
		contract[i] = sym.EqVV(t.D.HVar(h, p[0]), t.D.Var(p[1]))
	}
	if t.Inv != nil {
		contract = append(contract, t.Inv(h)...)
	}
	if more != nil {
		contract = append(contract, more(h)...)
	}
	var pins []sym.Atom
	if pin && t.Pin != "" {
		pins = []sym.Atom{sym.EqVC(t.D.HVar(h, t.Pin), t.PinAt)}
	}
	t.D.Bind(h, clause, contract, pins...)
	return H(h)
}

// lookup is the shared half of the two lookups.
func (t SymFlowTable[H]) lookup(call string, fst bool) bool {
	t.D.Require(t.D.Flag("l4_header_intact"), "P2: %s key from unvalidated L4 header", t.Noun)
	side := t.D.Flag("iface_known") && t.D.Flag(t.FstSide[0]) == fst
	if fst {
		for _, f := range t.FstSide[1:] {
			side = side && t.D.Flag(f)
		}
	}
	t.D.Require(side, "P4: %s for a packet not from that key's side", call)
	return t.D.Lookup(call)
}

// LookupFst models FlowTable.LookupFst; a miss is what licenses Add.
func (t SymFlowTable[H]) LookupFst() (H, bool) {
	if !t.lookup(t.GetFst, true) {
		t.D.Set(t.GetFst+"_missed", true)
		return 0, false
	}
	return t.mint("FlowTable.LookupFst", t.Fst, nil, false), true
}

// LookupSnd models FlowTable.LookupSnd.
func (t SymFlowTable[H]) LookupSnd() (H, bool) {
	if !t.lookup(t.GetSnd, false) {
		return 0, false
	}
	return t.mint("FlowTable.LookupSnd", t.Snd, nil, false), true
}

// Missed reports whether the first-key lookup ran and missed.
func (t SymFlowTable[H]) Missed() bool { return t.D.Flag(t.GetFst + "_missed") }

// Add models FlowTable.Add: the new record is the packet's by its first
// key, and satisfies whatever else more, when set, says of it.
func (t SymFlowTable[H]) Add(more func(h int) []sym.Atom) (H, bool) {
	t.D.Require(t.Missed(), "P4: %s creation without a preceding miss", t.Noun)
	if !t.D.Decide(t.Create) {
		return 0, false
	}
	return t.mint("FlowTable.Add", t.Fst, more, true), true
}

// Rejuvenate models FlowTable.Rejuvenate.
func (t SymFlowTable[H]) Rejuvenate(h H) {
	t.Held(h, "rejuvenate on")
	t.D.NoteOn("dchain_rejuvenate", int(h))
}

// Held is the capability check of any operation or output that takes a
// handle: h must have been minted on this path.
func (t SymFlowTable[H]) Held(h H, doing string) {
	t.D.Require(t.D.Valid(int(h)), "P2: %s invalid %s handle %d", doing, t.Noun, h)
}
