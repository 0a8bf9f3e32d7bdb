package nfkit

import "vignat/internal/vigor/sym"

// SymFlowTable is the symbolic model of FlowTable's operations over a
// SymDriver, written once like the production table: the libVig
// contracts of lookup, creation and rejuvenation, and the P2/P4
// discipline every NF owes them — a key only from a validated L4
// header, each lookup only for a packet from that key's side, creation
// only after the first-key lookup missed, rejuvenation only of a handle
// this path minted. An NF's symbolic Env embeds one beside SymGuards
// and names what is its own: its handle type H, the calls as its Spec
// reads them back, and how a record's model variables correspond to the
// packet's under each key.
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
	// the contract atoms of Fig. 9's enriched lookups.
	Vars     []string
	Fst, Snd [][2]string
}

// mint mints a handle bound to the packet by the given correspondence,
// plus any further atoms about the handle more, when set, builds.
func (t SymFlowTable[H]) mint(pairs [][2]string, more func(h int) []sym.Atom) H {
	h := t.D.Mint(t.Vars...)
	atoms := make([]sym.Atom, len(pairs))
	for i, p := range pairs {
		atoms[i] = sym.EqVV(t.D.HVar(h, p[0]), t.D.Var(p[1]))
	}
	if more != nil {
		atoms = append(atoms, more(h)...)
	}
	t.D.Bind(h, atoms...)
	return H(h)
}

// lookup is the shared half of the two lookups.
func (t SymFlowTable[H]) lookup(call string, fst bool) bool {
	t.D.Require(t.D.Flag("l4"), "P2: %s key from unvalidated L4 header", t.Noun)
	side := t.D.Flag("iface_known") && t.D.Flag(t.FstSide[0]) == fst
	if fst {
		for _, f := range t.FstSide[1:] {
			side = side && t.D.Flag(f)
		}
	}
	t.D.Require(side, "P4: %s for a packet not from that key's side", call)
	return t.D.Decide(call)
}

// LookupFst models FlowTable.LookupFst; a miss is what licenses Add.
func (t SymFlowTable[H]) LookupFst() (H, bool) {
	if !t.lookup(t.GetFst, true) {
		t.D.Set(t.GetFst+"_missed", true)
		return 0, false
	}
	return t.mint(t.Fst, nil), true
}

// LookupSnd models FlowTable.LookupSnd.
func (t SymFlowTable[H]) LookupSnd() (H, bool) {
	if !t.lookup(t.GetSnd, false) {
		return 0, false
	}
	return t.mint(t.Snd, nil), true
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
	return t.mint(t.Fst, more), true
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
