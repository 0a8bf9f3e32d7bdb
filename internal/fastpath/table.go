package fastpath

import (
	"encoding/binary"
	"math/bits"
	"unsafe"

	"vignat/internal/libvig"
)

// Entry is one cached flow: the key it answers (packed to two words),
// the shard whose state it resolved against, the NF-opaque handle
// (aux) the shard's fast-hit hook interprets, the rewrite template,
// and the liveness guard (stored as a generation-table registry index
// plus slot and generation — see Table.Live — so the entry holds no
// pointer). The layout is budgeted to one 64-byte cache line: a hit
// loads the tag line and then exactly one entry line.
type Entry struct {
	k0, k1 uint64   // packed key (Key.pack)
	aux    uint64   // NF-opaque handle
	tmpl   Template // 24-byte rewrite template
	gidx   int32    // guard: index into the generation table
	ggen   uint32   // guard: generation the entry was installed at
	slot   int32    // index in the table, for tag maintenance on release
	shard  int16
	greg   uint8 // guard: registry index of the generation table (0 = none)
	flags  uint8 // entryIdentity and friends, precomputed at install
}

// entryIdentity marks an entry whose template rewrites nothing (a
// non-rewriting NF: firewall, policer, LB passthrough). The bit is
// computed once at install so the per-hit path can skip the template
// replay without inspecting the template's field mask.
const entryIdentity = uint8(1 << 0)

// Identity reports whether the entry's cached rewrite is a no-op.
func (e *Entry) Identity() bool { return e.flags&entryIdentity != 0 }

// The one-line budget is load-bearing (it is the point of the packed
// layout); grow Entry past it and this fails to compile.
var _ [64 - unsafe.Sizeof(Entry{})]byte

// Shard returns the shard the entry was installed for. The engine
// treats a shard mismatch as a miss: correctness never depends on
// steering, only affinity does.
func (e *Entry) Shard() int32 { return int32(e.shard) }

// Aux returns the NF-opaque handle.
func (e *Entry) Aux() uint64 { return e.aux }

// Apply replays the entry's rewrite on frame (see Template.Apply).
func (e *Entry) Apply(frame []byte, m Meta) { e.tmpl.Apply(frame, m) }

// probeWindow is the linear-probe length: a key lives in one of the 8
// slots from its home. Small enough that a miss costs a handful of
// cache lines, large enough that unrelated flows rarely displace each
// other at sane load factors.
const probeWindow = 8

// MinEntries is the smallest table the constructor accepts.
const MinEntries = 64

// tagOf derives a slot's 1-byte occupancy tag from the key's hash. The
// |1 keeps live tags distinct from the zero of an empty or released
// slot; the byte comes from bits the slot index does not use, so
// colliding keys in one window still usually disagree on the tag. (The
// doorkeeper's wider tag shares this byte; its slots are indexed by
// other bits of the hash, so the two filters still err independently.)
func tagOf(h uint64) uint8 { return uint8(h>>48) | 1 }

// Table is the per-worker cache: open-addressed, fixed size, power of
// two, probed over a bounded window, with a doorkeeper admission
// filter in front of installs. Single-threaded by construction — each
// run-to-completion worker owns one — so nothing here is atomic.
//
// The probe is two-level: a parallel byte array of per-slot tags is
// scanned first, so a miss — the only thing adversarial churn ever
// produces — usually costs one cache line of tags rather than eight
// entry-sized loads, and the full Entry is touched only on a tag
// match (real hit, or a ~1/128 false positive).
type Table struct {
	mask     uint64
	occupied int // used slots; Find short-circuits while the table is empty
	tags     []uint8
	entries  []Entry
	// gents interns the distinct GenTables guards point at (index 0 is
	// the nil table of guardless entries), so each entry carries a
	// 1-byte registry index instead of an 8-byte pointer — and the
	// entries array stays pointer-free, as libvig.Make requires.
	gents []*GenTable
	// door is the admission filter: one 15-bit tag per hash bucket. A
	// key is admitted (installable) only on its second sighting, so a
	// churn flood of never-repeating flows installs next to nothing and
	// cannot thrash the table — the graceful-degradation property the
	// SYN-flood scenario pins. The tag is wide because a false admission
	// is dear twice over: it buys a dead-on-arrival install, and the
	// engine takes an install for evidence of established traffic and
	// leaves cold mode. One-byte tags passed 1.6% of never-seen keys,
	// which kept a flooded worker classifying a quarter of the flood.
	// Tags persist after admission, so an established flow evicted by a
	// collision re-admits immediately.
	door []uint16
	mem  *libvig.Backing // tags, entries and door
}

// NewTable builds a cache with at least requested entries, rounded up
// to a power of two and clamped below by MinEntries.
func NewTable(requested int) *Table {
	n := MinEntries
	for n < requested {
		n <<= 1
	}
	mem := new(libvig.Backing)
	return &Table{
		mask:    uint64(n - 1),
		tags:    libvig.Make[uint8](mem, n),
		entries: libvig.Make[Entry](mem, n),
		door:    libvig.Make[uint16](mem, n),
		gents:   []*GenTable{nil},
		mem:     mem,
	}
}

// internGen maps a guard's generation table to its registry index,
// adding it on first sight. ok=false means the registry is full (256
// distinct tables — unreachable in practice: an NF registers one per
// shard); the caller skips the install, which is always safe.
func (t *Table) internGen(gt *GenTable) (uint8, bool) {
	for i, g := range t.gents {
		if g == gt {
			return uint8(i), true
		}
	}
	if len(t.gents) > 0xff {
		return 0, false
	}
	t.gents = append(t.gents, gt)
	return uint8(len(t.gents) - 1), true
}

// Live reports whether the guarded NF state behind e still exists: the
// generation the entry was installed at must still be current. Entries
// with no guard (registry index 0) are always live.
func (t *Table) Live(e *Entry) bool {
	gt := t.gents[e.greg]
	return gt == nil || gt.gens[e.gidx] == e.ggen
}

// Entries returns the table's slot count.
func (t *Table) Entries() int { return len(t.entries) }

// Occupied returns the number of used slots. Find short-circuits on
// an empty table, so while a churn flood keeps the table empty (the
// doorkeeper admits none of it) a probe costs one field load.
func (t *Table) Occupied() int { return t.occupied }

// Find returns the entry for key k (hash h), or nil on a miss. The
// whole probe window is scanned: slots are reclaimed lazily, so an
// unused slot does not terminate a probe chain. The tag array screens
// the window before any entry is loaded — all eight tags in one
// 64-bit load when the window does not wrap (SWAR byte match), so the
// common adversarial case, a miss against a churning table, costs one
// cache line and a handful of ALU ops. An empty table short-circuits:
// under a pure churn flood the doorkeeper admits nothing, the table
// stays empty, and misses cost one field load.
func (t *Table) Find(k Key, h uint64) *Entry {
	lo, hi := k.pack()
	return t.FindWords(lo, hi, h)
}

// FindWords is Find for a caller that already holds the packed key
// (Meta.Words) — the engine's per-packet path, which never builds a
// Key struct at all.
func (t *Table) FindWords(lo, hi, h uint64) *Entry {
	if t.occupied == 0 {
		return nil
	}
	j := h & t.mask
	tag := tagOf(h)
	if j+probeWindow <= uint64(len(t.tags)) {
		w := binary.LittleEndian.Uint64(t.tags[j : j+probeWindow])
		// SWAR zero-byte finder over w XOR the broadcast tag: each
		// matching slot raises bit 7 of its byte. The carry-free form
		// is exact — per-byte sums cannot exceed 0xFE, so no borrow or
		// carry crosses byte lanes and a raised bit IS a tag match
		// (the (x-k)&^x&0x80.. variant false-positives on the byte
		// after a match, which would surface released slots' stale key
		// bytes).
		x := w ^ (uint64(tag) * 0x0101010101010101)
		m := ^(((x & 0x7f7f7f7f7f7f7f7f) + 0x7f7f7f7f7f7f7f7f) | x | 0x7f7f7f7f7f7f7f7f)
		for m != 0 {
			// A matching tag is necessarily a used slot (released slots
			// zero their tag), so the key compare alone decides.
			e := &t.entries[j+uint64(bits.TrailingZeros64(m))>>3]
			if e.k0 == lo && e.k1 == hi {
				return e
			}
			m &= m - 1
		}
		return nil
	}
	for i := 0; i < probeWindow; i++ {
		jj := (j + uint64(i)) & t.mask
		if t.tags[jj] != tag {
			continue
		}
		e := &t.entries[jj]
		if e.k0 == lo && e.k1 == hi {
			return e
		}
	}
	return nil
}

// Release reclaims an entry discovered dead at hit time.
func (t *Table) Release(e *Entry) {
	t.tags[e.slot] = 0
	t.occupied--
}

// Admit runs the doorkeeper for hash h, reporting whether the key has
// been seen before (and may therefore be installed). First sightings
// tag the filter and report false. The filter is two-choice: a key
// owns two independent slots and is admitted when either still holds
// its tag, so two long-lived flows colliding on one slot (which would
// otherwise clobber each other's tag forever and lock both out of the
// cache) fight over at most one of their two — a simultaneous
// two-slot collision needs four hash-derived indices to agree.
func (t *Table) Admit(h uint64) bool {
	s1 := (h >> 20) & t.mask
	s2 := (h >> 36) & t.mask
	tag := uint16(h>>48) | 1
	if t.door[s1] == tag || t.door[s2] == tag {
		return true
	}
	t.door[s1] = tag
	t.door[s2] = tag
	return false
}

// Install places an entry for key k (hash h) in its probe window,
// preferring in order: the key's existing slot (refresh), a free slot,
// a dead slot (guard no longer live), and finally the home slot by
// displacement. It reports whether a live entry of another flow was
// displaced (the eviction the stats count).
func (t *Table) Install(k Key, h uint64, shard int32, aux uint64, guard Guard, tmpl Template) bool {
	greg, ok := t.internGen(guard.table)
	if !ok {
		return false // registry full: skip the install, never unsafe
	}
	lo, hi := k.pack()
	var flags uint8
	if tmpl.Identity() {
		flags = entryIdentity
	}
	free, dead := int32(-1), int32(-1)
	for i := 0; i < probeWindow; i++ {
		j := int32((h + uint64(i)) & t.mask)
		e := &t.entries[j]
		switch {
		case t.tags[j] == 0: // unused (released slots keep stale bytes, so check the tag first)
			if free < 0 {
				free = j
			}
		case e.k0 == lo && e.k1 == hi:
			e.shard, e.aux, e.tmpl, e.flags = int16(shard), aux, tmpl, flags
			e.gidx, e.ggen, e.greg = guard.idx, guard.gen, greg
			t.tags[j] = tagOf(h)
			return false
		case dead < 0 && !t.Live(e):
			dead = j
		}
	}
	victim := free
	evicted := false
	if victim >= 0 {
		t.occupied++ // filling a free slot; refresh/dead/displacement reuse a used one
	} else {
		victim = dead
		if victim < 0 {
			victim = int32(h & t.mask)
			evicted = true
		}
	}
	t.entries[victim] = Entry{
		k0: lo, k1: hi, slot: victim, shard: int16(shard), aux: aux,
		gidx: guard.idx, ggen: guard.gen, greg: greg, tmpl: tmpl, flags: flags,
	}
	t.tags[victim] = tagOf(h)
	return evicted
}
