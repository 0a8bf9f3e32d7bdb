package libvig

import "unsafe"

// SlotBytes is the width of one Map probe slot, for the external tests
// that count the pages a table's slots lie on.
const SlotBytes = int(unsafe.Sizeof(slot{}))

// ChainCellBytes is what one DChain index occupies: its two links, its
// stamp and its allocated flag.
const ChainCellBytes = int(unsafe.Sizeof(DChain{}.next[0]) + unsafe.Sizeof(DChain{}.prev[0]) +
	unsafe.Sizeof(DChain{}.timestamps[0]) + unsafe.Sizeof(DChain{}.alloc[0]))

// OccupancyBytes is what a DoubleMap's occupancy flag takes per index.
const OccupancyBytes = int(unsafe.Sizeof(DoubleMap[tKey, tKey, tKey]{}.busy[0]))

// RaceEnabled reports a -race build, for the external residency tests.
const RaceEnabled = raceEnabled

// PoisonEnabled reports a vigpoison build, in which released mappings
// are kept (inaccessible) rather than unmapped, for the external tests
// that count mappings or resident pages.
const PoisonEnabled = poisonEnabled
