package libvig

import "unsafe"

// SlotBytes is the width of one Map probe slot, for the external tests
// that count the pages a table's slots lie on.
const SlotBytes = int(unsafe.Sizeof(slot{}))

// RaceEnabled reports a -race build, for the external residency tests.
const RaceEnabled = raceEnabled
