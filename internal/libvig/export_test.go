package libvig

import "unsafe"

// SlotBytes is the width of one Map probe slot, for the external tests
// that count the pages a table's slots lie on.
const SlotBytes = int(unsafe.Sizeof(slot{}))
