//go:build linux && vigpoison && !race

package libvig

import (
	"runtime"
	"syscall"
	"time"
)

// The vigpoison tag builds a test-only variant that checks Make's
// lifetime rule where it can: a released mapping is made inaccessible
// and never unmapped, so its range is never handed to a later Make. A
// mapping is released only once a collection has found its owner's
// Backing dead and run the finalizer, and the collector runs on a
// ticker, so a slice, element pointer or closure that is still used
// milliseconds after its owner died faults at the culprit instead of
// silently reading another table's state. A use within microseconds of
// the owner's death, before any collection, reads live memory and is
// not caught: a reshard migration that reads an old shard's records
// just after dropping the shard passes. Tests that count mappings or
// resident pages skip themselves (PoisonEnabled).

// unmapAnon revokes all access to a mapping of mapAnon and keeps it.
func unmapAnon(mem []byte) {
	if err := syscall.Mprotect(mem, syscall.PROT_NONE); err != nil {
		panic("libvig: poisoning a released mapping: " + err.Error())
	}
}

const poisonEnabled = true

// gcEvery is how often the collector is forced to run.
const gcEvery = 2 * time.Millisecond

func init() {
	go func() {
		for range time.Tick(gcEvery) {
			runtime.GC()
		}
	}()
}
