//go:build linux && vigpoison && !race

package libvig

import (
	"runtime"
	"syscall"
	"time"
)

// The vigpoison tag builds a test-only variant that checks Make's
// lifetime rule instead of trusting it: a released mapping is made
// inaccessible and never unmapped, so its range is never handed to a
// later Make, and any touch of it after its owner's Backing died — a
// slice, element pointer or closure that outlived the owner — faults
// at the culprit instead of silently reading another table's state. The
// collector runs on a ticker, so a dead owner's finalizer runs within
// milliseconds rather than whenever a collection happens to come. Tests
// that count mappings or resident pages skip themselves (PoisonEnabled).

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
