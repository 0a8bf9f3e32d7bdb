// Package libvig is the Go analogue of the paper's libVig: a library of
// data structures that hold all of a network function's "difficult" state
// behind small, contract-specified interfaces (§5.1 of the paper).
//
// Every structure preallocates all memory at construction time, exactly as
// libVig does: the packet path performs no allocation, which both bounds
// memory use and keeps per-packet cost predictable. Each method documents
// its contract (the executable analogue of the paper's separation-logic
// pre/post-conditions); package libvig/contracts provides abstract-state
// models and checked wrappers used for the P3 refinement proofs.
package libvig

import (
	"sync/atomic"
	"time"
)

// Time is a timestamp in nanoseconds, the unit used throughout the NF.
// The paper's nf_time abstraction returns seconds; nanoseconds let
// expiry run on the same scale as the microsecond latencies measured.
type Time = int64

// Clock is the nf_time abstraction (§5.1.1): the single source of time for
// an NF. Injecting it keeps expiry logic deterministic under test and lets
// the evaluation's figures replay their schedules on virtual time.
type Clock interface {
	// Now returns the current time. Successive calls never go backwards.
	Now() Time
}

// SystemClock reads the machine's monotonic clock.
type SystemClock struct {
	base time.Time
}

// NewSystemClock returns a Clock backed by the OS monotonic clock.
func NewSystemClock() *SystemClock {
	return &SystemClock{base: time.Now()}
}

// Now implements Clock.
func (c *SystemClock) Now() Time {
	return time.Since(c.base).Nanoseconds()
}

// VirtualClock is a manually advanced clock for deterministic tests and
// for the figures' schedule replay. Reads and advances are atomic, so
// run-to-completion workers may read it while the wire side advances it
// (the analogue of every core reading the same TSC).
type VirtualClock struct {
	now atomic.Int64
}

// NewVirtualClock returns a VirtualClock starting at start.
func NewVirtualClock(start Time) *VirtualClock {
	c := &VirtualClock{}
	c.now.Store(start)
	return c
}

// Now implements Clock.
func (c *VirtualClock) Now() Time { return c.now.Load() }

// Advance moves the clock forward by d nanoseconds. d must be >= 0;
// negative advances are ignored so time never goes backwards.
func (c *VirtualClock) Advance(d Time) {
	if d > 0 {
		c.now.Add(d)
	}
}

// Set jumps the clock to t if t is later than the current time.
func (c *VirtualClock) Set(t Time) {
	for {
		cur := c.now.Load()
		if t <= cur {
			return
		}
		if c.now.CompareAndSwap(cur, t) {
			return
		}
	}
}
