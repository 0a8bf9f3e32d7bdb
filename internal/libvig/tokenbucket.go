package libvig

import "errors"

// TokenBucket errors.
var (
	ErrBucketRange = errors.New("libvig: bucket index out of range")
	ErrBadRate     = errors.New("libvig: rate must be in (0, MaxRateBytesPerSec]")
	ErrBadBurst    = errors.New("libvig: burst must be in (0, MaxBurstBytes]")
)

// MaxBurstBytes bounds the per-bucket depth so that the scaled level
// arithmetic below can never overflow int64 (burst·1e9 must fit).
const MaxBurstBytes = int64(1) << 33 // 8 GiB

// MaxRateBytesPerSec bounds the refill rate (≈1.1 TB/s — far past any
// NIC) so the fill-time ceiling division can never overflow.
const MaxRateBytesPerSec = int64(1) << 40

// tokenUnitsPerByte is the internal fixed-point scale: bucket levels are
// kept in units of 1e-9 bytes. The scale is chosen so that a rate of R
// bytes/second is exactly R units per nanosecond — refill arithmetic is
// then a single multiplication with no rounding, and the "tokens =
// min(burst, tokens + rate·Δt)" contract holds as an identity over the
// integers rather than as an approximation that leaks fractional tokens
// on every refill (the drift the naive bytes-granularity formula has).
const tokenUnitsPerByte = int64(1_000_000_000)

// TokenBucket is libVig's token-bucket vector: a preallocated array of
// per-subscriber rate-limiter buckets sharing one (rate, burst)
// configuration — the policer's "difficult state" in the same sense the
// flow table is the NAT's. All memory is allocated at construction; the
// packet path performs no allocation and no per-tick timer work: refill
// is lazy, computed from the elapsed time on each access (the Vigor
// policer's dynamic-value discipline).
//
// Contract sketch (per bucket i, level in bytes):
//
//	bucketp(b, i, L, t) ≡ bucket i holds L tokens as of time t,
//	                      0 ≤ L ≤ burst.
//	Fill(i, now):    ensures bucketp(b, i, burst, now)
//	Charge(i, n, now): with L' = min(burst, L + rate·(now−t)):
//	    n ≤ L' : ensures bucketp(b, i, L'−n, now); returns true
//	    n > L' : ensures bucketp(b, i, L',   now); returns false
//
// Time never runs backwards inside a bucket: a Charge at now < t (clock
// regression across CPUs, or a caller replaying stale timestamps)
// refills nothing and leaves the bucket's clock at t, so a regression
// can never mint tokens.
type TokenBucket struct {
	rate       int64 // bytes/second == level units per nanosecond
	burstUnits int64
	levels     []int64
	last       []Time
	mem        *Backing // levels and last
}

// NewTokenBucket returns a vector of capacity buckets, each refilling at
// rate bytes/second up to a depth of burst bytes. Every bucket starts
// empty with a zero timestamp; callers Fill a bucket when they bind it
// to a subscriber (a fresh subscriber starts with a full burst).
func NewTokenBucket(capacity int, rate, burst int64) (*TokenBucket, error) {
	if capacity <= 0 {
		return nil, ErrBadCapacity
	}
	if rate <= 0 || rate > MaxRateBytesPerSec {
		return nil, ErrBadRate
	}
	if burst <= 0 || burst > MaxBurstBytes {
		return nil, ErrBadBurst
	}
	mem := new(Backing)
	return &TokenBucket{
		rate:       rate,
		burstUnits: burst * tokenUnitsPerByte,
		levels:     Make[int64](mem, capacity),
		last:       Make[Time](mem, capacity),
		mem:        mem,
	}, nil
}

// Capacity returns the number of buckets.
func (tb *TokenBucket) Capacity() int { return len(tb.levels) }

// Rate returns the refill rate in bytes/second.
func (tb *TokenBucket) Rate() int64 { return tb.rate }

// Burst returns the bucket depth in bytes.
func (tb *TokenBucket) Burst() int64 { return tb.burstUnits / tokenUnitsPerByte }

// Fill resets bucket i to a full burst as of now — the bind-time
// initialization for a freshly allocated subscriber slot. Indices come
// from a DChain, so a reused slot's stale level is always overwritten
// before it can leak budget across subscribers.
// Requires i in range (checked).
func (tb *TokenBucket) Fill(i int, now Time) error {
	if i < 0 || i >= len(tb.levels) {
		return ErrBucketRange
	}
	tb.levels[i] = tb.burstUnits
	tb.last[i] = now
	return nil
}

// refill advances bucket i to now: level' = min(burst, level + rate·Δt),
// computed without overflow. If Δt·rate would reach the cap the level is
// clamped directly; otherwise Δt·rate < burstUnits − level, so the
// product fits. Δt ≤ 0 (clock regression) refills nothing and leaves the
// bucket clock where it was.
func (tb *TokenBucket) refill(i int, now Time) {
	dt := now - tb.last[i]
	if dt <= 0 {
		return
	}
	missing := tb.burstUnits - tb.levels[i]
	// ceil(missing/rate) nanoseconds fill the bucket completely.
	if fill := (missing + tb.rate - 1) / tb.rate; dt >= fill {
		tb.levels[i] = tb.burstUnits
	} else {
		tb.levels[i] += dt * tb.rate
	}
	tb.last[i] = now
}

// Charge refills bucket i to now, then attempts to draw bytes from it.
// A conforming draw (bytes ≤ refilled level) consumes and returns true;
// a non-conforming one consumes nothing and returns false — the packet
// is dropped, the budget is not. bytes < 0 is rejected as false without
// touching the bucket's level, and bytes > MaxBurstBytes is denied
// before scaling: such a draw can never conform (no bucket is that
// deep), and scaling it would overflow the fixed point and mint tokens.
// Requires i in range (checked; out-of-range returns false).
func (tb *TokenBucket) Charge(i int, bytes int, now Time) bool {
	if i < 0 || i >= len(tb.levels) || bytes < 0 || int64(bytes) > MaxBurstBytes {
		return false
	}
	tb.refill(i, now)
	cost := int64(bytes) * tokenUnitsPerByte
	if cost > tb.levels[i] {
		return false
	}
	tb.levels[i] -= cost
	return true
}

// Resize changes the vector's shared (rate, burst) configuration live,
// preserving the clamp law mid-refill: every bucket is first refilled
// to now at the OLD rate (so no elapsed time is ever re-priced at the
// new rate — the budget already earned is settled before the terms
// change), then its level is clamped to the NEW burst. A deepened
// bucket keeps its level and earns the extra headroom only through
// future refills; a shallowed one forfeits tokens above the new cap
// immediately, exactly as if it had always been that deep. The new
// parameters are validated like NewTokenBucket's.
func (tb *TokenBucket) Resize(rate, burst int64, now Time) error {
	if rate <= 0 || rate > MaxRateBytesPerSec {
		return ErrBadRate
	}
	if burst <= 0 || burst > MaxBurstBytes {
		return ErrBadBurst
	}
	for i := range tb.levels {
		tb.refill(i, now)
	}
	tb.rate = rate
	tb.burstUnits = burst * tokenUnitsPerByte
	for i := range tb.levels {
		if tb.levels[i] > tb.burstUnits {
			tb.levels[i] = tb.burstUnits
		}
	}
	return nil
}

// Restore overwrites bucket i with a previously captured (LevelUnits,
// LastRefill) pair — the restore half of shard migration. The level is
// clamped into [0, burstUnits] so a snapshot taken under different
// parameters can never violate the bucket invariant.
// Requires i in range (checked).
func (tb *TokenBucket) Restore(i int, levelUnits int64, last Time) error {
	if i < 0 || i >= len(tb.levels) {
		return ErrBucketRange
	}
	if levelUnits < 0 {
		levelUnits = 0
	}
	if levelUnits > tb.burstUnits {
		levelUnits = tb.burstUnits
	}
	tb.levels[i] = levelUnits
	tb.last[i] = last
	return nil
}

// Level returns bucket i's available tokens in whole bytes after a
// refill to now (the refill is applied — Level is an access like any
// other). Requires i in range (checked).
func (tb *TokenBucket) Level(i int, now Time) (int64, error) {
	if i < 0 || i >= len(tb.levels) {
		return 0, ErrBucketRange
	}
	tb.refill(i, now)
	return tb.levels[i] / tokenUnitsPerByte, nil
}

// LevelUnits returns bucket i's raw fixed-point level without refilling
// — the contracts package reads it to compare against the abstract
// model. Requires i in range (checked).
func (tb *TokenBucket) LevelUnits(i int) (int64, error) {
	if i < 0 || i >= len(tb.levels) {
		return 0, ErrBucketRange
	}
	return tb.levels[i], nil
}

// LastRefill returns bucket i's clock without refilling.
// Requires i in range (checked).
func (tb *TokenBucket) LastRefill(i int) (Time, error) {
	if i < 0 || i >= len(tb.levels) {
		return 0, ErrBucketRange
	}
	return tb.last[i], nil
}
