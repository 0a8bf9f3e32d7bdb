//go:build !linux || race

package libvig

// mapAnon makes no mapping: under the race detector, whose shadow
// memory covers the Go heap alone, and off Linux, Make is make.
func mapAnon(int) []byte { return nil }

func unmapAnon([]byte) {}

// poisonEnabled: with no mapping there is nothing to poison, so the
// vigpoison tag changes nothing here.
const poisonEnabled = false
