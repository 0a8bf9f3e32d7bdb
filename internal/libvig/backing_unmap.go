//go:build linux && !race && !vigpoison

package libvig

import "syscall"

// unmapAnon unmaps a mapping of mapAnon. It cannot fail: the mapping is
// one mapAnon made and nothing else unmaps.
func unmapAnon(mem []byte) { _ = syscall.Munmap(mem) }

const poisonEnabled = false
