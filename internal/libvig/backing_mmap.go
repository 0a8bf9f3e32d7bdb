//go:build linux && !race

package libvig

import "syscall"

// mapAnon maps size bytes of private anonymous memory, or returns nil
// when the kernel refuses (Make then falls back to the heap).
func mapAnon(size int) []byte {
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		return nil
	}
	return mem
}
