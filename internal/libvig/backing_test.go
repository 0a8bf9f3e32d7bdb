package libvig

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"unsafe"
)

// TestMakeRefusesPointers: an element type the collector would have to
// trace — a pointer, slice, string, map, interface, func or chan, at any
// depth — makes Make panic naming it, whatever the array's size.
func TestMakeRefusesPointers(t *testing.T) {
	type withSlice struct {
		n  int
		bs []byte
	}
	type withString struct{ s string }
	type withPointer struct {
		a [2]struct{ p *int }
	}
	refuse := func(name, want string, mk func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("%s: Make accepted it", name)
			}
			if msg := fmt.Sprint(r); !strings.Contains(msg, want) {
				t.Fatalf("%s: panic %q does not name %q", name, msg, want)
			}
		}()
		mk()
	}
	b := new(Backing)
	refuse("slice field", "a slice (in field bs)", func() { Make[withSlice](b, 1) })
	refuse("string field", "a string (in field s)", func() { Make[withString](b, 1<<16) })
	refuse("pointer in an array", "a ptr (in field p)", func() { Make[withPointer](b, 1) })
	refuse("map", "a map", func() { Make[map[int]int](b, 1) })
	refuse("interface", "a interface", func() { Make[any](b, 1) })
	refuse("func", "a func", func() { Make[func()](b, 1) })
	refuse("chan", "a chan", func() { Make[chan int](b, 1) })
	if len(b.maps) != 0 {
		t.Fatalf("refused calls left %d mappings", len(b.maps))
	}
	type flat struct {
		a [3]uint16
		b bool
		c float64
		d struct{ e [2]int8 }
	}
	if got := len(Make[flat](b, 7)); got != 7 {
		t.Fatalf("pointer-free struct: %d elements, want 7", got)
	}
}

// TestMakeMapsLargeArraysOnly: an array under minMappedBytes comes from
// the Go heap and records no mapping; one at minMappedBytes or more gets
// a mapping of its own (outside -race builds, on Linux), zeroed and
// writable over its whole length.
func TestMakeMapsLargeArraysOnly(t *testing.T) {
	b := new(Backing)
	small := Make[uint64](b, minMappedBytes/8-1)
	if len(b.maps) != 0 {
		t.Fatalf("a %d-byte array was mapped", len(small)*8)
	}
	large := Make[uint64](b, minMappedBytes/8)
	if raceEnabled || runtime.GOOS != "linux" {
		if len(b.maps) != 0 {
			t.Fatalf("%d mappings in a build whose arrays must stay on the heap", len(b.maps))
		}
		return
	}
	if len(b.maps) != 1 {
		t.Fatalf("a %d-byte array made %d mappings, want 1", len(large)*8, len(b.maps))
	}
	for i := range large {
		if large[i] != 0 {
			t.Fatalf("mapped element %d is %#x, want 0", i, large[i])
		}
		large[i] = uint64(i)
	}
	if &b.maps[0][0] != (*byte)(unsafe.Pointer(&large[0])) {
		t.Fatal("the mapping recorded is not the array's")
	}
}
