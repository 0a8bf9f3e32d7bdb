package libvig

import (
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"unsafe"
)

// minMappedBytes is the smallest array Make maps on its own: where the
// Go heap already gives an allocation a span of its own. Smaller arrays
// stay on the heap, where a mapping per array would cost more page
// tables and map entries than the memory it keeps from the collector.
const minMappedBytes = 32 << 10

// reclaimBytes is how much Make maps between the collections it runs
// itself. The collector paces itself by the Go heap alone, so a program
// that builds and drops structures while allocating little else on the
// heap would keep every dropped mapping — its touched pages and its map
// entry — until some unrelated collection found its Backing garbage.
const reclaimBytes = 64 << 20

// mappedSinceGC counts the bytes Make has mapped since it last ran the
// collector.
var mappedSinceGC atomic.Int64

// Backing holds the anonymous mappings behind one structure's
// fixed-capacity arrays, and unmaps them once it is unreachable. A
// structure keeps its *Backing in a field beside the arrays Make carved
// from it; the Backing references nothing of the structure's, so it is
// part of no cycle and its finalizer runs as soon as the structure is
// garbage — whatever cycles the structure itself is in.
type Backing struct {
	maps [][]byte
}

// Make returns n zeroed elements of T: from a private anonymous mapping
// of their own, recorded in b, when they fill minMappedBytes or more,
// else from make. A mapping is outside the Go heap: the collector
// neither counts it toward its pacing goal nor scans it, and it is never
// recycled, so nothing ever clears it — the kernel backs each page with
// zeroes the first time it is touched, and not before.
//
// T must be pointer-free — no pointer, slice, string, map, interface,
// func or chan anywhere in it — because the collector cannot see what
// an array outside its heap points to. Make panics on any other T (a Go
// type constraint cannot say "pointer-free", so it is checked here, by
// reflection, on every call).
//
// The returned slice is valid while b is reachable. Whatever keeps the
// slice, or a pointer into it, must keep b too: the owner holds both, a
// closure over the array captures the owner rather than the slice, and
// a caller holding an element pointer holds the owner across its use.
//
// Under the race detector, which checks only Go heap addresses, off
// Linux, and when the kernel refuses a mapping, Make is make.
func Make[T any](b *Backing, n int) []T {
	var zero T
	typ := reflect.TypeOf(&zero).Elem()
	if why := pointers(typ); why != "" {
		panic(fmt.Sprintf("libvig: Make of %v: the element type holds %s", typ, why))
	}
	size := n * int(unsafe.Sizeof(zero))
	if size < minMappedBytes {
		return make([]T, n)
	}
	mem := mapAnon(size)
	if mem == nil {
		return make([]T, n)
	}
	if mappedSinceGC.Add(int64(size)) >= reclaimBytes {
		mappedSinceGC.Store(0)
		runtime.GC()
	}
	if b.maps == nil {
		runtime.SetFinalizer(b, (*Backing).release)
	}
	b.maps = append(b.maps, mem)
	return unsafe.Slice((*T)(unsafe.Pointer(&mem[0])), n)
}

// release unmaps every mapping of b.
func (b *Backing) release() {
	for _, mem := range b.maps {
		unmapAnon(mem)
	}
}

// pointers names what in t the collector would have to trace — a
// pointer, slice, string, map, interface, func or chan, with the field
// path to it — or returns "" when t is pointer-free.
func pointers(t reflect.Type) string {
	switch t.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return ""
	case reflect.Array:
		if why := pointers(t.Elem()); why != "" {
			return why + " (in its array elements)"
		}
		return ""
	case reflect.Struct:
		for i := range t.NumField() {
			f := t.Field(i)
			if why := pointers(f.Type); why != "" {
				return fmt.Sprintf("%s (in field %s)", why, f.Name)
			}
		}
		return ""
	default:
		return "a " + t.Kind().String()
	}
}
