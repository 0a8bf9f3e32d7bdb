package libvig

import "errors"

// Port allocator errors.
var (
	ErrNoFreePort   = errors.New("libvig: no free port")
	ErrPortRange    = errors.New("libvig: port out of range")
	ErrPortNotAlloc = errors.New("libvig: port not allocated")
	ErrPortBusy     = errors.New("libvig: port already allocated")
)

// PortAllocator is libVig's "port allocator to keep track of allocated
// ports" (§5.1.1). It manages the external-port range [base, base+count)
// that the NAT rewrites internal flows onto. The free ports form a
// doubly-linked list over a preallocated arena, so Allocate,
// AllocateSpecific and Release are all O(1). Released ports are reused
// LIFO: the flow timeout already guarantees a quarantine period between
// uses of a port (the flow only dies Texp after its last packet), and
// LIFO keeps the allocator's working set cache-hot at any occupancy.
//
// The NAT's flow table no longer draws from this allocator: a flow's
// port is portBase plus its DChain index (nat.FlowTable), so there the
// same argument rests on the chain's free list, which is LIFO for the
// same reason (DChain.linkAfter) and frees an index only Texp after its
// flow's last packet. The allocator stays for NFs whose ports are not
// index-shaped, with its contract and refinement test.
//
// Contract sketch:
//
//	portsp(p, F, base, count) ≡ F ⊆ [base, base+count) is the allocated
//	  set.
//	Allocate:            requires |F| < count
//	                     ensures F' = F ∪ {q} with q ∉ F; returns q
//	AllocateSpecific(q): requires q in range ∧ q ∉ F; ensures F' = F ∪ {q}
//	Release(q):          requires q ∈ F; ensures F' = F \ {q}
type PortAllocator struct {
	base  uint16
	alloc []bool
	// next/prev over offsets; slot count is the free-list sentinel.
	next  []int32
	prev  []int32
	nfree int
}

// NewPortAllocator manages count ports starting at base. base+count must
// not exceed 65536.
func NewPortAllocator(base uint16, count int) (*PortAllocator, error) {
	if count <= 0 {
		return nil, ErrBadCapacity
	}
	if int(base)+count > 1<<16 {
		return nil, ErrPortRange
	}
	p := &PortAllocator{
		base:  base,
		alloc: make([]bool, count),
		next:  make([]int32, count+1),
		prev:  make([]int32, count+1),
		nfree: count,
	}
	s := int32(count) // sentinel
	prevCell := s
	for i := int32(0); i < int32(count); i++ {
		p.next[prevCell] = i
		p.prev[i] = prevCell
		prevCell = i
	}
	p.next[prevCell] = s
	p.prev[s] = prevCell
	return p, nil
}

func (p *PortAllocator) sentinel() int32 { return int32(len(p.alloc)) }

func (p *PortAllocator) unlink(i int32) {
	p.next[p.prev[i]] = p.next[i]
	p.prev[p.next[i]] = p.prev[i]
}

func (p *PortAllocator) linkAtHead(i int32) {
	s := p.sentinel()
	n := p.next[s]
	p.next[s] = i
	p.prev[i] = s
	p.next[i] = n
	p.prev[n] = i
}

// Base returns the first managed port.
func (p *PortAllocator) Base() uint16 { return p.base }

// Count returns the number of managed ports.
func (p *PortAllocator) Count() int { return len(p.alloc) }

// FreeCount returns how many ports are currently free.
func (p *PortAllocator) FreeCount() int { return p.nfree }

// IsAllocated reports whether port q is currently allocated.
func (p *PortAllocator) IsAllocated(q uint16) bool {
	off := int(q) - int(p.base)
	return off >= 0 && off < len(p.alloc) && p.alloc[off]
}

// Allocate hands out a free port (the most recently released one).
func (p *PortAllocator) Allocate() (uint16, error) {
	s := p.sentinel()
	i := p.next[s]
	if i == s {
		return 0, ErrNoFreePort
	}
	p.unlink(i)
	p.alloc[i] = true
	p.nfree--
	return p.base + uint16(i), nil
}

// AllocateSpecific claims port q if it is free. NFs use it to honor
// endpoint-independent mappings or configured static NAT entries.
func (p *PortAllocator) AllocateSpecific(q uint16) error {
	off := int(q) - int(p.base)
	if off < 0 || off >= len(p.alloc) {
		return ErrPortRange
	}
	if p.alloc[off] {
		return ErrPortBusy
	}
	p.unlink(int32(off))
	p.alloc[off] = true
	p.nfree--
	return nil
}

// Release returns port q to the free pool (at the head, for LIFO reuse).
// Requires q allocated (checked).
func (p *PortAllocator) Release(q uint16) error {
	off := int(q) - int(p.base)
	if off < 0 || off >= len(p.alloc) {
		return ErrPortRange
	}
	if !p.alloc[off] {
		return ErrPortNotAlloc
	}
	p.alloc[off] = false
	p.linkAtHead(int32(off))
	p.nfree++
	return nil
}
