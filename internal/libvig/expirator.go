package libvig

// IndexEraser is the hook the expirator uses to tear down per-index state
// in sibling structures when an index expires. VigNAT passes the flow
// table (DoubleMap.Erase) here; the index being the flow's port, there
// is nothing else to release.
type IndexEraser interface {
	// EraseIndex releases all state associated with index i.
	EraseIndex(i int) error
}

// IndexEraserFunc adapts a function to the IndexEraser interface.
type IndexEraserFunc func(i int) error

// EraseIndex implements IndexEraser.
func (f IndexEraserFunc) EraseIndex(i int) error { return f(i) }

// ExpireItems is libVig's expirator (§5.1.1): it frees every index in the
// chain whose last-touch time is strictly older than deadline, invoking
// each eraser for every freed index, and returns the number of expired
// indices.
//
// Contract sketch: afterwards no allocated index has timestamp < deadline,
// the freed indices are exactly those that did, and the erasers were
// called once per freed index, oldest first.
//
// The per-packet call pattern in the NAT is
//
//	ExpireItems(chain, deadline=now-Texp, flowtable)
//
// which implements Fig. 6's expire_flows(t).
func ExpireItems(chain *DChain, deadline Time, erasers ...IndexEraser) (int, error) {
	n := 0
	for {
		i, ok := chain.ExpireOne(deadline)
		if !ok {
			return n, nil
		}
		for _, e := range erasers {
			if err := e.EraseIndex(i); err != nil {
				return n, err
			}
		}
		n++
	}
}
