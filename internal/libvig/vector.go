package libvig

import "errors"

// ErrVectorRange reports an out-of-range vector index.
var ErrVectorRange = errors.New("libvig: vector index out of range")

// Vector is libVig's preallocated value vector (§5.1.1): fixed capacity,
// borrow/return access. Borrowing hands the caller a pointer to the cell;
// per the libVig ownership discipline the caller must Return it before the
// end of the loop iteration — the vector itself tracks borrow state so
// that misuse is detectable in checked runs.
//
// Contract sketch:
//
//	vectorp(v, S, cap) ≡ v holds the sequence S of cap cells.
//	Borrow(i): requires 0 ≤ i < cap ∧ ¬borrowed(i)
//	           ensures caller owns cell i
//	Return(i): requires borrowed(i); ownership reverts to the vector
type Vector[V any] struct {
	cells    []V
	borrowed []bool
	nborrow  int
}

// NewVector returns a vector with capacity cells, each zero-initialized.
func NewVector[V any](capacity int) (*Vector[V], error) {
	if capacity <= 0 {
		return nil, ErrBadCapacity
	}
	return &Vector[V]{
		cells:    make([]V, capacity),
		borrowed: make([]bool, capacity),
	}, nil
}

// NewVectorInit returns a vector with every cell initialized by init.
func NewVectorInit[V any](capacity int, init func(i int) V) (*Vector[V], error) {
	v, err := NewVector[V](capacity)
	if err != nil {
		return nil, err
	}
	for i := range v.cells {
		v.cells[i] = init(i)
	}
	return v, nil
}

// Capacity returns the number of cells.
func (v *Vector[V]) Capacity() int { return len(v.cells) }

// BorrowedCount returns how many cells are currently borrowed; it must be
// zero at the end of every NF loop iteration (leak check).
func (v *Vector[V]) BorrowedCount() int { return v.nborrow }

// Borrow hands out a pointer to cell i.
// Requires i in range and not already borrowed (checked).
func (v *Vector[V]) Borrow(i int) (*V, error) {
	if i < 0 || i >= len(v.cells) {
		return nil, ErrVectorRange
	}
	if v.borrowed[i] {
		return nil, errors.New("libvig: cell already borrowed")
	}
	v.borrowed[i] = true
	v.nborrow++
	return &v.cells[i], nil
}

// Return gives cell i back to the vector.
// Requires i borrowed (checked).
func (v *Vector[V]) Return(i int) error {
	if i < 0 || i >= len(v.cells) {
		return ErrVectorRange
	}
	if !v.borrowed[i] {
		return errors.New("libvig: cell not borrowed")
	}
	v.borrowed[i] = false
	v.nborrow--
	return nil
}

// Get copies the value of cell i without borrowing.
func (v *Vector[V]) Get(i int) (V, error) {
	var zero V
	if i < 0 || i >= len(v.cells) {
		return zero, ErrVectorRange
	}
	return v.cells[i], nil
}

// Set overwrites cell i without borrowing.
// Requires i not borrowed (checked), so a raw Set can never race a
// borrowed pointer.
func (v *Vector[V]) Set(i int, val V) error {
	if i < 0 || i >= len(v.cells) {
		return ErrVectorRange
	}
	if v.borrowed[i] {
		return errors.New("libvig: cell is borrowed")
	}
	v.cells[i] = val
	return nil
}
