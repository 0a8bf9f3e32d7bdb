package discard

import (
	"math/rand"
	"slices"
	"testing"
)

// TestInstanceMatchesInterface: prodIteration, the generated instance
// RunOnce runs, and Iteration, the function the proof covers, agree
// iteration for iteration over one randomized input: what each
// receives, discards and sends, in order, with idle polls, port-9
// frames and refused sends mixed in.
func TestInstanceMatchesInterface(t *testing.T) {
	type side struct {
		nf   *NF
		rng  *rand.Rand // the same seed on both sides: the same inputs
		sent []uint16
	}
	sides := make([]*side, 2)
	for i := range sides {
		s := &side{rng: rand.New(rand.NewSource(7))}
		recv := func() (Packet, bool) {
			if s.rng.Intn(3) == 0 {
				return Packet{}, false
			}
			return Packet{Port: uint16(s.rng.Intn(12))}, true
		}
		send := func(p Packet) bool {
			if s.rng.Intn(4) == 0 {
				return false
			}
			s.sent = append(s.sent, p.Port)
			return true
		}
		var err error
		if s.nf, err = New(recv, send); err != nil {
			t.Fatal(err)
		}
		sides[i] = s
	}
	inst, iface := sides[0], sides[1]
	for i := 0; i < 5000; i++ {
		inst.nf.RunOnce()
		e := &iface.nf.env
		e.got = false
		Iteration(e)
		r1, d1, s1 := inst.nf.Stats()
		r2, d2, s2 := iface.nf.Stats()
		if r1 != r2 || d1 != d2 || s1 != s2 || !slices.Equal(inst.sent, iface.sent) {
			t.Fatalf("iteration %d: instance %d/%d/%d, interface %d/%d/%d received/discarded/sent", i, r1, d1, s1, r2, d2, s2)
		}
	}
	if r, d, s := inst.nf.Stats(); d == 0 || s == 0 || r == s+d {
		t.Fatalf("trace too tame: %d received, %d discarded, %d sent", r, d, s)
	}
}
