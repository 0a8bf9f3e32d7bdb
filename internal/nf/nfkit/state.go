package nfkit

import (
	"fmt"
	"sort"

	"vignat/internal/libvig"
	"vignat/internal/nf"
)

// Family is one record family of a declaration (Decl.Families): a
// Records value with its record type erased. Nothing but a Records
// value's own closures ever holds one of its records, so a record of
// the wrong type has nowhere to come from.
type Family[C any] interface {
	name() string
	occupancy(core C) (live, capacity int)
	highWater(core C) (highWater, capacity int)
	dump(core C, into []string) []string
	// move restores every record of the from cores into the to cores.
	// An error refuses the reshard; dropped counts the records a
	// destination refused.
	move(from, to []C) (moved, dropped uint64, err error)
}

// Records declares one family: records of type R — a flow-table entry,
// an LB backend, a policer subscriber — held by cores of type C. Each
// and Restore must round-trip: a core's records restored, in stamp
// order, into a fresh core of the same configuration yield observably
// identical state (same lookups, same expiry order).
type Records[C, R any] struct {
	// Name names the family in Occupancy, Snapshot and refusals.
	Name string
	// Each hands emit every record the core holds with its last-touch
	// stamp, in an order that is a function of the core's state alone.
	Each func(core C, emit func(rec R, stamp libvig.Time))
	// Validate, when set, refuses a record the destination core cannot
	// hold consistently, before Restore is tried.
	Validate func(core C, rec *R) error
	// Restore replays one record at its stamp or leaves the core
	// untouched: a refused record is a dropped session, never a
	// half-applied one. It moves no creation counter — a migrated record
	// was created once, on the shard it came from — so created − expired
	// − unpinned − MigrationDropped == live holds across the move.
	Restore func(core C, rec R, stamp libvig.Time) error
	// ShardOf places a record under the given shard count, consistently
	// with the declared steering; an answer outside [0, shards) is no
	// placement and refuses the reshard. Nil declares state every shard
	// replicates: each record goes to every shard, and a restore that
	// fails refuses the reshard.
	ShardOf func(rec *R, shards int) int
	// Occupancy counts the core's records of this family and the room it
	// has for them. Unset, the family cannot be asked (Sharded.Occupancy).
	Occupancy func(core C) (live, capacity int)
	// HighWater, when set, counts the core's records of this family that
	// have ever been resident, and the room it has for them; unlike
	// Occupancy it may be read while the core's owner runs. Unset, the
	// family reports no room (Sharded.FlowTables).
	HighWater func(core C) (highWater, capacity int)
}

// FlowRecords is the family of a flow table: its records are the
// table's own, restored where FlowTable.Restore puts them; the NF says
// only where the table is and which shard owns a record.
func FlowRecords[C, V any](name string, table func(C) *FlowTable[V], shardOf func(v *V, shards int) int) Records[C, V] {
	return Records[C, V]{
		Name: name,
		Each: func(core C, emit func(V, libvig.Time)) {
			table(core).ForEach(func(_ int, v *V, last libvig.Time) bool { emit(*v, last); return true })
		},
		Restore:   func(core C, v V, stamp libvig.Time) error { return table(core).Restore(v, stamp) },
		ShardOf:   shardOf,
		Occupancy: func(core C) (int, int) { return table(core).Size(), table(core).Capacity() },
		HighWater: func(core C) (int, int) { return table(core).HighWater(), table(core).Capacity() },
	}
}

func (r Records[C, R]) name() string { return r.Name }

func (r Records[C, R]) occupancy(core C) (live, capacity int) { return r.Occupancy(core) }

func (r Records[C, R]) highWater(core C) (highWater, capacity int) {
	if r.HighWater == nil {
		return 0, 0
	}
	return r.HighWater(core)
}

func (r Records[C, R]) dump(core C, into []string) []string {
	r.Each(core, func(rec R, stamp libvig.Time) {
		into = append(into, fmt.Sprintf("%s @%d %+v", r.Name, stamp, rec))
	})
	return into
}

func (r Records[C, R]) move(from, to []C) (moved, dropped uint64, err error) {
	type stamped struct {
		rec   R
		stamp libvig.Time
	}
	var recs []stamped
	for _, core := range from {
		r.Each(core, func(rec R, stamp libvig.Time) { recs = append(recs, stamped{rec, stamp}) })
	}
	// Stamp order, so chain allocations replay with monotone timestamps;
	// stable, so one core's equal stamps keep the order it expires them in.
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].stamp < recs[j].stamp })
	for i := range recs {
		s, homes := &recs[i], to
		if r.ShardOf != nil {
			// A placement outside the new count is a declaration bug: any
			// shard picked for it is one the new steering never looks in.
			home := r.ShardOf(&s.rec, len(to))
			if home < 0 || home >= len(to) {
				return 0, 0, fmt.Errorf("%s placed a %T record on shard %d", r.Name, s.rec, home)
			}
			homes = to[home : home+1]
		}
		for _, core := range homes {
			var err error
			if r.Validate != nil {
				err = r.Validate(core, &s.rec)
			}
			if err == nil {
				err = r.Restore(core, s.rec, s.stamp)
			}
			if err == nil {
				moved++
			} else if r.ShardOf != nil {
				dropped++
			} else {
				return 0, 0, fmt.Errorf("replicating a %T record of %s: %w", s.rec, r.Name, err)
			}
		}
	}
	return moved, dropped, nil
}

// Snapshot dumps every record core holds as "family @stamp payload",
// family by family in declaration order, each family in its Each order
// — what two cores that went through the same history must agree on.
func (d *Decl[C]) Snapshot(core C) []string {
	var recs []string
	for _, f := range d.Families {
		recs = f.dump(core, recs)
	}
	return recs
}

// Occupancy returns how many records of the named family the shards
// hold and how many they have room for. It reads the cores, so it is
// the owner goroutine's (or a quiesced pipeline's) to call; naming an
// undeclared or uncounted family is a programming error.
func (s *Sharded[C]) Occupancy(family string) (live, capacity int) {
	for _, f := range s.decl.Families {
		if f.name() != family {
			continue
		}
		for _, sh := range s.state.Load().shards {
			l, c := f.occupancy(sh.core)
			live, capacity = live+l, capacity+c
		}
		return live, capacity
	}
	panic(fmt.Sprintf("nfkit: %s declares no record family %q", s.decl.Name, family))
}

// FlowTables returns, shard by shard, the high water and capacity of the
// first family that counts one (FlowRecords does), or nil when none
// does. High-water marks are read atomically and capacities never
// change, so unlike Occupancy it may be called while the workers run.
func (s *Sharded[C]) FlowTables() []nf.TableFill {
	shards := s.state.Load().shards
	for _, f := range s.decl.Families {
		var out []nf.TableFill
		for i, sh := range shards {
			hw, capacity := f.highWater(sh.core)
			if capacity == 0 {
				break
			}
			out = append(out, nf.TableFill{Shard: i, Capacity: capacity, HighWater: hw})
		}
		if out != nil {
			return out
		}
	}
	return nil
}
