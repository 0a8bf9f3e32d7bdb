// Package nfkit is the declarative NF-authoring surface: what the
// paper's libVig authors write once so that a second NF costs only its
// stateless logic. An NF is one capability declaration — Decl — naming
// its processing entry point, its expiry hook, its shard steering, its
// record families and (via SymSpec in verify.go) its symbolic models and
// output actions. From that declaration the kit derives:
//
//   - the allocation-free production binding onto the engine (Adapter:
//     clock-once batches, each packet's reason counted into the
//     declared counter array), whose ProcessBatchAt is the one loop
//     that runs a burst on a core, and its only entry: it gives every
//     packet one parse — the one it carries when a chain made one,
//     refreshed, else the adapter's own — then calls Decl.Prefetch on
//     the burst and Decl.Process on each packet. What Decl.Process runs
//     is the NF's verified function instantiated at its production Env
//     — the same body with the Env interface replaced by the concrete
//     *prodEnv, written by vigor/instgen — and PktGuards.Take hands it
//     the packet's parse (nf.Pkt.Parsed), so an element after another
//     neither dispatches through Env nor parses the frame again. A core
//     has no per-frame entry of its own: a lone frame is a one-packet
//     burst, so Take never parses;
//   - the concurrently-scrapeable sharded composition (Sharded[C],
//     handing each run of same-shard packets to that shard's adapter,
//     each shard publishing into its own nf.Block), its live reshard
//     and its per-family occupancy;
//   - the symbolic-verification run — the repository's one verifier
//     (VerifySym: path enumeration, P2/P4 discipline, single-output
//     rule, model claims checked against their libVig contract clauses
//     (P5) under Fig. 4's three models, solver entailment of the Spec
//     (P1), validated on a worker pool) and the taxonomy cross-check
//     fed by the same Spec walk (VerifyReasons), so a new NF's proof
//     costs a SymSpec, not an engine binding;
//   - the demo-binary scaffolding (Main: flags, ports, pipeline,
//     steering, drive loop, accounting).
//
// State is declared the same way. An NF that keeps per-flow state owns
// a FlowTable[V] — the double map, double chain and generation guards
// composed once, every erasure through one path — and
// says only what V is; its symbolic Env embeds SymFlowTable,
// the one model of that table's operations, beside SymGuards, the one
// model of the parse chain, and names its calls and its key↔packet
// correspondence. What survives a reshard is a list of typed record
// families (Decl.Families): FlowRecords derives a flow table's from the
// table accessor and a shard-of-record function, anything else (the
// balancer's backend pool, the policer's buckets) is a hand-written
// Records value; no record is ever held outside its family's closures.
// A new NF — the roadmap's DNS cache or NAT64 — therefore costs its
// stateless logic, the record type of its table, and one Decl.
//
// Counting is done once, by the kit, and published once. A core keeps
// one flat []uint64 and hands it out through Decl.Counters; the layout
// contract is: the reason cells first, one per declared Reason in
// ReasonID order, then the expired count when the NF declares Expire,
// then whatever else the NF keeps (flows created, ...), in an order
// only the NF's own Stats view needs to know. Decl.Process and the
// fast path's Hit return each packet's reason beside its verdict, and
// the adapter, not the core, increments that one reason cell and keeps
// the reason as the trace ring's label. A sharded core's array is
// copied, whole, into its shard's nf.Block once per burst
// (nf.Publisher), and everything a reader sees is a function of one
// read of those blocks: the engine's Stats and the per-NF Stats types
// are views of the array computed from it and the ReasonSet's drop
// classes (StatsOf), the reason totals are its prefix,
// Sharded.Counters its sum over shards, and Reshard folds it into the
// new composition cell by cell.
package nfkit

import (
	"errors"
	"fmt"

	"vignat/internal/fastpath"
	"vignat/internal/libvig"
	"vignat/internal/nf"
	"vignat/internal/nf/telemetry"
)

// Decl is one network function's capability declaration: the closures
// that bind its production core C (the type holding its libVig state)
// to everything the kit derives. The per-NF packages build it in a
// single constructor (their `Kit` function) and the rest of the
// repository consumes only the derived artifacts.
type Decl[C any] struct {
	// Name identifies the NF in stats, logs, and reports.
	Name string

	// Clock supplies time to the derived batch paths (read once per
	// burst, the TSC-per-rx_burst amortization every NF here uses). A
	// clockless NF (the stateless discard) may leave it nil; batches
	// then run at time zero.
	Clock libvig.Clock

	// Capacity is the NF's total state capacity, split evenly across
	// shards by New. NewSharded rejects shard counts the capacity
	// cannot fill. Zero means the NF declares no divisible capacity
	// (stateless NFs).
	Capacity int

	// New builds shard `shard` of `shards` — a complete core owning
	// perShard state entries (the kit's even split of the declared
	// Capacity; 0 when no capacity is declared). Required by
	// NewSharded; Adapt does not use it.
	New func(shard, shards, perShard int) (C, error)

	// Process runs one packet through the core at an explicit time,
	// returning the engine-level verdict and the reason the packet is
	// tagged with. It must be allocation-free on the steady state and
	// count no reason itself: the caller does. It is the core's one
	// entry: the adapter (and, in tests, nfkittest.Differential) calls
	// it with the packet's parse in pkt.Parsed.
	Process func(core C, pkt *nf.Pkt, now libvig.Time) (nf.Verdict, telemetry.ReasonID)

	// Prefetch, when set, runs once before the per-packet loop of a
	// burst of more than one packet, at the burst's timestamp and with
	// every packet's parse in place: the
	// core's chance to look at the whole burst and start loading the
	// state lines its packets will need, so that their cache misses
	// overlap instead of queueing one probe at a time (see
	// FlowTable.Prefetch). It must be observationally pure — reads of NF
	// state, writes to scratch only — so that verdicts, state, counters
	// and expiry order are the same with the hook present or absent,
	// and allocation-free.
	Prefetch func(core C, pkts []nf.Pkt, now libvig.Time)

	// Expire advances state expiry to now without processing a packet,
	// returning the number of entries freed. Nil declares a stateless
	// NF (nothing ever expires).
	Expire func(core C, now libvig.Time) int

	// Counters returns the core's live counter array — its own
	// single-writer storage, not a copy, which the adapter counts each
	// packet's reason into, is read to publish it and, by Reshard only,
	// is added to by the goroutine that owns the core. Layout: reason
	// cells first, in ReasonID order, then the expired count when the
	// NF declares Expire, then anything else the NF counts; every core
	// of one declaration returns the same length.
	Counters func(core C) []uint64

	// ShardOf steers a frame to the shard owning its flow, for the
	// given shard count. It must be consistent (both directions of a
	// session yield the same shard), allocation-free, and safe for
	// concurrent use: the wire side runs it as the RSS function while
	// every run-to-completion worker re-steers its own bursts.
	// Unparseable frames may map anywhere. Nil restricts the NF to a
	// single shard.
	ShardOf func(frame []byte, fromInternal bool, shards int) int

	// FastPath, when set, opts the NF into the engine's
	// established-flow cache (nf.Config.FastPath): the derived adapter
	// implements nf.FastPather from these two hooks. See that
	// interface for the contract; the short form is that Offer is a
	// read-only lookup returning the state handle a hit touches plus
	// its invalidation guard, and Hit replays exactly the established
	// branch's state mutations and returns its reason. Nil keeps the NF
	// on the slow path unconditionally.
	FastPath *FastPathHooks[C]

	// Reasons declares the NF's outcome taxonomy: every packet the core
	// processes is tagged with one ReasonID from this set and counted in
	// that reason's cell of Counters. The taxonomy is cross-checked
	// against the symbolic path enumeration (VerifyReasons, fed by the
	// reason Sym.Spec names for each path): every declared reason must
	// be reachable by ≥1 enumerated path and every drop path must map to
	// exactly one drop-class reason — the labels are derived from the
	// proof, not hand-maintained.
	Reasons *telemetry.ReasonSet

	// Families, when set, lists the record families the core's state is
	// made of, in restore order — a family whose records name another's
	// (the balancer's stickies name backend slots) comes after it — which
	// makes the NF's shards movable units: the control plane rebuilds
	// the composition at a different shard count and restores every
	// record into the shard that owns it under the new partitioning (the
	// live-reshard verb), and Sharded.Occupancy answers how full each
	// family is. Counters need no family: they move through Counters.
	// Empty keeps the shard count fixed at construction.
	Families []Family[C]

	// CheckReshard, when set, vetoes shard counts the NF cannot
	// repartition to (the NAT requires capacity divisible by the shard
	// count, or the external port ranges would misalign with the table
	// split).
	CheckReshard func(shards int) error

	// Sym, when set, is the NF's symbolic-verification declaration;
	// Verify() derives the full proof run from it. See verify.go.
	Sym *SymSpec
}

// FastPathHooks is the declarative form of nf.FastPather: the two
// per-NF closures from which the adapter derives its fast-path
// binding.
type FastPathHooks[C any] struct {
	// Offer resolves a forwarded packet's pre-processing key to the
	// NF-opaque handle a future hit should touch and the guard that
	// invalidates the entry when the underlying state is erased.
	// ok=false declines (outcomes that could change while the state
	// lives must decline).
	Offer func(core C, key fastpath.Key) (aux uint64, guard fastpath.Guard, ok bool)
	// Hit replays the established branch for one packet: the same
	// state mutations (rejuvenate, charge, ...) as the slow path,
	// returning the same verdict and reason, which the adapter counts.
	// The engine replays the header rewrite from the cached template.
	Hit func(core C, aux uint64, pktLen int, now libvig.Time) (nf.Verdict, telemetry.ReasonID)
}

// validate checks the fields every derived artifact needs; forSharding
// additionally demands the sharded-composition fields.
func (d *Decl[C]) validate(forSharding bool) error {
	if d.Name == "" {
		return errors.New("nfkit: declaration needs a name")
	}
	if d.Process == nil {
		return fmt.Errorf("nfkit: %s declares no Process", d.Name)
	}
	if d.Reasons == nil || d.Counters == nil {
		return fmt.Errorf("nfkit: %s declares no Reasons/Counters", d.Name)
	}
	if forSharding && d.New == nil {
		return fmt.Errorf("nfkit: %s declares no shard constructor", d.Name)
	}
	if d.FastPath != nil && (d.FastPath.Offer == nil || d.FastPath.Hit == nil) {
		return fmt.Errorf("nfkit: %s declares a partial fast path (needs both Offer and Hit)", d.Name)
	}
	return nil
}

// StatsOf is the engine-visible view of a counter array laid out per
// the package contract: every packet lands in exactly one reason cell,
// so Processed is the sum of the reason cells, Dropped the sum of the
// drop-class ones, and Forwarded the rest; Expired is the cell after
// the reasons, 0 for an array of reason cells only.
func StatsOf(set *telemetry.ReasonSet, counters []uint64) nf.Stats {
	var processed, expired uint64
	for _, n := range counters[:set.Len()] {
		processed += n
	}
	if len(counters) > set.Len() {
		expired = counters[set.Len()]
	}
	dropped := set.SumDrops(counters)
	return nf.Stats{Processed: processed, Forwarded: processed - dropped, Dropped: dropped, Expired: expired}
}

// stats is StatsOf under the declaration: an NF that declares no
// Expire expires nothing, whatever its array holds after the reasons.
func (d *Decl[C]) stats(counters []uint64) nf.Stats {
	s := StatsOf(d.Reasons, counters)
	if d.Expire == nil {
		s.Expired = 0
	}
	return s
}

// scrape is every reader-side surface of one read of published
// counters: the Stats view (StatsOf) with the engine's flow-cache cells
// beside it, and the array itself under the declared taxonomy.
func (d *Decl[C]) scrape(counters []uint64, fc nf.FlowCache) nf.Scrape {
	return nf.Scrape{Stats: d.stats(counters).With(fc), Reasons: d.Reasons, Counters: counters}
}

// now reads the declared clock, or 0 for clockless NFs.
func (d *Decl[C]) now() libvig.Time {
	if d.Clock == nil {
		return 0
	}
	return d.Clock.Now()
}
