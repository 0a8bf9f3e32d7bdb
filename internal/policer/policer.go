// Package policer is the §7 amortization argument, fourth iteration: a
// per-subscriber traffic policer built from the same parts as the NAT,
// the firewall, and the balancer. The libVig structures and their
// contracts are reused wholesale — a TokenBucket vector joins the
// library — and only the stateless logic and its specification are new.
//
// The policer enforces a per-client-IP download budget, the Vigor
// policer's job: every packet arriving on the external interface is
// charged, at its wire length, against a token bucket keyed by its
// destination address (the subscriber it is headed for). The bucket
// refills lazily at Rate bytes/second up to a depth of Burst bytes —
// tokens = min(burst, tokens + rate·Δt), integer arithmetic, no
// per-tick timers — so conforming traffic always passes, sustained
// overload is clipped to the configured rate, and a burst can never
// exceed the configured depth. Upload traffic (from the internal
// interface) is not policed and passes through untouched; the policer
// rewrites nothing in either direction.
//
// Subscriber state is pinned by the standard HMap+DChain composition:
// the map takes a client address to its bucket index, the chain orders
// subscribers by last-seen time, and Fig. 6 expirator semantics forget
// a subscriber idle for Texp — whose next packet then starts over with
// a fresh full burst.
package policer

import (
	"errors"
	"time"

	"vignat/internal/fastpath"
	"vignat/internal/flow"
	"vignat/internal/libvig"
	"vignat/internal/nf"
	"vignat/internal/nf/nfkit"
	"vignat/internal/nf/telemetry"
)

// Reason IDs: the policer's declared outcome taxonomy, cross-checked
// against the symbolic path enumeration (symspec.go's checkSpec names
// each path's reason).
const (
	ReasonPassthrough telemetry.ReasonID = iota
	ReasonConform
	ReasonDropMalformed
	ReasonDropTableFull
	ReasonDropOverRate
	numReasons
)

// The lifecycle counters, which follow the reason cells in the
// policer's counter array (the nfkit layout contract).
const (
	ctrBucketsCreated = int(numReasons) + iota
	ctrBucketsExpired
	numCounters
)

// Reasons is the policer's outcome taxonomy.
var Reasons = telemetry.MustReasonSet("vigpol",
	telemetry.Reason{ID: ReasonPassthrough, Name: "passthrough", Help: "egress packet forwarded unmetered"},
	telemetry.Reason{ID: ReasonConform, Name: "conform", Help: "ingress packet within its subscriber's budget"},
	telemetry.Reason{ID: ReasonDropMalformed, Name: "drop_malformed", Drop: true, Help: "frame failed the IPv4 parse chain"},
	telemetry.Reason{ID: ReasonDropTableFull, Name: "drop_table_full", Drop: true, Help: "fresh subscriber refused: table at capacity"},
	telemetry.Reason{ID: ReasonDropOverRate, Name: "drop_over_rate", Drop: true, Help: "charge exceeded the subscriber's budget"},
)

// BucketHandle is the policer's opaque subscriber reference, with the
// same capability discipline as the NAT's FlowHandle.
type BucketHandle int

// Verdict is the externally visible outcome for one packet.
type Verdict uint8

// Verdicts.
const (
	// VerdictDrop discards the packet (malformed, over-rate, or an
	// untrackable new subscriber when the table is full).
	VerdictDrop Verdict = iota
	// VerdictConform forwards an ingress packet whose charge fit its
	// subscriber's budget.
	VerdictConform
	// VerdictPassthrough forwards an egress packet, which the policer
	// does not meter.
	VerdictPassthrough
)

// String returns the verdict mnemonic.
func (v Verdict) String() string {
	switch v {
	case VerdictDrop:
		return "drop"
	case VerdictConform:
		return "conform"
	case VerdictPassthrough:
		return "passthrough"
	default:
		return "verdict(?)"
	}
}

// Config parameterizes a Policer.
type Config struct {
	// Rate is the sustained per-subscriber budget in bytes/second.
	Rate int64
	// Burst is the per-subscriber bucket depth in bytes.
	Burst int64
	// Capacity bounds the number of concurrently tracked subscribers.
	Capacity int
	// Timeout is the subscriber inactivity expiry (Texp): an idle
	// subscriber's state is forgotten, and their next packet re-admits
	// them with a full burst.
	Timeout time.Duration
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	if c.Rate <= 0 || c.Rate > libvig.MaxRateBytesPerSec {
		return errors.New("policer: rate must be in (0, libvig.MaxRateBytesPerSec]")
	}
	if c.Burst <= 0 || c.Burst > libvig.MaxBurstBytes {
		return errors.New("policer: burst must be in (0, libvig.MaxBurstBytes]")
	}
	if c.Capacity <= 0 {
		return errors.New("policer: capacity must be positive")
	}
	if c.Timeout <= 0 {
		return errors.New("policer: timeout must be positive")
	}
	return nil
}

// Stats counts the policer's externally visible actions: a read-time
// view of the counter array, in which every packet is one reason cell.
// The subscriber accounting invariant is BucketsCreated −
// BucketsExpired == tracked subscribers.
type Stats struct {
	Processed        uint64
	Passthrough      uint64 // egress, never metered
	Conformed        uint64 // ingress within budget, forwarded
	DroppedOverRate  uint64 // ingress beyond the subscriber's budget
	DroppedTableFull uint64 // fresh subscriber with no free slot
	DroppedMalformed uint64 // frames that do not parse as IPv4
	BucketsCreated   uint64
	BucketsExpired   uint64
}

// Dropped returns the total packets dropped, over all causes.
func (s Stats) Dropped() uint64 {
	return s.DroppedOverRate + s.DroppedTableFull + s.DroppedMalformed
}

// statsOf is the Stats view of a policer counter array (one core's, or
// the cell-by-cell sum of several).
func statsOf(c []uint64) Stats {
	s := nfkit.StatsOf(Reasons, c, c[ctrBucketsExpired])
	return Stats{
		Processed:        s.Processed,
		Passthrough:      c[ReasonPassthrough],
		Conformed:        c[ReasonConform],
		DroppedOverRate:  c[ReasonDropOverRate],
		DroppedTableFull: c[ReasonDropTableFull],
		DroppedMalformed: c[ReasonDropMalformed],
		BucketsCreated:   c[ctrBucketsCreated],
		BucketsExpired:   c[ctrBucketsExpired],
	}
}

// Env is the policer's window onto the world — the same pattern as the
// NAT's, firewall's, and balancer's stateless Env, so the logic is
// written once: the symbolic engine executes ProcessPacket, and
// production its body, generated as prodProcessPacket over *prodEnv by
// vigor/instgen.
type Env interface {
	// Packet predicates (fork points; same guard ordering rules). The
	// policer meters any IPv4 packet — fragments and non-TCP/UDP
	// protocols consume budget like everything else, so no L4 guards.
	FrameIntact() bool
	EtherIsIPv4() bool
	IPv4HeaderValid() bool
	// PacketFromInternal reports the arrival side; only external-side
	// (ingress) traffic is metered.
	PacketFromInternal() bool

	// libVig operations.
	ExpireState()
	LookupBucket() (BucketHandle, bool) // by the packet's destination IP
	CreateBucket() (BucketHandle, bool) // false when the table is full
	Rejuvenate(h BucketHandle)
	// Charge draws the packet's wire length from the bucket, reporting
	// whether it conformed. A non-conforming charge consumes nothing.
	Charge(h BucketHandle) bool

	// Output actions.
	Forward()
	Passthrough()
	Drop()
}

// ProcessPacket is the policer's stateless per-packet logic, the Fig. 6
// analogue:
//
//	expire → classify → (internal side: passthrough;
//	                     external side: find-or-admit the subscriber,
//	                     charge the wire length — conform forwards,
//	                     an empty bucket drops)
//
// A conservative policy drops ingress packets for untracked subscribers
// when the table is full: forwarding them unmetered would let a
// targeted flood bypass policing exactly when the box is busiest.
func ProcessPacket(env Env) {
	env.ExpireState()
	if !env.FrameIntact() || !env.EtherIsIPv4() || !env.IPv4HeaderValid() {
		env.Drop()
		return
	}
	if env.PacketFromInternal() {
		env.Passthrough()
		return
	}
	h, ok := env.LookupBucket()
	if ok {
		env.Rejuvenate(h)
	} else {
		h, ok = env.CreateBucket()
		if !ok {
			env.Drop() // subscriber table full
			return
		}
	}
	if env.Charge(h) {
		env.Forward()
	} else {
		env.Drop() // over rate
	}
}

// Policer is the production binding: the stateless logic over an
// HMap+DChain subscriber table and a TokenBucket vector.
type Policer struct {
	cfg  Config
	texp libvig.Time

	subs    *libvig.Map[flow.Addr]    // client IP → bucket index, keyed through addrs
	addrs   *libvig.Vector[flow.Addr] // bucket index → client IP
	chain   *libvig.DChain
	buckets *libvig.TokenBucket
	erasers []libvig.IndexEraser

	clock libvig.Clock
	env   prodEnv
	// counters[r] totals packets tagged with reason r — the only tally
	// a packet moves — followed by the ctr* lifecycle counts;
	// lastReason is the most recent tag. Single-writer.
	counters   [numCounters]uint64
	lastReason telemetry.ReasonID
	// fpGens invalidates engine flow-cache entries: one generation per
	// bucket index, bumped when the subscriber's state is erased.
	fpGens *fastpath.GenTable
}

// New builds a policer from cfg, drawing time from clock.
func New(cfg Config, clock libvig.Clock) (*Policer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	addrs, err := libvig.NewVector[flow.Addr](cfg.Capacity)
	if err != nil {
		return nil, err
	}
	// keyOf is handed only stored bucket indices, which are in range.
	subs, err := libvig.NewKeylessMap(cfg.Capacity, func(i int) flow.Addr { a, _ := addrs.Get(i); return a })
	if err != nil {
		return nil, err
	}
	chain, err := libvig.NewDChain(cfg.Capacity)
	if err != nil {
		return nil, err
	}
	buckets, err := libvig.NewTokenBucket(cfg.Capacity, cfg.Rate, cfg.Burst)
	if err != nil {
		return nil, err
	}
	p := &Policer{
		cfg:     cfg,
		texp:    cfg.Timeout.Nanoseconds(),
		subs:    subs,
		addrs:   addrs,
		chain:   chain,
		buckets: buckets,
		clock:   clock,
	}
	p.erasers = []libvig.IndexEraser{libvig.IndexEraserFunc(p.eraseSubscriber)}
	p.env.pol = p
	p.fpGens = fastpath.NewGenTable(cfg.Capacity)
	return p, nil
}

// eraseSubscriber tears down the map entry of an expiring bucket index.
// The bucket's level needs no reset here: (re-)admission always Fills.
func (p *Policer) eraseSubscriber(i int) error {
	addr, err := p.addrs.Get(i)
	if err != nil {
		return err
	}
	if err := p.subs.Erase(addr); err != nil {
		return err
	}
	p.fpGens.Bump(i)
	return nil
}

// admit gives addr a bucket index stamped at stamp — chain, address
// vector and map together or not at all; the address is set first, so
// the key the map reads through addrs holds from Put to the erase of
// idx. Its two callers say what the bucket holds: the packet path
// fills it, a restore puts back what it held.
func (p *Policer) admit(addr flow.Addr, stamp libvig.Time) (int, error) {
	idx, err := p.chain.Allocate(stamp)
	if err != nil {
		return 0, err
	}
	if err := p.addrs.Set(idx, addr); err != nil {
		_ = p.chain.Free(idx)
		return 0, err
	}
	if err := p.subs.Put(addr, idx); err != nil {
		_ = p.chain.Free(idx)
		return 0, err
	}
	return idx, nil
}

// Config returns the policer's configuration.
func (p *Policer) Config() Config { return p.cfg }

// Stats returns a snapshot of the counters.
func (p *Policer) Stats() Stats { return statsOf(p.counters[:]) }

// Subscribers returns the number of currently tracked subscribers.
func (p *Policer) Subscribers() int { return p.subs.Size() }

// Budget returns subscriber addr's available bytes as of now, if
// tracked (tests and stats drill-down; the access refills).
func (p *Policer) Budget(addr flow.Addr, now libvig.Time) (int64, bool) {
	i, ok := p.subs.Get(addr)
	if !ok {
		return 0, false
	}
	lvl, err := p.buckets.Level(i, now)
	if err != nil {
		return 0, false
	}
	return lvl, true
}

// ExpireAt removes every subscriber idle since before now−Texp without
// processing a packet (the pipeline's idle-poll hook), returning the
// number of subscribers freed.
func (p *Policer) ExpireAt(now libvig.Time) int {
	freed, _ := libvig.ExpireItems(p.chain, now-p.texp+1, p.erasers...)
	p.counters[ctrBucketsExpired] += uint64(freed)
	return freed
}

// Process runs one frame through the policer at the clock's current
// time. Frames are never modified. This is the per-packet fast path: it
// performs no allocation.
func (p *Policer) Process(frame []byte, fromInternal bool) Verdict {
	return p.ProcessAt(frame, fromInternal, p.clock.Now())
}

// ProcessAt is Process at an explicit time, for batched callers that
// read the clock once per burst.
func (p *Policer) ProcessAt(frame []byte, fromInternal bool, now libvig.Time) Verdict {
	return p.process(&nf.Pkt{Frame: frame, FromInternal: fromInternal}, now)
}

// process runs one packet through prodProcessPacket, ProcessPacket
// instantiated at *prodEnv (process_gen.go, written by vigor/instgen).
func (p *Policer) process(pkt *nf.Pkt, now libvig.Time) Verdict {
	e := &p.env
	e.reset(pkt, now)
	prodProcessPacket(e)
	return e.done()
}

// prodEnv binds Env to the real structures; the same shape as every
// other NF's prodEnv. It is embedded in Policer and reset per packet,
// so the fast path allocates nothing.
type prodEnv struct {
	// The parse chain (the policer asks only its first three guards)
	// and the arrival side, over packet P, the same parse every NF takes.
	nfkit.PktGuards
	pol     *Policer
	now     libvig.Time
	verdict Verdict
	// reason tags the packet's outcome. The decisive env-call sites
	// overwrite the malformed default: a creation failure means
	// table-full, a refused charge over-rate, the forwarding outputs
	// stamp their own — the same pattern as the other NFs.
	reason telemetry.ReasonID
}

var _ Env = (*prodEnv)(nil)

func (e *prodEnv) reset(pkt *nf.Pkt, now libvig.Time) {
	e.Take(pkt)
	e.now = now
	e.verdict = VerdictDrop
	e.reason = ReasonDropMalformed
}

// done counts the packet under its reason and returns its verdict.
func (e *prodEnv) done() Verdict {
	e.pol.counters[e.reason]++
	e.pol.lastReason = e.reason
	return e.verdict
}

// --- libVig operations ---

func (e *prodEnv) ExpireState() {
	// Same Fig. 6 convention as the NAT: expire when last+Texp <= now.
	_ = e.pol.ExpireAt(e.now)
}

func (e *prodEnv) LookupBucket() (BucketHandle, bool) {
	i, ok := e.pol.subs.Get(e.P.Pkt.DstIP)
	return BucketHandle(i), ok
}

func (e *prodEnv) CreateBucket() (BucketHandle, bool) {
	idx, err := e.pol.admit(e.P.Pkt.DstIP, e.now)
	if err != nil {
		e.reason = ReasonDropTableFull
		return 0, false
	}
	// A fresh (or re-admitted) subscriber starts with a full burst.
	_ = e.pol.buckets.Fill(idx, e.now)
	e.pol.counters[ctrBucketsCreated]++
	return BucketHandle(idx), true
}

func (e *prodEnv) Rejuvenate(h BucketHandle) {
	_ = e.pol.chain.Rejuvenate(int(h), e.now)
}

func (e *prodEnv) Charge(h BucketHandle) bool {
	// The charge is the wire length: what the subscriber's link carries.
	ok := e.pol.buckets.Charge(int(h), len(e.P.Pkt.Data), e.now)
	if !ok {
		e.reason = ReasonDropOverRate
	}
	return ok
}

// --- output actions ---

func (e *prodEnv) Forward()     { e.verdict, e.reason = VerdictConform, ReasonConform }
func (e *prodEnv) Passthrough() { e.verdict, e.reason = VerdictPassthrough, ReasonPassthrough }
func (e *prodEnv) Drop()        { e.verdict = VerdictDrop }
