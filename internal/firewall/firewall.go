// Package firewall is the §7 generalization exercise: a second stateful
// NF built from the same parts as VigNAT, demonstrating the
// amortization the paper argues for — the libVig structures, their
// contracts, and the verification pipeline are reused wholesale; only
// the stateless logic and its specification are new.
//
// The NF is a stateful egress firewall (the classic companion to a
// NAT): packets from the internal network may always leave and
// establish sessions; packets from the external network are forwarded
// only if they belong to a session an internal host initiated. Unlike
// the NAT it rewrites nothing — the flow table answers pure
// membership questions. Sessions expire after Texp of inactivity,
// with the same expirator semantics as Fig. 6.
package firewall

import (
	"time"
	"unsafe"

	"vignat/internal/flow"
	"vignat/internal/libvig"
	"vignat/internal/nf"
	"vignat/internal/nf/nfkit"
	"vignat/internal/nf/telemetry"
)

// Reason IDs: the firewall's declared outcome taxonomy, cross-checked
// against the symbolic path enumeration (every ID below maps onto ≥1
// enumerated path; symspec.go's checkSpec names each path's reason).
const (
	ReasonFwdOut telemetry.ReasonID = iota
	ReasonFwdIn
	ReasonDropParse
	ReasonDropTableFull
	ReasonDropUnsolicited
	numReasons
)

// The lifecycle counter, which follows the reason cells in the
// firewall's counter array (the nfkit layout contract).
const (
	ctrExpired = int(numReasons) + iota
	numCounters
)

// Reasons is the firewall's outcome taxonomy.
var Reasons = telemetry.MustReasonSet("firewall",
	telemetry.Reason{ID: ReasonFwdOut, Name: "fwd_out", Help: "internal packet forwarded (session live or created)"},
	telemetry.Reason{ID: ReasonFwdIn, Name: "fwd_in", Help: "external packet of a live session forwarded"},
	telemetry.Reason{ID: ReasonDropParse, Name: "drop_parse", Drop: true, Help: "frame failed the parse/validation chain"},
	telemetry.Reason{ID: ReasonDropTableFull, Name: "drop_table_full", Drop: true, Help: "new session refused: table at capacity"},
	telemetry.Reason{ID: ReasonDropUnsolicited, Name: "drop_unsolicited", Drop: true, Help: "external packet matching no session"},
)

// SessionHandle is the firewall's opaque session reference, with the
// same capability discipline as the NAT's FlowHandle.
type SessionHandle int

// Env is the firewall's window onto the world — the same pattern as
// stateless NAT Env, so the symbolic engine drives it identically.
type Env interface {
	// Packet predicates (fork points; same guard ordering rules).
	FrameIntact() bool
	EtherIsIPv4() bool
	IPv4HeaderValid() bool
	NotFragment() bool
	L4Supported() bool
	L4HeaderIntact() bool
	PacketFromInternal() bool

	// Session-table operations (libVig dmap+dchain, no port allocator).
	ExpireSessions()
	LookupOutbound() (SessionHandle, bool) // by the packet's tuple
	LookupInbound() (SessionHandle, bool)  // by the reversed tuple index
	CreateSession() (SessionHandle, bool)  // false when the table is full
	Rejuvenate(h SessionHandle)

	// Outputs.
	ForwardOut()
	ForwardIn()
	Drop()
}

// ProcessPacket is the firewall's stateless logic, written once like
// the NAT's and proved in this form; production runs its generated
// instance (Fig. 6 analogue):
//
//	expire → classify → (internal: rejuvenate-or-create, forward;
//	                     external: forward iff session live, else drop)
//
// A conservative policy drops internal packets when the session table
// is full: letting them through untracked would make their replies
// unprovably-droppable, breaking the semantic property.
func ProcessPacket(env Env) {
	env.ExpireSessions()
	if !env.FrameIntact() || !env.EtherIsIPv4() || !env.IPv4HeaderValid() ||
		!env.NotFragment() || !env.L4Supported() || !env.L4HeaderIntact() {
		env.Drop()
		return
	}
	if env.PacketFromInternal() {
		h, ok := env.LookupOutbound()
		if ok {
			env.Rejuvenate(h)
		} else {
			h, ok = env.CreateSession()
		}
		if ok {
			env.ForwardOut()
		} else {
			env.Drop()
		}
		return
	}
	h, ok := env.LookupInbound()
	if ok {
		env.Rejuvenate(h)
		env.ForwardIn()
	} else {
		env.Drop()
	}
}

// session is the table record: the outbound tuple, as seen leaving
// (src = internal host). Its second key, the reply direction, is the
// reverse tuple, derived rather than stored.
type session struct {
	Out flow.ID
}

// A session is 16 bytes; either line fails to compile when it grows or
// shrinks.
const (
	_ = uint(16 - unsafe.Sizeof(session{}))
	_ = uint(unsafe.Sizeof(session{}) - 16)
)

// Firewall is the production binding: the verified stateless logic over
// the kit's flow table, whose guards keep a cached verdict from
// re-admitting unsolicited traffic through a freed, reallocated index.
// It runs ProcessPacket's body as prodProcessPacket, generated from it
// by vigor/instgen with *prodEnv for Env.
type Firewall struct {
	table *nfkit.FlowTable[session]
	clock libvig.Clock
	texp  libvig.Time
	env   prodEnv

	// counters[r] totals packets tagged with reason r — the only tally
	// a packet moves, counted by the adapter — followed by the
	// sessions-expired count. Single-writer.
	counters [numCounters]uint64
}

// New builds a firewall tracking up to capacity sessions with the given
// inactivity timeout.
func New(capacity int, timeout time.Duration, clock libvig.Clock) (*Firewall, error) {
	t, err := nfkit.NewFlowTable(capacity, true,
		func(s *session) flow.ID { return s.Out },
		func(s *session) flow.ID { return s.Out.Reverse() })
	if err != nil {
		return nil, err
	}
	fw := &Firewall{table: t, clock: clock, texp: timeout.Nanoseconds()}
	fw.env.fw = fw
	return fw, nil
}

// Table exposes the session table (tests, spec conformance checking).
func (fw *Firewall) Table() *nfkit.FlowTable[session] { return fw.table }

// Stats returns (processed, dropped): every packet is one reason cell,
// the dropped ones the drop-class cells.
func (fw *Firewall) Stats() (processed, dropped uint64) {
	s := nfkit.StatsOf(Reasons, fw.counters[:])
	return s.Processed, s.Dropped
}

// Expired returns the total sessions freed by expiry.
func (fw *Firewall) Expired() uint64 { return fw.counters[ctrExpired] }

// process runs one packet through prodProcessPacket, ProcessPacket
// instantiated at *prodEnv (process_gen.go, written by vigor/instgen).
func (fw *Firewall) process(pkt *nf.Pkt, now libvig.Time) (nf.Verdict, telemetry.ReasonID) {
	e := &fw.env
	e.reset(pkt, now)
	prodProcessPacket(e)
	return e.done()
}

// ExpireAt removes every session idle since before now−Texp without
// processing a packet (the pipeline's idle-poll hook), returning the
// number of sessions freed.
func (fw *Firewall) ExpireAt(now libvig.Time) int {
	freed := fw.table.Expire(now - fw.texp + 1)
	fw.counters[ctrExpired] += uint64(freed)
	return freed
}

// prodEnv binds Env to the real table; the same structure as the NAT's
// prodEnv.
type prodEnv struct {
	nfkit.PktGuards // the parse chain and arrival side, over packet P
	fw              *Firewall
	now             libvig.Time
	verdict         nf.Verdict
	// reason tags the packet's outcome. The decisive env-call sites
	// overwrite the parse-failure default (the policer's
	// overRate/tableFull flags are the same pattern): a create failure
	// means table-full, an inbound miss means unsolicited, the outputs
	// stamp the forward reasons.
	reason telemetry.ReasonID
}

var _ Env = (*prodEnv)(nil)

func (e *prodEnv) reset(pkt *nf.Pkt, now libvig.Time) {
	e.Take(pkt)
	e.now = now
	e.verdict = nf.Drop
	e.reason = ReasonDropParse
}

// done returns the packet's verdict and reason.
func (e *prodEnv) done() (nf.Verdict, telemetry.ReasonID) { return e.verdict, e.reason }

func (e *prodEnv) ExpireSessions() {
	// Same Fig. 6 convention as the NAT: expire when last+Texp <= now.
	_ = e.fw.ExpireAt(e.now)
}

func (e *prodEnv) LookupOutbound() (SessionHandle, bool) {
	i, ok := e.fw.table.LookupFst(e.P.ID, e.P.Hash)
	return SessionHandle(i), ok
}

func (e *prodEnv) LookupInbound() (SessionHandle, bool) {
	i, ok := e.fw.table.LookupSnd(e.P.ID, e.P.Hash)
	if !ok {
		e.reason = ReasonDropUnsolicited // the miss decides the drop
	}
	return SessionHandle(i), ok
}

func (e *prodEnv) CreateSession() (SessionHandle, bool) {
	idx, ok := e.fw.table.Add(session{Out: e.P.ID}, e.P.Hash, e.now)
	if !ok {
		e.reason = ReasonDropTableFull
	}
	return SessionHandle(idx), ok
}

func (e *prodEnv) Rejuvenate(h SessionHandle) {
	_ = e.fw.table.Rejuvenate(int(h), e.now)
}

func (e *prodEnv) ForwardOut() { e.verdict, e.reason = nf.Forward, ReasonFwdOut }
func (e *prodEnv) ForwardIn()  { e.verdict, e.reason = nf.Forward, ReasonFwdIn }
func (e *prodEnv) Drop()       { e.verdict = nf.Drop }
