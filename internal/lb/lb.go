// Package lb is a Maglev-style L4 load balancer built from the same
// parts as the NAT and the firewall — the §7 amortization argument,
// third iteration: the libVig structures and their contracts are reused
// wholesale (a new CHT joins the library), only the stateless logic and
// its specification are new.
//
// The balancer fronts one virtual IP (VIP). Packets from the client
// side addressed to the VIP are steered to a live backend: a sticky
// flow table (DoubleMap + DChain, exactly the firewall's session-table
// shape) pins every flow to the backend it first hit, and flows without
// sticky state select through the Maglev consistent-hash table, so even
// a freshly restarted balancer sends most flows where its peers would.
// The destination IP is rewritten in place (ports untouched — backends
// listen on the VIP port) with RFC 1624 incremental checksum updates,
// the same path the NAT's rewrites take. Backend replies are matched by
// the reverse tuple, their source rewritten back to the VIP, and the
// sticky entry rejuvenated. Sticky entries expire after Timeout of
// inactivity with Fig. 6 expirator semantics. Backends come and go only
// by the control plane's AddBackend and RemoveBackend; a second DChain
// allocates their slots, and a removed backend's flows re-select.
package lb

import (
	"errors"
	"fmt"
	"time"
	"unsafe"

	"vignat/internal/flow"
	"vignat/internal/libvig"
	"vignat/internal/nf"
	"vignat/internal/nf/nfkit"
	"vignat/internal/nf/telemetry"
)

// Reason IDs: the balancer's declared outcome taxonomy, cross-checked
// against the symbolic path enumeration (symspec.go's checkSpec names
// each path's reason). The IDs are config-independent; whether the two
// not-owned classifications forward or drop depends on
// Config.Passthrough, so the ReasonSet — names and drop classes — is
// built per configuration by ReasonsFor.
const (
	ReasonFwdBackend telemetry.ReasonID = iota
	ReasonFwdClient
	ReasonPassNonVIP    // client-side traffic not addressed to the VIP
	ReasonPassNoSession // backend-side traffic matching no live sticky entry
	ReasonDropParse
	ReasonDropNoBackend
	ReasonDropTableFull
	numReasons
)

// The lifecycle counters, which follow the reason cells in the
// balancer's counter array (the nfkit layout contract).
const (
	ctrFlowsExpired = int(numReasons) + iota
	ctrFlowsCreated
	ctrFlowsUnpinned
	numCounters
)

// ReasonsFor builds the balancer's outcome taxonomy for one
// orientation of Config.Passthrough: in passthrough (service-chain)
// mode not-owned traffic is forwarded, standalone it is dropped — same
// IDs, same tagging code, different names and drop classes.
func ReasonsFor(passthrough bool) *telemetry.ReasonSet {
	passName, sessName := "pass_non_vip", "pass_no_session"
	if !passthrough {
		passName, sessName = "drop_non_vip", "drop_no_session"
	}
	return telemetry.MustReasonSet("viglb",
		telemetry.Reason{ID: ReasonFwdBackend, Name: "fwd_backend", Help: "VIP packet steered to its (sticky or freshly selected) backend"},
		telemetry.Reason{ID: ReasonFwdClient, Name: "fwd_client", Help: "backend reply forwarded to the client, source restored to the VIP"},
		telemetry.Reason{ID: ReasonPassNonVIP, Name: passName, Drop: !passthrough, Help: "client-side packet not addressed to the VIP"},
		telemetry.Reason{ID: ReasonPassNoSession, Name: sessName, Drop: !passthrough, Help: "backend-side packet matching no live sticky entry"},
		telemetry.Reason{ID: ReasonDropParse, Name: "drop_parse", Drop: true, Help: "frame failed the parse/validation chain"},
		telemetry.Reason{ID: ReasonDropNoBackend, Name: "drop_no_backend", Drop: true, Help: "VIP packet refused: no live backend in the CHT"},
		telemetry.Reason{ID: ReasonDropTableFull, Name: "drop_table_full", Drop: true, Help: "VIP packet refused: sticky table at capacity"},
	)
}

// Verdict is the externally visible outcome for one packet.
type Verdict uint8

// Verdicts.
const (
	// VerdictDrop discards the packet.
	VerdictDrop Verdict = iota
	// VerdictToBackend forwards a client packet toward the backend
	// side, destination rewritten to the selected backend.
	VerdictToBackend
	// VerdictToClient forwards a backend reply toward the client side,
	// source rewritten back to the VIP.
	VerdictToClient
	// VerdictPassthrough forwards a packet the balancer does not own
	// (not VIP traffic) unmodified — service-chain mode only.
	VerdictPassthrough
)

// String returns the verdict mnemonic.
func (v Verdict) String() string {
	switch v {
	case VerdictDrop:
		return "drop"
	case VerdictToBackend:
		return "to-backend"
	case VerdictToClient:
		return "to-client"
	case VerdictPassthrough:
		return "passthrough"
	default:
		return "verdict(?)"
	}
}

// DefaultCHTSize is every balancer's Maglev lookup-table size: prime,
// and ≥100× the catalog's default of 8 backends so the ±1 bucket
// imbalance stays under 1%.
const DefaultCHTSize = 1021

// Config parameterizes a Balancer.
type Config struct {
	// VIP is the virtual IP the balancer fronts.
	VIP flow.Addr
	// VIPPort is the VIP's service port; 0 accepts any destination
	// port on the VIP.
	VIPPort uint16
	// Capacity is the sticky flow-table capacity.
	Capacity int
	// Timeout is the sticky-entry inactivity expiry (Texp).
	Timeout time.Duration
	// MaxBackends bounds the backend pool.
	MaxBackends int
	// ClientsInternal flips the balancer's orientation: by default
	// clients face the external port and backends the internal one
	// (the datacenter posture); with ClientsInternal the VIP fronts an
	// upstream service for internal hosts (the home-gateway posture).
	ClientsInternal bool
	// Passthrough, when true, forwards non-VIP traffic unmodified
	// instead of dropping it — required when the balancer sits in a
	// service chain where other elements own the rest of the traffic.
	Passthrough bool
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	if c.VIP == 0 {
		return errors.New("lb: VIP must be set")
	}
	if c.Capacity <= 0 {
		return errors.New("lb: capacity must be positive")
	}
	if c.Timeout <= 0 {
		return errors.New("lb: timeout must be positive")
	}
	if c.MaxBackends <= 0 {
		return errors.New("lb: backend capacity must be positive")
	}
	return nil
}

// FlowHandle is the balancer's opaque sticky-entry reference, with the
// same capability discipline as the NAT's FlowHandle.
type FlowHandle int

// BackendHandle references a backend slot.
type BackendHandle int

// Stats counts the balancer's externally visible actions: a read-time
// view of the counter array, in which every packet is one reason cell.
// The sticky table's accounting invariant is
//
//	FlowsCreated − FlowsExpired − FlowsUnpinned == live flows:
//
// entries leave either by inactivity (FlowsExpired) or because their
// backend left and they must re-select (FlowsUnpinned).
type Stats struct {
	Processed     uint64
	Dropped       uint64
	ToBackend     uint64 // client → backend, dst rewritten
	ToClient      uint64 // backend → client, src restored to VIP
	Passthrough   uint64 // non-VIP traffic forwarded unmodified
	FlowsCreated  uint64
	FlowsExpired  uint64
	FlowsUnpinned uint64 // sticky entries erased because their backend left
}

// statsOf is the Stats view of a balancer counter array (one core's,
// or the cell-by-cell sum of several) under the given orientation's
// taxonomy: standalone, the two not-owned classifications are drops
// and nothing passes through.
func statsOf(set *telemetry.ReasonSet, c []uint64) Stats {
	s := nfkit.StatsOf(set, c)
	return Stats{
		Processed:     s.Processed,
		Dropped:       s.Dropped,
		ToBackend:     c[ReasonFwdBackend],
		ToClient:      c[ReasonFwdClient],
		Passthrough:   s.Forwarded - c[ReasonFwdBackend] - c[ReasonFwdClient],
		FlowsCreated:  c[ctrFlowsCreated],
		FlowsExpired:  c[ctrFlowsExpired],
		FlowsUnpinned: c[ctrFlowsUnpinned],
	}
}

// Env is the balancer's window onto the world — the same pattern as the
// NAT's and firewall's stateless Env, so the logic is written once: the
// symbolic driver executes ProcessPacket, and production its body,
// generated as prodProcessPacket over *prodEnv by vigor/instgen.
type Env interface {
	// Packet predicates (fork points; same guard ordering rules).
	FrameIntact() bool
	EtherIsIPv4() bool
	IPv4HeaderValid() bool
	NotFragment() bool
	L4Supported() bool
	L4HeaderIntact() bool
	// PacketFromClient reports whether the frame arrived on the
	// client-facing side (which physical side that is depends on the
	// balancer's orientation).
	PacketFromClient() bool
	// DstIsVIP reports whether the frame addresses the VIP (and its
	// service port, when one is configured).
	DstIsVIP() bool

	// libVig operations.
	ExpireState()
	LookupSticky() (FlowHandle, bool) // by the client tuple
	LookupReply() (FlowHandle, bool)  // by the backend-side reverse tuple
	SelectBackend() (BackendHandle, bool)
	CreateSticky(b BackendHandle) (FlowHandle, bool)
	Rejuvenate(h FlowHandle)

	// Output actions.
	ForwardToBackend(h FlowHandle)
	ForwardToClient(h FlowHandle)
	Passthrough()
	Drop()
}

// ProcessPacket is the balancer's stateless per-packet logic, the Fig. 6
// analogue:
//
//	expire → classify → (client side, dst=VIP: sticky-or-CHT-select,
//	                     rewrite dst, forward to backend;
//	                     backend side: reply of a live sticky flow →
//	                     restore src to VIP, forward to client;
//	                     anything else: passthrough or drop)
//
// A conservative policy drops VIP packets when the sticky table is
// full: forwarding them untracked would let a later packet of the same
// flow land on a different backend, breaking the stickiness property
// the oracle enforces.
func ProcessPacket(env Env) {
	env.ExpireState()
	if !env.FrameIntact() || !env.EtherIsIPv4() || !env.IPv4HeaderValid() ||
		!env.NotFragment() || !env.L4Supported() || !env.L4HeaderIntact() {
		env.Drop()
		return
	}
	if env.PacketFromClient() {
		if !env.DstIsVIP() {
			env.Passthrough()
			return
		}
		if h, ok := env.LookupSticky(); ok {
			env.Rejuvenate(h)
			env.ForwardToBackend(h)
			return
		}
		b, ok := env.SelectBackend()
		if !ok {
			env.Drop() // no live backend
			return
		}
		h, ok := env.CreateSticky(b)
		if !ok {
			env.Drop() // sticky table full
			return
		}
		env.ForwardToBackend(h)
		return
	}
	if h, ok := env.LookupReply(); ok {
		env.Rejuvenate(h)
		env.ForwardToClient(h)
		return
	}
	env.Passthrough()
}

// sticky is the flow-table record: the client-side tuple and the
// backend it is pinned to, by slot and by address. Its second key, the
// reply tuple as the backend answers it, is replyKey(Client, IP),
// derived rather than stored; IP is written at creation and never
// changes while the record lives (a backend that leaves takes its
// stickies with it), as the table's keys must not.
type sticky struct {
	Client  flow.ID   // as the client sends it (dst = VIP)
	IP      flow.Addr // the backend's address
	Backend int32
}

// A sticky is 24 bytes; either line fails to compile when it grows or
// shrinks.
const (
	_ = uint(24 - unsafe.Sizeof(sticky{}))
	_ = uint(unsafe.Sizeof(sticky{}) - 24)
)

// backend is one backend slot's identity.
type backend struct {
	IP flow.Addr
}

// Balancer is the production binding: the stateless logic over a CHT,
// a DChain allocating backend slots, and the kit's flow table of
// stickies.
type Balancer struct {
	cfg  Config
	texp libvig.Time

	cht          *libvig.CHT
	backends     *libvig.Vector[backend]
	backendChain *libvig.DChain

	flows *nfkit.FlowTable[sticky] // pins every client tuple to its backend
	clock libvig.Clock

	env prodEnv
	// reasons is the taxonomy of this balancer's orientation
	// (ReasonsFor(cfg.Passthrough)): its drop classes are what the
	// Stats view reads Dropped off. counters[r] totals packets tagged
	// with reason r — the only tally a packet moves, counted by the
	// adapter — followed by the ctr* lifecycle counts. Single-writer.
	reasons  *telemetry.ReasonSet
	counters [numCounters]uint64
}

// New builds a balancer from cfg, drawing time from clock.
func New(cfg Config, clock libvig.Clock) (*Balancer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cht, err := libvig.NewCHT(cfg.MaxBackends, DefaultCHTSize)
	if err != nil {
		return nil, err
	}
	backends, err := libvig.NewVector[backend](cfg.MaxBackends)
	if err != nil {
		return nil, err
	}
	backendChain, err := libvig.NewDChain(cfg.MaxBackends)
	if err != nil {
		return nil, err
	}
	flows, err := nfkit.NewFlowTable(cfg.Capacity, cfg.ClientsInternal,
		func(s *sticky) flow.ID { return s.Client },
		func(s *sticky) flow.ID { return replyKey(s.Client, s.IP) })
	if err != nil {
		return nil, fmt.Errorf("lb: %w", err)
	}
	b := &Balancer{
		cfg:          cfg,
		texp:         cfg.Timeout.Nanoseconds(),
		cht:          cht,
		backends:     backends,
		backendChain: backendChain,
		flows:        flows,
		clock:        clock,
		reasons:      ReasonsFor(cfg.Passthrough),
	}
	b.env.lb = b
	return b, nil
}

// Table exposes the sticky table (tests, spec conformance checking).
func (b *Balancer) Table() *nfkit.FlowTable[sticky] { return b.flows }

// Config returns the balancer's configuration.
func (b *Balancer) Config() Config { return b.cfg }

// Stats returns a snapshot of the counters.
func (b *Balancer) Stats() Stats { return statsOf(b.reasons, b.counters[:]) }

// LiveBackends returns the number of live backends.
func (b *Balancer) LiveBackends() int { return b.cht.Live() }

// Backend returns backend i's address, if i is live.
func (b *Balancer) Backend(i int) (flow.Addr, bool) {
	if !b.cht.IsLive(i) {
		return 0, false
	}
	be, err := b.backends.Get(i)
	if err != nil {
		return 0, false
	}
	return be.IP, true
}

// AddBackend registers a backend by address, allocating its slot at
// now, and returns its slot index. The CHT permutation derives from the
// address, so the same backend re-added later reclaims its buckets.
// Duplicate addresses are rejected — the reply tuple would be
// ambiguous.
func (b *Balancer) AddBackend(ip flow.Addr, now libvig.Time) (int, error) {
	if ip == 0 || ip == b.cfg.VIP {
		return 0, errors.New("lb: backend address must be set and differ from the VIP")
	}
	for i := 0; i < b.cht.Capacity(); i++ {
		if addr, ok := b.Backend(i); ok && addr == ip {
			return 0, fmt.Errorf("lb: backend %v already registered", ip)
		}
	}
	idx, err := b.backendChain.Allocate(now)
	if err != nil {
		return 0, fmt.Errorf("lb: backend pool full: %w", err)
	}
	return idx, b.seatBackend(idx, ip)
}

// seatBackend fills freshly allocated pool slot idx — address vector
// and CHT — or gives the slot back.
func (b *Balancer) seatBackend(idx int, ip flow.Addr) error {
	err := b.backends.Set(idx, backend{IP: ip})
	if err == nil {
		err = b.cht.AddBackend(idx, uint64(ip))
	}
	if err != nil {
		_ = b.backendChain.Free(idx)
	}
	return err
}

// RemoveBackend drains backend i: it leaves the CHT (survivor buckets
// barely move — the Maglev property) and every sticky flow pinned to it
// is erased, so exactly those flows re-select on their next packet.
// Flows on other backends are untouched.
func (b *Balancer) RemoveBackend(i int) error {
	if !b.cht.IsLive(i) {
		return errors.New("lb: backend not live")
	}
	return b.removeBackend(i)
}

// removeBackend frees backend i's slot, takes it out of the CHT, and
// erases the sticky flows pinned to it, counted as unpinned.
func (b *Balancer) removeBackend(i int) error {
	if b.backendChain.IsAllocated(i) {
		if err := b.backendChain.Free(i); err != nil {
			return err
		}
	}
	if err := b.cht.RemoveBackend(i); err != nil {
		return err
	}
	// Remove the sticky flows pinned to the dead backend: O(live flows),
	// which only a backend's departure ever pays.
	b.counters[ctrFlowsUnpinned] += uint64(b.flows.RemoveIf(func(s *sticky) bool { return int(s.Backend) == i }))
	return nil
}

// ExpireAt removes every sticky entry idle since before now−Texp,
// without processing a packet (the pipeline's idle-poll hook). It
// returns the number of entries freed.
func (b *Balancer) ExpireAt(now libvig.Time) int {
	freed := b.flows.Expire(now - b.texp + 1)
	b.counters[ctrFlowsExpired] += uint64(freed)
	return freed
}

// process runs one packet through prodProcessPacket, ProcessPacket
// instantiated at *prodEnv (process_gen.go, written by vigor/instgen).
func (b *Balancer) process(pkt *nf.Pkt, now libvig.Time) (nf.Verdict, telemetry.ReasonID) {
	e := &b.env
	e.reset(pkt, now)
	prodProcessPacket(e)
	return e.done()
}

// replyKey derives the backend-side reply tuple for a client tuple
// bound to backendIP: the reverse of the rewritten packet. Ports are
// never rewritten, so the reply's source port is the client's
// destination port and vice versa.
func replyKey(client flow.ID, backendIP flow.Addr) flow.ID {
	return flow.ID{
		SrcIP:   backendIP,
		SrcPort: client.DstPort,
		DstIP:   client.SrcIP,
		DstPort: client.SrcPort,
		Proto:   client.Proto,
	}
}

// clientKeyOfReply reconstructs the client tuple a backend reply
// answers: the VIP is configuration, everything else is in the reply.
// Both directions of a session therefore hash identically, which is
// what lets the sharded balancer (and the wire's RSS) steer them to the
// same shard with no shared state.
func clientKeyOfReply(reply flow.ID, vip flow.Addr) flow.ID {
	return flow.ID{
		SrcIP:   reply.DstIP,
		SrcPort: reply.DstPort,
		DstIP:   vip,
		DstPort: reply.SrcPort,
		Proto:   reply.Proto,
	}
}

// prodEnv binds Env to the real structures; the same shape as the NAT's
// and firewall's prodEnv. It is embedded in Balancer and reset per
// packet, so the fast path allocates nothing.
type prodEnv struct {
	nfkit.PktGuards // the parse chain and arrival side, over packet P
	lb              *Balancer
	now             libvig.Time
	verdict         nf.Verdict
	// reason tags the packet's outcome. The decisive env-call sites
	// overwrite the parse-failure default: a failed backend selection
	// means no-backend, a failed sticky creation table-full, the
	// outputs stamp the forward/pass reasons — the same flag pattern as
	// the policer's overRate/tableFull.
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

// --- packet predicates ---

func (e *prodEnv) PacketFromClient() bool {
	return e.FromInternal == e.lb.cfg.ClientsInternal
}

func (e *prodEnv) DstIsVIP() bool {
	return e.P.Pkt.DstIP == e.lb.cfg.VIP &&
		(e.lb.cfg.VIPPort == 0 || e.P.Pkt.DstPort == e.lb.cfg.VIPPort)
}

// --- libVig operations ---

func (e *prodEnv) ExpireState() {
	// Same Fig. 6 convention as the NAT: expire when last+Texp <= now.
	_ = e.lb.ExpireAt(e.now)
}

func (e *prodEnv) LookupSticky() (FlowHandle, bool) {
	i, ok := e.lb.flows.LookupFst(e.P.ID, e.P.Hash)
	return FlowHandle(i), ok
}

func (e *prodEnv) LookupReply() (FlowHandle, bool) {
	i, ok := e.lb.flows.LookupSnd(e.P.ID, e.P.Hash)
	return FlowHandle(i), ok
}

func (e *prodEnv) SelectBackend() (BackendHandle, bool) {
	i, ok := e.lb.cht.Lookup(e.P.Hash)
	if !ok {
		e.reason = ReasonDropNoBackend
	}
	return BackendHandle(i), ok
}

func (e *prodEnv) CreateSticky(bh BackendHandle) (FlowHandle, bool) {
	lb := e.lb
	if be, err := lb.backends.Get(int(bh)); err == nil {
		s := sticky{Client: e.P.ID, IP: be.IP, Backend: int32(bh)}
		if idx, ok := lb.flows.Add(s, e.P.Hash, e.now); ok {
			lb.counters[ctrFlowsCreated]++
			return FlowHandle(idx), true
		}
	}
	e.reason = ReasonDropTableFull
	return 0, false
}

func (e *prodEnv) Rejuvenate(h FlowHandle) {
	_ = e.lb.flows.Rejuvenate(int(h), e.now)
}

// --- output actions ---

func (e *prodEnv) ForwardToBackend(h FlowHandle) {
	s := e.lb.flows.Value(int(h))
	if s == nil {
		// Invariant breach (a forwarded handle with no record); keep the
		// drop-class default reason.
		e.verdict = nf.Drop
		return
	}
	e.P.Pkt.SetDstIP(s.IP)
	e.verdict = nf.Forward
	e.reason = ReasonFwdBackend
}

func (e *prodEnv) ForwardToClient(h FlowHandle) {
	e.P.Pkt.SetSrcIP(e.lb.cfg.VIP)
	e.verdict = nf.Forward
	e.reason = ReasonFwdClient
	_ = h
}

func (e *prodEnv) Passthrough() {
	// The reason records the classification (which side, what missed);
	// whether it forwards or drops is configuration, mirrored in the
	// ReasonSet's drop class (ReasonsFor).
	if e.PacketFromClient() {
		e.reason = ReasonPassNonVIP
	} else {
		e.reason = ReasonPassNoSession
	}
	if e.lb.cfg.Passthrough {
		e.verdict = nf.Forward
	} else {
		e.verdict = nf.Drop
	}
}

func (e *prodEnv) Drop() { e.verdict = nf.Drop }
