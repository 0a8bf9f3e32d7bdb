package nat

import (
	"vignat/internal/libvig"
	"vignat/internal/nat/stateless"
	"vignat/internal/nf"
	"vignat/internal/nf/nfkit"
	"vignat/internal/nf/telemetry"
)

// Reason IDs: the NAT's declared outcome taxonomy, cross-checked
// against the derived symbolic path enumeration (symspec.go's
// checkSpec names each path's reason).
const (
	ReasonFwdOut telemetry.ReasonID = iota
	ReasonFwdIn
	ReasonDropParse
	ReasonDropTableFull
	ReasonDropUnsolicited
	numReasons
)

// The lifecycle counters, which follow the reason cells in the NAT's
// counter array (the nfkit layout contract).
const (
	ctrFlowsExpired = int(numReasons) + iota
	ctrFlowsCreated
	numCounters
)

// Reasons is the NAT's outcome taxonomy.
var Reasons = telemetry.MustReasonSet("vignat",
	telemetry.Reason{ID: ReasonFwdOut, Name: "fwd_out", Help: "internal packet translated and emitted external"},
	telemetry.Reason{ID: ReasonFwdIn, Name: "fwd_in", Help: "external packet of a live flow translated back and emitted internal"},
	telemetry.Reason{ID: ReasonDropParse, Name: "drop_parse", Drop: true, Help: "frame failed the parse/validation chain (non-NATable)"},
	telemetry.Reason{ID: ReasonDropTableFull, Name: "drop_table_full", Drop: true, Help: "new flow refused: table or port range exhausted"},
	telemetry.Reason{ID: ReasonDropUnsolicited, Name: "drop_unsolicited", Drop: true, Help: "external packet matching no flow"},
)

// Stats counts VigNAT's externally visible actions: a read-time view
// of the counter array, in which every packet is one reason cell.
type Stats struct {
	Processed     uint64
	Dropped       uint64
	ForwardedOut  uint64 // internal → external
	ForwardedIn   uint64 // external → internal
	FlowsCreated  uint64
	FlowsExpired  uint64
	ParseFailures uint64
}

// statsOf is the Stats view of a NAT counter array (one core's, or the
// cell-by-cell sum of several).
func statsOf(c []uint64) Stats {
	s := nfkit.StatsOf(Reasons, c)
	return Stats{
		Processed:     s.Processed,
		Dropped:       s.Dropped,
		ForwardedOut:  c[ReasonFwdOut],
		ForwardedIn:   c[ReasonFwdIn],
		FlowsCreated:  c[ctrFlowsCreated],
		FlowsExpired:  c[ctrFlowsExpired],
		ParseFailures: c[ReasonDropParse],
	}
}

// NAT is the production VigNAT: the verified stateless logic bound to the
// libVig flow table. Per-packet processing is allocation-free; all state
// lives in preallocated libVig structures, none of which construction
// writes: each page of the table faults in once, when a flow first lands
// on it, so a table is as resident as the flows it has held (at most
// its ~3.5 MB for 65,535 flows, 54 bytes a flow: 16 of 8-byte probe
// slots, the 16-byte record, 17 of chain, the occupancy flag and a
// 4-byte generation; FlowTable.HighWater says how many indices it has
// handed out). 65,535 is also the most one shard holds: the port space, and a
// libVig map's limit. The mbuf pools likewise fault a data room in the
// first time the pool hands it out (dpdk.Mempool.HighWater). The paper
// reports 27 MB peak RSS; the idle unix-transport daemon here holds
// ~9.7 MB, ~7 MB of it the binary and libc.
type NAT struct {
	cfg   Config
	table FlowTable // by value: one load fewer on every table operation
	clock libvig.Clock
	env   prodEnv
	// counters[r] totals packets tagged with reason r — the only tally
	// a packet moves, counted by the adapter — followed by the ctr*
	// lifecycle counts. Single-writer.
	counters [numCounters]uint64
}

// New builds a NAT from cfg, drawing time from clock.
func New(cfg Config, clock libvig.Clock) (*NAT, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	t, err := NewFlowTable(cfg.Capacity, cfg.ExternalIP, cfg.PortBase)
	if err != nil {
		return nil, err
	}
	n := &NAT{cfg: cfg, table: *t, clock: clock}
	n.env.nat = n
	return n, nil
}

// Config returns the NAT's configuration.
func (n *NAT) Config() Config { return n.cfg }

// Table exposes the flow table (tests, spec conformance checking).
func (n *NAT) Table() *FlowTable { return &n.table }

// Stats returns a snapshot of the counters.
func (n *NAT) Stats() Stats { return statsOf(n.counters[:]) }

// process runs one packet through prodProcessPacket: the verified
// stateless.ProcessPacket instantiated at *prodEnv (process_gen.go,
// written by vigor/instgen), so that every env call is a direct one.
func (n *NAT) process(pkt *nf.Pkt, now libvig.Time) (nf.Verdict, telemetry.ReasonID) {
	e := &n.env
	e.reset(pkt, now)
	prodProcessPacket(e)
	return e.done()
}

// ExpireAt removes every flow idle since before now−Texp, without
// processing a packet — the pipeline's idle-poll expiration hook. It
// returns the number of flows freed.
func (n *NAT) ExpireAt(now libvig.Time) int {
	// Fig. 6 expires when timestamp+Texp <= now; Expire frees strictly
	// below its deadline, hence the +1.
	freed := n.table.Expire(now - n.cfg.TimeoutNanos() + 1)
	n.counters[ctrFlowsExpired] += uint64(freed)
	return freed
}

// prodEnv is the production binding of stateless.Env: predicates answer
// from the parsed packet, state operations hit the real flow table,
// emits rewrite the frame in place. It is embedded in NAT and reset per
// packet, so the fast path allocates nothing.
type prodEnv struct {
	nfkit.PktGuards // the parse chain and arrival side, over packet P
	nat             *NAT
	now             libvig.Time
	verdict         nf.Verdict
	// reason tags the packet's outcome. The decisive env-call sites
	// overwrite the parse-failure default: an allocation failure means
	// table-full, an external miss unsolicited, the emits stamp the
	// forward reasons — the same flag pattern as the other NFs.
	reason telemetry.ReasonID
}

var _ stateless.Env = (*prodEnv)(nil)

func (e *prodEnv) reset(pkt *nf.Pkt, now libvig.Time) {
	e.Take(pkt)
	e.now = now
	e.verdict = nf.Drop
	e.reason = ReasonDropParse
}

// done returns the packet's verdict and reason.
func (e *prodEnv) done() (nf.Verdict, telemetry.ReasonID) { return e.verdict, e.reason }

// --- libVig operations ---

func (e *prodEnv) ExpireFlows() { _ = e.nat.ExpireAt(e.now) }

func (e *prodEnv) LookupInternal() (stateless.FlowHandle, bool) {
	i, ok := e.nat.table.LookupFst(e.P.ID, e.P.Hash)
	return stateless.FlowHandle(i), ok
}

func (e *prodEnv) LookupExternal() (stateless.FlowHandle, bool) {
	i, ok := e.nat.table.LookupSnd(e.P.ID, e.P.Hash)
	if !ok {
		e.reason = ReasonDropUnsolicited // the miss decides the drop
	}
	return stateless.FlowHandle(i), ok
}

func (e *prodEnv) AllocateFlow() (stateless.FlowHandle, bool) {
	i, ok := e.nat.table.AddHashed(e.P.ID, e.P.Hash, e.now)
	if ok {
		e.nat.counters[ctrFlowsCreated]++
	} else {
		e.reason = ReasonDropTableFull
	}
	return stateless.FlowHandle(i), ok
}

func (e *prodEnv) Rejuvenate(h stateless.FlowHandle) {
	_ = e.nat.table.Rejuvenate(int(h), e.now)
}

// --- output actions ---

// EmitExternal reads no record: the flow's external source, EXT_IP and
// the port its index owns, is configuration and the handle.
func (e *prodEnv) EmitExternal(h stateless.FlowHandle) {
	t := &e.nat.table
	e.P.Pkt.SetSrcIP(t.extIP)
	e.P.Pkt.SetSrcPort(t.extPort(int(h)))
	e.verdict = nf.Forward
	e.reason = ReasonFwdOut
}

func (e *prodEnv) EmitInternal(h stateless.FlowHandle) {
	id := e.nat.table.Value(int(h)) // the internal key: src = internal host
	e.P.Pkt.SetDstIP(id.SrcIP)
	e.P.Pkt.SetDstPort(id.SrcPort)
	e.verdict = nf.Forward
	e.reason = ReasonFwdIn
}

func (e *prodEnv) Drop() { e.verdict = nf.Drop }
