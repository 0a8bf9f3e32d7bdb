// Package catalog is the table of network functions this repository
// deploys and proves, one row per NF: cmd/vignat serves the row its
// -nf names, cmd/vigwire blasts that row's cohort, and cmd/vigor proves
// it. A row is functions only, so selecting one builds nothing of the
// others.
package catalog

import (
	"flag"
	"fmt"

	"vignat/internal/discard"
	"vignat/internal/firewall"
	"vignat/internal/flow"
	"vignat/internal/lb"
	"vignat/internal/libvig"
	"vignat/internal/moongen"
	"vignat/internal/nat"
	"vignat/internal/netstack"
	"vignat/internal/nf"
	"vignat/internal/nf/nfkit"
	"vignat/internal/policer"
)

// The addresses the rows deploy with.
var (
	// ExtIP is the NAT's external address, alone and in the gateway.
	ExtIP = flow.MakeAddr(198, 18, 1, 1)
	// VIP and VIPPort are the balancer's service address.
	VIP = flow.MakeAddr(198, 18, 10, 10)
	// ResolverVIP and ResolverPort are the service the gateway's
	// balancer fronts for the home network: a DNS resolver pool.
	ResolverVIP = flow.MakeAddr(10, 53, 53, 53)
)

// Service ports of VIP and ResolverVIP.
const (
	VIPPort      = 443
	ResolverPort = 53
)

// Options is a deployment: the engine's shared options plus the knobs
// the rows read.
type Options struct {
	nfkit.Options
	// Flows sizes the built-in cohort: flows, clients or subscribers.
	Flows int
	// Backends is the balancer's live backend count (lb, gateway).
	Backends int
	// Rate and Bucket are the policer's per-subscriber budget in
	// bytes/second and bucket depth in bytes (policer, gateway).
	Rate, Bucket int64
}

// Register registers the engine's flags and the rows' knobs on fs, into
// o.
func (o *Options) Register(fs *flag.FlagSet) {
	o.Options.Register(fs, nat.DefaultCapacity)
	fs.IntVar(&o.Flows, "flows", 1000, "built-in traffic: concurrent flows (clients, subscribers)")
	fs.IntVar(&o.Backends, "backends", 8, "lb, gateway: live backend count")
	fs.Int64Var(&o.Rate, "rate", 1_000_000, "policer, gateway: per-subscriber sustained budget (bytes/second)")
	fs.Int64Var(&o.Bucket, "bucket", 16384, "policer, gateway: per-subscriber bucket depth (bytes)")
}

// Defaults is the deployment the flags describe when none is given:
// what cmd/vigor proves.
func Defaults() *Options {
	o := &Options{}
	o.Register(flag.NewFlagSet("defaults", flag.ContinueOnError))
	return o
}

// Proof is one declaration a row proves.
type Proof struct {
	Name string
	Sym  *nfkit.SymSpec
}

// Row is one NF of the table.
type Row struct {
	// Name is what -nf calls it.
	Name string
	// New builds the NF a daemon serves at o, with its control surfaces
	// and banner; nil on a proof-only row.
	New func(o *Options, clock libvig.Clock) (*nfkit.Run, error)
	// Cohort is the built-in traffic at o: one frame per flow, and
	// whether they enter on the internal side. Nil on a proof-only row.
	Cohort func(o *Options) (frames [][]byte, fromInternal bool, err error)
	// Sym is a proof-only row's declaration at o.
	Sym func(o *Options) (*nfkit.SymSpec, error)
}

// Build is the row's daemon at o: its NF and control surfaces, fed its
// cohort when it runs in memory.
func (r *Row) Build(o *Options) nfkit.Build {
	return func(clock libvig.Clock) (*nfkit.Run, error) {
		run, err := r.New(o, clock)
		if err == nil {
			run.Traffic = func() ([][]byte, bool, error) { return r.Cohort(o) }
		}
		return run, err
	}
}

// Proofs are the declarations a deployment of r at o proves: a
// proof-only row's Sym, or those of the NF New builds — what the daemon
// would run, each element's for a chain.
func (r *Row) Proofs(o *Options) ([]Proof, error) {
	if r.New == nil {
		sym, err := r.Sym(o)
		return []Proof{{r.Name, sym}}, err
	}
	run, err := r.New(o, libvig.NewVirtualClock(0))
	if err != nil {
		return nil, err
	}
	return ProofsOf(r.Name, run.NF), nil
}

// ProofsOf returns the declarations n runs, named after name: its own
// for a kit-built NF, each element's (name/element) for a chain.
func ProofsOf(name string, n nf.NF) []Proof {
	if c, ok := n.(*nf.Chain); ok {
		var proofs []Proof
		for _, e := range c.Elems() {
			proofs = append(proofs, ProofsOf(name+"/"+e.Name(), e)...)
		}
		return proofs
	}
	if d, ok := n.(interface{ Sym() *nfkit.SymSpec }); ok {
		return []Proof{{name, d.Sym()}}
	}
	return nil
}

// Find returns the row of rows called name.
func Find(rows []Row, name string) (*Row, bool) {
	for i := range rows {
		if rows[i].Name == name {
			return &rows[i], true
		}
	}
	return nil, false
}

// Rows is the table: five NFs, the balancer's passthrough orientation
// and the discard example's ring loop (proof only), and the home
// gateway chain.
var Rows = []Row{
	{
		Name: "nat",
		New: func(o *Options, clock libvig.Clock) (*nfkit.Run, error) {
			cfg := natConfig(o)
			n, err := nat.NewSharded(cfg, clock, o.Shards)
			if err != nil {
				return nil, err
			}
			return &nfkit.Run{NF: n, Banner: fmt.Sprintf("vignat: CAP=%d Texp=%v EXT_IP=%v, %d shards, %d workers, %d flows, %d packets",
				n.Capacity(), o.Timeout, cfg.ExternalIP, n.Shards(), o.Workers, o.Flows, o.Packets)}, nil
		},
		Cohort: clients,
	},
	{
		Name: "firewall",
		New: func(o *Options, clock libvig.Clock) (*nfkit.Run, error) {
			fw, err := firewall.NewSharded(o.Capacity, o.Timeout, clock, o.Shards)
			if err != nil {
				return nil, err
			}
			return &nfkit.Run{NF: fw, Banner: banner(o, fmt.Sprintf("firewall: CAP=%d Texp=%v", o.Capacity, o.Timeout))}, nil
		},
		Cohort: clients,
	},
	{
		Name: "lb",
		New: func(o *Options, clock libvig.Clock) (*nfkit.Run, error) {
			b, err := lb.NewSharded(lbConfig(o, false), clock, o.Shards)
			if err != nil {
				return nil, err
			}
			if err := addBackends(b, flow.MakeAddr(10, 1, 0, 10), o.Backends, clock); err != nil {
				return nil, err
			}
			return &nfkit.Run{NF: b, Backends: b, Banner: banner(o, fmt.Sprintf("lb: VIP=%v:%d, %d backends, CAP=%d Texp=%v",
				VIP, VIPPort, o.Backends, o.Capacity, o.Timeout))}, nil
		},
		// Clients face the external port.
		Cohort: func(o *Options) ([][]byte, bool, error) {
			frames, err := craft(o, func(i int) netstack.FrameSpec {
				return netstack.FrameSpec{ID: flow.ID{SrcIP: flow.MakeAddr(203, byte(i>>16), byte(i>>8), byte(i)),
					SrcPort: 20000, DstIP: VIP, DstPort: VIPPort, Proto: flow.UDP}}
			})
			return frames, false, err
		},
	},
	{
		Name: "lb-passthrough",
		Sym: func(o *Options) (*nfkit.SymSpec, error) {
			cfg := lbConfig(o, true)
			return lb.Kit(cfg, libvig.NewVirtualClock(0)).Sym, cfg.Validate()
		},
	},
	{
		Name: "policer",
		New: func(o *Options, clock libvig.Clock) (*nfkit.Run, error) {
			p, err := policer.NewSharded(policerConfig(o), clock, o.Shards)
			if err != nil {
				return nil, err
			}
			return &nfkit.Run{NF: p, Rate: p, Banner: banner(o, fmt.Sprintf("policer: rate=%d B/s bucket=%d B, CAP=%d Texp=%v",
				o.Rate, o.Bucket, o.Capacity, o.Timeout))}, nil
		},
		// Downstream traffic, one subscriber a frame, entering on the
		// upstream side. A quarter of the subscribers get large frames
		// that outrun their budget, so the report shows over-rate drops.
		Cohort: func(o *Options) ([][]byte, bool, error) {
			frames, err := craft(o, func(i int) netstack.FrameSpec {
				payload := 40
				if i < o.Flows/4 {
					payload = 1400
				}
				return netstack.FrameSpec{ID: flow.ID{SrcIP: flow.MakeAddr(198, 51, 100, 7), SrcPort: 443,
					DstIP: flow.MakeAddr(10, byte(i>>16), byte(i>>8), byte(i)), DstPort: 8080, Proto: flow.UDP}, PayloadLen: payload}
			})
			return frames, false, err
		},
	},
	{
		Name: "discard",
		New: func(o *Options, _ libvig.Clock) (*nfkit.Run, error) {
			d, err := nfkit.NewSharded(discard.Kit(), o.Shards)
			if err != nil {
				return nil, err
			}
			return &nfkit.Run{NF: d, Banner: banner(o, "discard: drop port 9")}, nil
		},
		// Every third frame is addressed to the discard port.
		Cohort: func(o *Options) ([][]byte, bool, error) {
			ports := []uint16{80, 9, 443, 22, 9, 8080}
			frames, err := craft(o, func(i int) netstack.FrameSpec {
				return netstack.FrameSpec{ID: flow.ID{SrcIP: flow.MakeAddr(192, 168, byte(i>>8), byte(i)), SrcPort: 40000,
					DstIP: flow.MakeAddr(198, 51, 100, 1), DstPort: ports[i%len(ports)], Proto: flow.UDP}}
			})
			return frames, true, err
		},
	},
	{
		Name: "ring",
		Sym:  func(*Options) (*nfkit.SymSpec, error) { return discard.RingSym(), nil },
	},
	{Name: "gateway", New: newGateway, Cohort: clients},
}

// newGateway builds the home gateway: firewall → policer → balancer →
// NAT on the internal→external axis, one shard each. The balancer fronts
// a resolver pool (o.Backends resolvers from 9.9.9.9) behind
// ResolverVIP for the home network and passes everything else through;
// the policer charges each host's download budget on the translated
// return traffic. Both are live-controllable.
func newGateway(o *Options, clock libvig.Clock) (*nfkit.Run, error) {
	if o.Shards != 1 {
		return nil, fmt.Errorf("the gateway chain runs as one shard, not %d", o.Shards)
	}
	fw, err := firewall.NewSharded(o.Capacity, o.Timeout, clock, 1)
	if err != nil {
		return nil, err
	}
	pol, err := policer.NewSharded(policerConfig(o), clock, 1)
	if err != nil {
		return nil, err
	}
	lbCfg := lbConfig(o, true)
	lbCfg.VIP, lbCfg.VIPPort, lbCfg.ClientsInternal = ResolverVIP, ResolverPort, true
	bal, err := lb.NewSharded(lbCfg, clock, 1)
	if err != nil {
		return nil, err
	}
	if err := addBackends(bal, flow.MakeAddr(9, 9, 9, 9), o.Backends, clock); err != nil {
		return nil, err
	}
	n, err := nat.NewSharded(natConfig(o), clock, 1)
	if err != nil {
		return nil, err
	}
	chain, err := nf.NewChain("gateway", fw, pol, bal, n)
	if err != nil {
		return nil, err
	}
	return &nfkit.Run{NF: chain, Backends: bal, Rate: pol, Banner: banner(o, fmt.Sprintf("%s: EXT_IP=%v, resolver VIP=%v:%d, %d resolvers, rate=%d B/s bucket=%d B, CAP=%d Texp=%v",
		chain.Name(), ExtIP, ResolverVIP, ResolverPort, o.Backends, o.Rate, o.Bucket, o.Capacity, o.Timeout))}, nil
}

// banner is a row's banner: what it runs, then the engine's shape.
func banner(o *Options, what string) string {
	return fmt.Sprintf("vignat -nf %s, %d shards, %d workers, %d flows, %d packets",
		what, o.Shards, o.Workers, o.Flows, o.Packets)
}

func natConfig(o *Options) nat.Config {
	return nat.Config{Capacity: o.Capacity, Timeout: o.Timeout, ExternalIP: ExtIP, ExternalPort: 1}
}

func policerConfig(o *Options) policer.Config {
	return policer.Config{Rate: o.Rate, Burst: o.Bucket, Capacity: o.Capacity, Timeout: o.Timeout}
}

func lbConfig(o *Options, passthrough bool) lb.Config {
	return lb.Config{VIP: VIP, VIPPort: VIPPort, Capacity: o.Capacity, Timeout: o.Timeout,
		MaxBackends: o.Backends, Passthrough: passthrough}
}

// addBackends registers n backends at consecutive addresses from first.
func addBackends(b *lb.Sharded, first flow.Addr, n int, clock libvig.Clock) error {
	for i := 0; i < n; i++ {
		if _, err := b.AddBackend(first+flow.Addr(i), clock.Now()); err != nil {
			return err
		}
	}
	return nil
}

// clients is the internal hosts' outbound cohort: MoonGen's flows, one
// host/port pair each.
func clients(o *Options) ([][]byte, bool, error) {
	specs, err := moongen.MakeFlows(0, o.Flows, 0, flow.UDP)
	if err != nil {
		return nil, false, err
	}
	frames := make([][]byte, len(specs))
	for f := range specs {
		frames[f] = specs[f].Frame()
	}
	return frames, true, nil
}

// craft builds o.Flows frames, frame i from spec(i).
func craft(o *Options, spec func(i int) netstack.FrameSpec) ([][]byte, error) {
	if o.Flows < 1 {
		return nil, fmt.Errorf("flow count must be positive")
	}
	frames := make([][]byte, o.Flows)
	for i := range frames {
		s := spec(i)
		frames[i] = netstack.Craft(make([]byte, netstack.FrameLen(&s)), &s)
	}
	return frames, nil
}
