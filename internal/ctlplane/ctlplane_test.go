// Control-plane verbs exercised the way deployments use them: over
// HTTP against the metrics mux, concurrent with live traffic, under
// -race. Each test stands up a real pipeline, keeps the packet path
// busy from worker-owned goroutines, and drives the API from the
// outside; the assertions are the NFs' own conservation laws, which
// any verb racing the data path would break.
package ctlplane_test

import (
	"bytes"
	"encoding/json"
	"net"
	"net/http"
	"sync"
	"testing"
	"time"

	"vignat/internal/ctlplane"
	"vignat/internal/dpdk"
	"vignat/internal/flow"
	"vignat/internal/lb"
	"vignat/internal/libvig"
	"vignat/internal/nat"
	"vignat/internal/netstack"
	"vignat/internal/nf"
	"vignat/internal/policer"
)

const (
	ctlWorkers = 2
	ctlFlows   = 24
	ctlIters   = 400
)

func craft(id flow.ID) []byte {
	s := &netstack.FrameSpec{ID: id, PayloadLen: 16}
	return netstack.Craft(make([]byte, netstack.FrameLen(s)), s)
}

// memRig is the two-port in-memory pipeline stand whose workers the
// test drives from its own goroutines (the deployment shape for the
// lock-step transports).
type memRig struct {
	intPort, extPort *dpdk.Port
	pools            []*dpdk.Mempool
	pipe             *nf.Pipeline
}

func buildMemRig(t *testing.T, s nf.NF, clock libvig.Clock) *memRig {
	t.Helper()
	r := &memRig{}
	mkPort := func(id uint16) *dpdk.Port {
		ps := make([]*dpdk.Mempool, ctlWorkers)
		for q := range ps {
			p, err := dpdk.NewMempool(256)
			if err != nil {
				t.Fatal(err)
			}
			ps[q] = p
			r.pools = append(r.pools, p)
		}
		port, err := dpdk.NewMultiQueuePort(id, ctlWorkers, dpdk.DefaultRxQueue, dpdk.DefaultTxQueue, ps)
		if err != nil {
			t.Fatal(err)
		}
		return port
	}
	r.intPort, r.extPort = mkPort(0), mkPort(1)
	var err error
	r.pipe, err = nf.NewPipeline(s, nf.Config{
		Internal: r.intPort, External: r.extPort, Workers: ctlWorkers, Clock: clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// drive runs worker w's RX→poll→TX loop for iters rounds: its share of
// the frames in, one poll, both TX queues drained. Every mbuf touched
// belongs to queue w, so concurrent workers never share transport
// state — only the NF's counted cells, which is the point of -race.
func (r *memRig) drive(t *testing.T, w int, frames [][]byte, clock libvig.Clock, iters int) {
	drain := make([]*dpdk.Mbuf, 64)
	for it := 0; it < iters; it++ {
		for _, f := range frames {
			if !r.extPort.DeliverRxQueue(w, f, clock.Now()) {
				t.Errorf("worker %d: RX queue rejected a frame", w)
				return
			}
		}
		if _, err := r.pipe.PollWorker(w); err != nil {
			t.Errorf("worker %d: %v", w, err)
			return
		}
		for _, port := range []*dpdk.Port{r.intPort, r.extPort} {
			for {
				k := port.DrainTxQueue(w, drain)
				if k == 0 {
					break
				}
				for i := 0; i < k; i++ {
					if err := drain[i].Pool().Free(drain[i]); err != nil {
						t.Errorf("worker %d: %v", w, err)
						return
					}
				}
			}
		}
	}
}

// mountCtl serves the controller on an ephemeral metrics endpoint and
// returns its base URL.
func mountCtl(t *testing.T, name string, ctl *ctlplane.Controller, src nf.NF) string {
	t.Helper()
	m, err := nf.ServeMetrics("127.0.0.1:0", nf.SourceOf(name, src, nil))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = m.Close() })
	ctl.Mount(m)
	return "http://" + m.Addr()
}

// postJSON POSTs body to url and decodes the JSON reply into out,
// failing the test on a non-2xx status unless wantErr.
func postJSON(t *testing.T, url string, body any, out any) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("POST %s: %d (%s)", url, resp.StatusCode, e.Error)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
}

func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

// TestDrainBackendUnderTraffic drains, adds, and heartbeats balancer
// backends over the API while both workers forward client traffic.
func TestDrainBackendUnderTraffic(t *testing.T) {
	clock := libvig.NewSystemClock()
	vip := flow.MakeAddr(198, 18, 10, 10)
	balancer, err := lb.NewSharded(lb.Config{
		VIP: vip, VIPPort: 443, Capacity: 256, Timeout: time.Minute, MaxBackends: 8,
	}, clock, ctlWorkers)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := balancer.AddBackend(flow.MakeAddr(10, 1, 0, byte(10+i)), clock.Now()); err != nil {
			t.Fatal(err)
		}
	}
	rig := buildMemRig(t, balancer, clock)
	ctl, err := ctlplane.New(ctlplane.Config{Pipeline: rig.pipe, Clock: clock, Backends: balancer})
	if err != nil {
		t.Fatal(err)
	}
	base := mountCtl(t, "ctl-lb-test", ctl, balancer)

	// Client frames pre-steered per worker: queue w carries exactly the
	// flows whose declared shard is w.
	perWorker := make([][][]byte, ctlWorkers)
	for i := 0; i < ctlFlows; i++ {
		f := craft(flow.ID{
			SrcIP: flow.MakeAddr(203, 0, byte(i>>8), byte(1+i)), SrcPort: uint16(20000 + i),
			DstIP: vip, DstPort: 443, Proto: flow.UDP,
		})
		w := balancer.ShardOf(f, false) % ctlWorkers
		perWorker[w] = append(perWorker[w], f)
	}

	var wg sync.WaitGroup
	for w := 0; w < ctlWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rig.drive(t, w, perWorker[w], clock, ctlIters)
		}(w)
	}

	// The control side, racing the workers: status reads, one drain,
	// one add, heartbeats.
	var st struct {
		Workers  int `json:"workers"`
		Backends []struct {
			Index int    `json:"index"`
			IP    string `json:"ip"`
		} `json:"backends"`
	}
	getJSON(t, base+"/control/v1/status", &st)
	if st.Workers != ctlWorkers || len(st.Backends) != 3 {
		t.Fatalf("status: %+v", st)
	}
	var br struct {
		Index int `json:"index"`
		Live  int `json:"live"`
	}
	postJSON(t, base+"/control/v1/lb/backends", map[string]any{"op": "drain", "index": 0}, &br)
	if br.Live != 2 {
		t.Fatalf("drain left %d live backends, want 2", br.Live)
	}
	postJSON(t, base+"/control/v1/lb/backends", map[string]any{"op": "add", "ip": "10.1.0.99"}, &br)
	if br.Live != 3 {
		t.Fatalf("add left %d live backends, want 3", br.Live)
	}
	for i := 0; i < 10; i++ {
		postJSON(t, base+"/control/v1/lb/backends", map[string]any{"op": "heartbeat", "index": 1}, nil)
		getJSON(t, base+"/control/v1/status", &st)
	}
	wg.Wait()

	// Conservation across the churn: the drain unpinned exactly the
	// flows it had to and nothing leaked.
	stats := balancer.Stats()
	if int(stats.FlowsCreated-stats.FlowsExpired-stats.FlowsUnpinned) != balancer.Flows() {
		t.Fatalf("sticky accounting: created %d − expired %d − unpinned %d ≠ live %d",
			stats.FlowsCreated, stats.FlowsExpired, stats.FlowsUnpinned, balancer.Flows())
	}
	if stats.FlowsUnpinned == 0 {
		t.Fatal("drain unpinned nothing; the verb never reached the data plane")
	}
	if balancer.LiveBackends() != 3 {
		t.Fatalf("live backends %d, want 3", balancer.LiveBackends())
	}
}

// TestResizeRateUnderTraffic shrinks and restores the policer's shared
// (rate, burst) while both workers police downstream traffic.
func TestResizeRateUnderTraffic(t *testing.T) {
	clock := libvig.NewSystemClock()
	pol, err := policer.NewSharded(policer.Config{
		Rate: 1 << 20, Burst: 1 << 20, Capacity: 256, Timeout: time.Minute,
	}, clock, ctlWorkers)
	if err != nil {
		t.Fatal(err)
	}
	rig := buildMemRig(t, pol, clock)
	ctl, err := ctlplane.New(ctlplane.Config{Pipeline: rig.pipe, Clock: clock, Rate: pol})
	if err != nil {
		t.Fatal(err)
	}
	base := mountCtl(t, "ctl-pol-test", ctl, pol)

	perWorker := make([][][]byte, ctlWorkers)
	for i := 0; i < ctlFlows; i++ {
		f := craft(flow.ID{
			SrcIP: flow.MakeAddr(198, 51, 100, 7), SrcPort: 443,
			DstIP: flow.MakeAddr(10, 0, byte(i>>8), byte(1+i)), DstPort: 8080, Proto: flow.UDP,
		})
		w := pol.ShardOf(f, false) % ctlWorkers
		perWorker[w] = append(perWorker[w], f)
	}
	var wg sync.WaitGroup
	for w := 0; w < ctlWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rig.drive(t, w, perWorker[w], clock, ctlIters)
		}(w)
	}

	// Clamp down hard mid-traffic, then restore: every transition runs
	// at a poll boundary, and the TokenBucket clamp law guarantees no
	// bucket ever exceeds the configuration it is observed under.
	postJSON(t, base+"/control/v1/policer/resize", map[string]any{"rate": 1000, "burst": 2000}, nil)
	postJSON(t, base+"/control/v1/policer/resize", map[string]any{"rate": 1 << 20, "burst": 1 << 20}, nil)
	var st struct {
		Workers int `json:"workers"`
	}
	getJSON(t, base+"/control/v1/status", &st)
	wg.Wait()

	stats := pol.Stats()
	if int(stats.BucketsCreated-stats.BucketsExpired) != pol.Subscribers() {
		t.Fatalf("subscriber accounting: created %d − expired %d ≠ tracked %d",
			stats.BucketsCreated, stats.BucketsExpired, pol.Subscribers())
	}
	if stats.Processed == 0 {
		t.Fatal("no traffic was policed")
	}
}

// TestWorkersVerbUnderTraffic reshards a NAT 2 → 4 → 3 over the API
// while a sender pushes real datagrams through UDP socket transports
// and the pipeline's own managed drivers poll — the full wire-mode
// deployment shape, under -race.
func TestWorkersVerbUnderTraffic(t *testing.T) {
	clock := libvig.NewSystemClock()
	extIP := flow.MakeAddr(198, 18, 1, 1)
	n, err := nat.NewSharded(nat.Config{
		Capacity: 96, Timeout: time.Minute, ExternalIP: extIP,
		PortBase: 1000, InternalPort: 0, ExternalPort: 1,
	}, clock, 2)
	if err != nil {
		t.Fatal(err)
	}
	const queues = 4 // max worker count the verb may ask for
	mkPort := func(id uint16) (*dpdk.Port, *dpdk.UDPTransport) {
		// No Peer: transmits drop exactly like a NIC with no link
		// partner, which is all this test needs from the far side.
		tr, err := dpdk.NewUDPTransport(dpdk.SocketConfig{
			Queues: queues, Local: "127.0.0.1:0", Clock: clock,
		})
		if err != nil {
			t.Fatal(err)
		}
		ps := make([]*dpdk.Mempool, queues)
		for q := range ps {
			p, err := dpdk.NewMempool(256)
			if err != nil {
				t.Fatal(err)
			}
			ps[q] = p
		}
		port, err := dpdk.NewPortOn(id, tr, ps)
		if err != nil {
			t.Fatal(err)
		}
		return port, tr
	}
	intPort, intTr := mkPort(0)
	extPort, _ := mkPort(1)
	pipe, err := nf.NewPipeline(n, nf.Config{
		Internal: intPort, External: extPort, Workers: 2, Clock: clock,
		IdleWait: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := ctlplane.New(ctlplane.Config{
		Pipeline: pipe, Clock: clock, MaxWorkers: queues,
	})
	if err != nil {
		t.Fatal(err)
	}
	base := mountCtl(t, "ctl-nat-test", ctl, n)

	if err := pipe.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if pipe.Running() {
			if err := pipe.Stop(); err != nil {
				t.Error(err)
			}
		}
	}()

	// The sender: real datagrams into queue 0's socket; the transport's
	// software RSS re-steers each frame to the queue of the worker that
	// owns its flow, through every worker-count change.
	frames := make([][]byte, ctlFlows)
	for i := range frames {
		frames[i] = craft(flow.ID{
			SrcIP: flow.MakeAddr(10, 0, 0, byte(1+i)), SrcPort: uint16(20000 + i),
			DstIP: flow.MakeAddr(93, 184, 216, 34), DstPort: 80, Proto: flow.UDP,
		})
	}
	conn, err := net.Dial("udp", intTr.LocalAddr(0))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	stop := make(chan struct{})
	var stopOnce sync.Once
	var sender sync.WaitGroup
	stopSender := func() {
		stopOnce.Do(func() { close(stop) })
		sender.Wait()
	}
	sender.Add(1)
	go func() {
		defer sender.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, f := range frames {
				if _, err := conn.Write(f); err != nil {
					t.Errorf("sender: %v", err)
					return
				}
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()
	defer stopSender()

	// Wait until the NAT actually holds sessions, so the reshards below
	// have state to migrate. Reads go through Apply — the control
	// plane's coherent-cut discipline, not a racy peek.
	live := 0
	for deadline := time.Now().Add(5 * time.Second); live == 0; {
		if time.Now().After(deadline) {
			t.Fatal("no sessions established; traffic never reached the NAT")
		}
		if err := pipe.Apply(func() error { live = n.Flows(); return nil }); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}

	var wr struct {
		Workers int `json:"workers"`
	}
	for _, target := range []int{4, 3} {
		postJSON(t, base+"/control/v1/workers", map[string]any{"workers": target}, &wr)
		if wr.Workers != target {
			t.Fatalf("workers verb reports %d, want %d", wr.Workers, target)
		}
		if dropped := n.MigrationDropped(); dropped != 0 {
			t.Fatalf("reshard to %d dropped %d records", target, dropped)
		}
		time.Sleep(20 * time.Millisecond) // let traffic flow on the new composition
	}
	if n.Migrated() == 0 {
		t.Fatal("reshards migrated no records despite live sessions")
	}
	getJSON(t, base+"/control/v1/workers", &wr)
	if wr.Workers != 3 {
		t.Fatalf("final worker count %d, want 3", wr.Workers)
	}

	// Quiesce, then the conservation law.
	stopSender()
	if err := pipe.Stop(); err != nil {
		t.Fatal(err)
	}
	st := n.Stats()
	if int(st.FlowsCreated-st.FlowsExpired) != n.Flows() {
		t.Fatalf("flow accounting: created %d − expired %d ≠ live %d",
			st.FlowsCreated, st.FlowsExpired, n.Flows())
	}
	if st.FlowsCreated == 0 {
		t.Fatal("no flows were ever created")
	}
}
