// Package ctlplane is the live control plane: a small, versioned JSON
// management API for a running pipeline, mounted on the same mux the
// metrics endpoint serves (nf.Metrics.Handle). Three verb families:
//
//	GET  /control/v1/status           — workers, engine counters, backends
//	POST /control/v1/lb/backends      — {"op":"add","ip":"10.0.0.7"} |
//	                                    {"op":"drain","index":2}
//	POST /control/v1/policer/resize   — {"rate":50000,"burst":125000}
//	POST /control/v1/workers          — {"workers":4}
//
// Every mutating verb runs while the packet path is quiescent: backend
// and rate changes go through Pipeline.Apply (pause at poll
// boundaries, mutate, resume), and the worker-count verb delegates to
// Pipeline.SetWorkers, which owns the full quiesce-copy-switch reshard
// protocol. Workers never take a lock on the packet path; the control
// plane pays the entire synchronization cost.
//
// The API is deliberately command-shaped, not REST-resource-shaped:
// each POST is one atomic control transaction against the data plane,
// and the response reports the state the transaction left behind.
package ctlplane

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sync"

	"vignat/internal/flow"
	"vignat/internal/libvig"
	"vignat/internal/nf"
)

// Pipeline is the engine surface the controller drives. *nf.Pipeline
// implements it; tests may stub it.
type Pipeline interface {
	// Apply runs fn while every worker is paused at a poll boundary.
	Apply(fn func() error) error
	// SetWorkers reshards the NF and the engine to n workers,
	// migrating shard state (the quiesce-copy-switch protocol).
	SetWorkers(n int) error
	// Workers reports the current worker count.
	Workers() int
	// Running reports whether the pipeline's managed drivers are live.
	Running() bool
	// Stats aggregates the engine counters. Only safe while paused —
	// the controller always reads it under Apply.
	Stats() nf.PipelineStats
}

// BackendManager is the balancer surface behind the lb verbs.
// lb.Sharded implements it.
type BackendManager interface {
	AddBackend(ip flow.Addr, now libvig.Time) (int, error)
	RemoveBackend(i int) error
	LiveBackends() int
	Backend(i int) (flow.Addr, bool)
}

// RateManager is the policer surface behind the resize verb.
// policer.Sharded implements it.
type RateManager interface {
	Resize(rate, burst int64, now libvig.Time) error
}

// Config assembles a Controller. Pipeline and Clock are mandatory;
// Backends and Rate are optional — a deployment without that NF gets
// 404 on the corresponding routes, not a crash.
type Config struct {
	Pipeline Pipeline
	Clock    libvig.Clock
	Backends BackendManager
	Rate     RateManager
	// MaxWorkers bounds the workers verb from above (default 64); the
	// floor is one worker. The pipeline's own queue limits still apply
	// underneath.
	MaxWorkers int
}

// Controller serves the /control/v1 API.
type Controller struct {
	cfg Config
	// mu serializes control verbs against each other. The packet path
	// never takes it — verbs synchronize with workers only through
	// Apply/SetWorkers.
	mu sync.Mutex
}

// New validates cfg and returns a Controller ready to mount.
func New(cfg Config) (*Controller, error) {
	if cfg.Pipeline == nil {
		return nil, fmt.Errorf("ctlplane: a pipeline is required")
	}
	if cfg.Clock == nil {
		return nil, fmt.Errorf("ctlplane: a clock is required")
	}
	if cfg.MaxWorkers == 0 {
		cfg.MaxWorkers = 64
	}
	if cfg.MaxWorkers < 1 {
		return nil, fmt.Errorf("ctlplane: bad worker bound %d", cfg.MaxWorkers)
	}
	return &Controller{cfg: cfg}, nil
}

// Handler returns the controller's routes as one http.Handler rooted
// at /control/v1/ — hand it to nf.Metrics.Handle("/control/v1/", ...).
func (c *Controller) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/control/v1/status", c.handleStatus)
	if c.cfg.Backends != nil {
		mux.HandleFunc("/control/v1/lb/backends", c.handleBackends)
	}
	if c.cfg.Rate != nil {
		mux.HandleFunc("/control/v1/policer/resize", c.handleResize)
	}
	mux.HandleFunc("/control/v1/workers", c.handleWorkers)
	return mux
}

// Mount attaches the controller to a route-taking endpoint (the
// metrics server).
func (c *Controller) Mount(m interface {
	Handle(pattern string, h http.Handler)
}) {
	m.Handle("/control/v1/", c.Handler())
}

// --- wire types ---

// statusReply is the GET /control/v1/status body.
type statusReply struct {
	Workers  int              `json:"workers"`
	Running  bool             `json:"running"`
	Engine   nf.PipelineStats `json:"engine"`
	Backends []backendInfo    `json:"backends,omitempty"`
}

type backendInfo struct {
	Index int    `json:"index"`
	IP    string `json:"ip"`
}

// backendsRequest is the POST /control/v1/lb/backends body.
type backendsRequest struct {
	Op    string `json:"op"` // "add" | "drain"
	IP    string `json:"ip,omitempty"`
	Index *int   `json:"index,omitempty"`
}

type backendsReply struct {
	Index int `json:"index"`
	Live  int `json:"live"`
}

// resizeRequest is the POST /control/v1/policer/resize body.
type resizeRequest struct {
	Rate  int64 `json:"rate"`
	Burst int64 `json:"burst"`
}

// workersRequest is the POST /control/v1/workers body.
type workersRequest struct {
	Workers int `json:"workers"`
}

type workersReply struct {
	Workers int `json:"workers"`
}

type errorReply struct {
	Error string `json:"error"`
}

// --- handlers ---

func (c *Controller) handleStatus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w, http.MethodGet)
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var reply statusReply
	// Stats walks worker-owned counters, so even a read-only verb
	// takes the pause: the controller sees one coherent cut of the
	// engine, and the workers never publish mid-burst state.
	err := c.cfg.Pipeline.Apply(func() error {
		reply.Workers = c.cfg.Pipeline.Workers()
		reply.Engine = c.cfg.Pipeline.Stats()
		if be := c.cfg.Backends; be != nil {
			live := be.LiveBackends()
			for i := 0; len(reply.Backends) < live && i < 1<<16; i++ {
				if ip, ok := be.Backend(i); ok {
					reply.Backends = append(reply.Backends, backendInfo{Index: i, IP: ip.String()})
				}
			}
		}
		return nil
	})
	if err != nil {
		writeError(w, http.StatusConflict, err)
		return
	}
	reply.Running = c.cfg.Pipeline.Running()
	writeJSON(w, http.StatusOK, reply)
}

func (c *Controller) handleBackends(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		methodNotAllowed(w, http.MethodPost)
		return
	}
	var req backendsRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("ctlplane: bad request body: %w", err))
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.Clock.Now()
	be := c.cfg.Backends
	var reply backendsReply
	var verb func() error
	switch req.Op {
	case "add":
		ip, err := parseIPv4(req.IP)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		verb = func() error {
			idx, err := be.AddBackend(ip, now)
			if err != nil {
				return err
			}
			reply.Index = idx
			return nil
		}
	case "drain":
		if req.Index == nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("ctlplane: drain needs an index"))
			return
		}
		reply.Index = *req.Index
		verb = func() error { return be.RemoveBackend(*req.Index) }
	default:
		writeError(w, http.StatusBadRequest, fmt.Errorf("ctlplane: unknown op %q", req.Op))
		return
	}
	err := c.cfg.Pipeline.Apply(func() error {
		if err := verb(); err != nil {
			return err
		}
		reply.Live = be.LiveBackends()
		return nil
	})
	if err != nil {
		writeError(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusOK, reply)
}

func (c *Controller) handleResize(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		methodNotAllowed(w, http.MethodPost)
		return
	}
	var req resizeRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("ctlplane: bad request body: %w", err))
		return
	}
	if req.Rate <= 0 || req.Burst <= 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("ctlplane: rate and burst must be positive (got %d, %d)", req.Rate, req.Burst))
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.Clock.Now()
	err := c.cfg.Pipeline.Apply(func() error {
		return c.cfg.Rate.Resize(req.Rate, req.Burst, now)
	})
	if err != nil {
		writeError(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusOK, req)
}

func (c *Controller) handleWorkers(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, http.StatusOK, workersReply{Workers: c.cfg.Pipeline.Workers()})
		return
	case http.MethodPost:
	default:
		methodNotAllowed(w, "GET, POST")
		return
	}
	var req workersRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("ctlplane: bad request body: %w", err))
		return
	}
	if req.Workers < 1 || req.Workers > c.cfg.MaxWorkers {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("ctlplane: workers %d outside [1, %d]", req.Workers, c.cfg.MaxWorkers))
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	// SetWorkers owns its own quiesce (stop drivers, pause, migrate,
	// re-steer, restart) — wrapping it in Apply would deadlock.
	if err := c.cfg.Pipeline.SetWorkers(req.Workers); err != nil {
		writeError(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusOK, workersReply{Workers: c.cfg.Pipeline.Workers()})
}

// --- helpers ---

// parseIPv4 converts a dotted quad into the repo's host-byte-order
// Addr.
func parseIPv4(s string) (flow.Addr, error) {
	ip := net.ParseIP(s)
	if ip == nil {
		return 0, fmt.Errorf("ctlplane: bad IPv4 address %q", s)
	}
	v4 := ip.To4()
	if v4 == nil {
		return 0, fmt.Errorf("ctlplane: %q is not IPv4", s)
	}
	return flow.MakeAddr(v4[0], v4[1], v4[2], v4[3]), nil
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, errorReply{Error: err.Error()})
}

func methodNotAllowed(w http.ResponseWriter, allow string) {
	w.Header().Set("Allow", allow)
	writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("ctlplane: method not allowed"))
}
