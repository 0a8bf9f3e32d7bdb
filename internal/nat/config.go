// Package nat implements VigNAT: the paper's verified NAT, assembled from
// the stateless logic (internal/nat/stateless), the libVig flow table,
// and the dpdk substrate. The configuration surface matches the paper's
// three static parameters — flow-table capacity (CAP), flow timeout
// (Texp), external IP (EXT_IP) — plus the port range the flow table
// owns.
package nat

import (
	"errors"
	"fmt"
	"time"

	"vignat/internal/flow"
	"vignat/internal/libvig"
)

// Default configuration values, matching the paper's experiments.
const (
	// DefaultCapacity is the flow-table capacity used throughout the
	// evaluation (the NATs "support the same number of flows (65,535)").
	DefaultCapacity = 65535
	// DefaultTimeout is the flow expiry used in the first latency
	// experiment set.
	DefaultTimeout = 2 * time.Second
	// DefaultPortBase is the first external port handed out. The NAT
	// owns its external IP outright, so the full port space above 0 is
	// available — which is what lets the port range cover the paper's
	// 65,535 concurrent flows.
	DefaultPortBase = 1
)

// Config holds VigNAT's static parameters.
type Config struct {
	// Capacity is CAP: the maximum number of concurrent flows.
	Capacity int
	// Timeout is Texp: a flow expires after this much inactivity.
	Timeout time.Duration
	// ExternalIP is EXT_IP: the address written into outgoing sources.
	ExternalIP flow.Addr
	// PortBase is the first external port: flow index i holds PortBase+i.
	PortBase uint16
	// InternalPort / ExternalPort are the dpdk port indices of the two
	// interfaces.
	InternalPort uint16
	ExternalPort uint16
}

// Validate checks the configuration, applying defaults for zero fields.
func (c *Config) Validate() error {
	if c.Capacity == 0 {
		c.Capacity = DefaultCapacity
	}
	if c.Capacity < 0 {
		return errors.New("nat: negative capacity")
	}
	if c.Timeout == 0 {
		c.Timeout = DefaultTimeout
	}
	if c.Timeout < 0 {
		return errors.New("nat: negative timeout")
	}
	if c.PortBase == 0 {
		c.PortBase = DefaultPortBase
	}
	if c.ExternalIP == 0 {
		return errors.New("nat: external IP required")
	}
	if int(c.PortBase)+c.Capacity > 1<<16 {
		return fmt.Errorf("nat: capacity %d does not fit in port range starting at %d",
			c.Capacity, c.PortBase)
	}
	if c.InternalPort == c.ExternalPort {
		return errors.New("nat: internal and external ports must differ")
	}
	return nil
}

// TimeoutNanos returns Texp in the clock's unit.
func (c *Config) TimeoutNanos() libvig.Time { return c.Timeout.Nanoseconds() }
