// Package flow provides the network-flow abstraction of libVig (§5.1.1):
// 5-tuple flow identifiers, the NAT flow record, and well-mixed hashing
// suitable for the open-addressing flow table.
package flow

import "fmt"

// Protocol is an IPv4 protocol number. VigNAT translates TCP and UDP
// (RFC 3022 "traditional NAT" covers TCP/UDP sessions).
type Protocol uint8

// Protocols VigNAT cares about.
const (
	ICMP Protocol = 1
	TCP  Protocol = 6
	UDP  Protocol = 17
)

// String returns the protocol mnemonic.
func (p Protocol) String() string {
	switch p {
	case ICMP:
		return "icmp"
	case TCP:
		return "tcp"
	case UDP:
		return "udp"
	default:
		return fmt.Sprintf("proto(%d)", uint8(p))
	}
}

// Addr is an IPv4 address in host byte order.
type Addr uint32

// MakeAddr builds an Addr from dotted-quad components.
func MakeAddr(a, b, c, d byte) Addr {
	return Addr(a)<<24 | Addr(b)<<16 | Addr(c)<<8 | Addr(d)
}

// String formats the address as a dotted quad.
func (a Addr) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(a>>24), byte(a>>16), byte(a>>8), byte(a))
}

// Hash returns a well-mixed 64-bit hash of the address, making Addr a
// libVig map key in its own right — the policer keys its subscriber
// table by bare client IP, where the 5-tuple ID would conflate one
// subscriber's flows into separate rate budgets.
func (a Addr) Hash() uint64 {
	return mix64(uint64(a) ^ 0x9e3779b97f4a7c15)
}

// ID identifies one direction of a transport flow: the classic 5-tuple.
// It is the F(P) of the paper's Fig. 6, and serves as the key type of the
// double-keyed flow table.
type ID struct {
	SrcIP   Addr
	DstIP   Addr
	SrcPort uint16
	DstPort uint16
	Proto   Protocol
}

// mix64 is the splitmix64 finalizer: a fast, well-distributed 64-bit
// mixer. The flow table's latency stability under load (Fig. 12's flat
// curves) depends on this hash spreading flows uniformly.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Hash returns a 64-bit hash of the 5-tuple. Equal IDs hash equal.
func (id ID) Hash() uint64 {
	lo := uint64(id.SrcIP)<<32 | uint64(id.DstIP)
	hi := uint64(id.SrcPort)<<24 | uint64(id.DstPort)<<8 | uint64(id.Proto)
	return mix64(lo ^ mix64(hi))
}

// Reverse returns the 5-tuple of the opposite direction.
func (id ID) Reverse() ID {
	return ID{
		SrcIP:   id.DstIP,
		DstIP:   id.SrcIP,
		SrcPort: id.DstPort,
		DstPort: id.SrcPort,
		Proto:   id.Proto,
	}
}

// String formats the flow ID.
func (id ID) String() string {
	return fmt.Sprintf("%s %s:%d>%s:%d", id.Proto, id.SrcIP, id.SrcPort, id.DstIP, id.DstPort)
}

// Flow is a NAT session as a whole: the pair of flow IDs under which it
// is reachable. IntKey is the 5-tuple of packets arriving on the
// internal interface (src = internal host); ExtKey is the 5-tuple of
// return packets arriving on the external interface (dst = the NAT's
// external IP and the allocated external port). The NAT's flow table
// stores IntKey alone and derives ExtKey from the record's index and
// its configuration; a Flow is that derived view, and the record a
// flow migrates as, built by MakeFlow.
type Flow struct {
	IntKey ID
	ExtKey ID
}

// IntIP returns the internal host's address.
func (f *Flow) IntIP() Addr { return f.IntKey.SrcIP }

// IntPort returns the internal host's port.
func (f *Flow) IntPort() uint16 { return f.IntKey.SrcPort }

// ExtPort returns the external port allocated to the session.
func (f *Flow) ExtPort() uint16 { return f.ExtKey.DstPort }

// RemoteIP returns the remote peer's address.
func (f *Flow) RemoteIP() Addr { return f.IntKey.DstIP }

// RemotePort returns the remote peer's port.
func (f *Flow) RemotePort() uint16 { return f.IntKey.DstPort }

// Proto returns the transport protocol of the session.
func (f *Flow) Proto() Protocol { return f.IntKey.Proto }

// Consistent reports whether the two keys describe the same session:
// same protocol, same remote endpoint on both sides, and extIP the
// external destination — what MakeFlow builds, and what the NAT checks
// of a migrated flow before restoring it.
func (f *Flow) Consistent(extIP Addr) bool {
	return f.IntKey.Proto == f.ExtKey.Proto &&
		f.IntKey.DstIP == f.ExtKey.SrcIP &&
		f.IntKey.DstPort == f.ExtKey.SrcPort &&
		f.ExtKey.DstIP == extIP
}

// MakeFlow builds a consistent flow record from an internal-side packet's
// 5-tuple, the NAT's external IP, and the allocated external port.
func MakeFlow(intKey ID, extIP Addr, extPort uint16) Flow {
	return Flow{
		IntKey: intKey,
		ExtKey: ID{
			SrcIP:   intKey.DstIP,
			SrcPort: intKey.DstPort,
			DstIP:   extIP,
			DstPort: extPort,
			Proto:   intKey.Proto,
		},
	}
}

// String formats the flow record.
func (f *Flow) String() string {
	return fmt.Sprintf("flow{int %s | ext %s}", f.IntKey, f.ExtKey)
}
