package transporttest

import (
	"net"
	"strings"
	"testing"

	"vignat/internal/dpdk"
)

func newPool(t *testing.T, size int) *dpdk.Mempool {
	t.Helper()
	pool, err := dpdk.NewMempool(size)
	if err != nil {
		t.Fatal(err)
	}
	return pool
}

func memBackend() Backend {
	return Backend{
		Name:              "mem",
		HasTxBackpressure: true,
		New: func(t *testing.T, nQueues, poolSize int) (*dpdk.Port, Wire) {
			t.Helper()
			port, err := dpdk.NewMultiQueuePort(0, nQueues, dpdk.DefaultRxQueue, dpdk.DefaultTxQueue,
				[]*dpdk.Mempool{newPool(t, poolSize)})
			if err != nil {
				t.Fatal(err)
			}
			return port, &MemWire{Port: port}
		},
		NewBackpressure: func(t *testing.T, poolSize int) *dpdk.Port {
			t.Helper()
			tr, err := dpdk.NewMemTransport(1, dpdk.DefaultRxQueue, 8) // tiny TX ring, nobody drains
			if err != nil {
				t.Fatal(err)
			}
			port, err := dpdk.NewPortOn(0, tr, []*dpdk.Mempool{newPool(t, poolSize)})
			if err != nil {
				t.Fatal(err)
			}
			return port
		},
	}
}

func udpBackend() Backend {
	return Backend{
		Name:              "udp",
		HasTxBackpressure: false, // loopback UDP drops at a full receiver; the sender never blocks
		New: func(t *testing.T, nQueues, poolSize int) (*dpdk.Port, Wire) {
			t.Helper()
			tr, err := dpdk.NewUDPTransport(dpdk.SocketConfig{Queues: nQueues, Local: "127.0.0.1:0"})
			if err != nil {
				t.Fatal(err)
			}
			port, err := dpdk.NewPortOn(1, tr, []*dpdk.Mempool{newPool(t, poolSize)})
			if err != nil {
				t.Fatal(err)
			}
			wire, err := NewUDPWire("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			if err := wire.SetPeer(tr.LocalAddr(0)); err != nil {
				t.Fatal(err)
			}
			if err := tr.SetPeer(wire.LocalAddr()); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = port.Close(); _ = wire.Close() })
			return port, wire
		},
		NewPeer: func(t *testing.T, port *dpdk.Port) Wire {
			t.Helper()
			wire, err := NewUDPWire("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			if err := wire.SetPeer(port.Transport().(*dpdk.UDPTransport).LocalAddr(0)); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = wire.Close() })
			return wire
		},
	}
}

func unixBackend() Backend {
	return Backend{
		Name:              "unix",
		HasTxBackpressure: true,
		New: func(t *testing.T, nQueues, poolSize int) (*dpdk.Port, Wire) {
			t.Helper()
			dir := t.TempDir()
			tr, err := dpdk.NewUnixTransport(dpdk.SocketConfig{
				Queues: nQueues, Local: dir + "/nf", Peer: dir + "/wire",
			})
			if err != nil {
				t.Fatal(err)
			}
			port, err := dpdk.NewPortOn(2, tr, []*dpdk.Mempool{newPool(t, poolSize)})
			if err != nil {
				t.Fatal(err)
			}
			wire, err := NewUnixWire(dir + "/wire")
			if err != nil {
				t.Fatal(err)
			}
			if err := wire.SetPeer(dir + "/nf"); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = port.Close(); _ = wire.Close() })
			return port, wire
		},
		NewPeer: func(t *testing.T, port *dpdk.Port) Wire {
			t.Helper()
			wire, err := NewUnixWire(t.TempDir() + "/wire")
			if err != nil {
				t.Fatal(err)
			}
			nf := strings.TrimSuffix(port.Transport().(*dpdk.UnixTransport).LocalAddr(0), ".q0")
			if err := wire.SetPeer(nf); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = wire.Close() })
			return wire
		},
		NewBackpressure: func(t *testing.T, poolSize int) *dpdk.Port {
			t.Helper()
			dir := t.TempDir()
			// A listener that never accepts: connects succeed off the
			// backlog, writes queue against the sender's small SNDBUF
			// until the kernel says EAGAIN.
			sink, err := net.ListenUnix("unixpacket", &net.UnixAddr{Name: dir + "/sink.q0", Net: "unixpacket"})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = sink.Close() })
			tr, err := dpdk.NewUnixTransport(dpdk.SocketConfig{
				Local: dir + "/nf", Peer: dir + "/sink", SndBuf: 4096,
			})
			if err != nil {
				t.Fatal(err)
			}
			port, err := dpdk.NewPortOn(3, tr, []*dpdk.Mempool{newPool(t, poolSize)})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = port.Close() })
			return port
		},
	}
}

func TestTransportConformance(t *testing.T) {
	for _, b := range []Backend{memBackend(), udpBackend(), unixBackend()} {
		t.Run(b.Name, func(t *testing.T) { Run(t, b) })
	}
}
