// Package netfilter models the paper's third comparison point: the Linux
// built-in NAT (NetFilter with masquerade rules). It implements a
// conntrack-style connection tracker — one hash table holding each
// connection twice, once per direction tuple, exactly like the kernel's
// nf_conntrack — plus masquerade source NAT that preserves the original
// source port when free (kernel behaviour, unlike VigNAT's allocator).
//
// What is real here: the conntrack data structures and per-packet
// lookup/creation/expiry work. What the paper names as the reason
// NetFilter is ~4× slower, the kernel path with no kernel bypass, is
// not modelled: the evaluation (internal/experiments) runs this NAT
// behind unix sockets, so each frame crosses the kernel's real receive
// and send.
package netfilter

import (
	"errors"
	"time"

	"vignat/internal/flow"
	"vignat/internal/libvig"
	"vignat/internal/netstack"
	"vignat/internal/nf"
)

// direction of a tuple within a connection.
const (
	dirOriginal = 0
	dirReply    = 1
)

// tupleNode threads a connection into the conntrack hash once per
// direction, mirroring struct nf_conntrack_tuple_hash.
type tupleNode struct {
	tuple flow.ID
	conn  *conn
	dir   int
	next  *tupleNode
}

// conn is one tracked connection (struct nf_conn).
type conn struct {
	nodes    [2]tupleNode // original and reply direction
	last     libvig.Time
	natPort  uint16 // translated source port (masquerade)
	lruPrev  *conn
	lruNext  *conn
	freeNext *conn
	live     bool
}

// Conntrack is the connection-tracking table.
type Conntrack struct {
	buckets  []*tupleNode
	mask     uint64
	slab     []conn
	freeHead *conn
	lru      conn // sentinel
	size     int

	extIP    flow.Addr
	portBase uint16
	portUsed []bool
	portNext int
	nports   int
	usedCnt  int
}

// NewConntrack builds a tracker for capacity connections masquerading
// behind extIP, with NAT ports allocated from [portBase, portBase+count).
func NewConntrack(capacity int, extIP flow.Addr, portBase uint16, portCount int) (*Conntrack, error) {
	if capacity <= 0 || portCount <= 0 {
		return nil, errors.New("netfilter: capacity and port count must be positive")
	}
	if int(portBase)+portCount > 1<<16 {
		return nil, errors.New("netfilter: port range overflow")
	}
	nb := 1
	for nb < capacity { // kernel default: ~1 bucket per 1-2 conns
		nb <<= 1
	}
	c := &Conntrack{
		buckets:  make([]*tupleNode, nb),
		mask:     uint64(nb - 1),
		slab:     make([]conn, capacity),
		extIP:    extIP,
		portBase: portBase,
		portUsed: make([]bool, portCount),
		nports:   portCount,
	}
	c.lru.lruNext = &c.lru
	c.lru.lruPrev = &c.lru
	for i := capacity - 1; i >= 0; i-- {
		cn := &c.slab[i]
		cn.freeNext = c.freeHead
		c.freeHead = cn
	}
	return c, nil
}

// Size returns the number of tracked connections.
func (c *Conntrack) Size() int { return c.size }

func (c *Conntrack) lruAppend(cn *conn) {
	tail := c.lru.lruPrev
	tail.lruNext = cn
	cn.lruPrev = tail
	cn.lruNext = &c.lru
	c.lru.lruPrev = cn
}

func (c *Conntrack) lruRemove(cn *conn) {
	cn.lruPrev.lruNext = cn.lruNext
	cn.lruNext.lruPrev = cn.lruPrev
}

func (c *Conntrack) hashInsert(n *tupleNode) {
	b := n.tuple.Hash() & c.mask
	n.next = c.buckets[b]
	c.buckets[b] = n
}

func (c *Conntrack) hashRemove(n *tupleNode) {
	b := n.tuple.Hash() & c.mask
	for pp := &c.buckets[b]; *pp != nil; pp = &(*pp).next {
		if *pp == n {
			*pp = n.next
			return
		}
	}
}

// lookup finds the tuple node matching id.
func (c *Conntrack) lookup(id flow.ID) *tupleNode {
	for n := c.buckets[id.Hash()&c.mask]; n != nil; n = n.next {
		if n.tuple == id {
			return n
		}
	}
	return nil
}

// allocPort reserves a masquerade port, preferring the original source
// port (kernel behaviour), falling back to a rotor scan.
func (c *Conntrack) allocPort(prefer uint16) (uint16, bool) {
	if off := int(prefer) - int(c.portBase); off >= 0 && off < c.nports && !c.portUsed[off] {
		c.portUsed[off] = true
		c.usedCnt++
		return prefer, true
	}
	if c.usedCnt == c.nports {
		return 0, false
	}
	for i := 0; i < c.nports; i++ {
		off := (c.portNext + i) % c.nports
		if !c.portUsed[off] {
			c.portUsed[off] = true
			c.usedCnt++
			c.portNext = off + 1
			return c.portBase + uint16(off), true
		}
	}
	return 0, false
}

// create tracks a new connection for the original-direction tuple orig.
func (c *Conntrack) create(orig flow.ID, now libvig.Time) *conn {
	cn := c.freeHead
	if cn == nil {
		return nil
	}
	port, ok := c.allocPort(orig.SrcPort)
	if !ok {
		return nil
	}
	c.freeHead = cn.freeNext
	cn.live = true
	cn.last = now
	cn.natPort = port
	cn.nodes[dirOriginal] = tupleNode{tuple: orig, conn: cn, dir: dirOriginal}
	// Reply tuple: remote peer → masqueraded source.
	reply := flow.ID{
		SrcIP:   orig.DstIP,
		SrcPort: orig.DstPort,
		DstIP:   c.extIP,
		DstPort: port,
		Proto:   orig.Proto,
	}
	cn.nodes[dirReply] = tupleNode{tuple: reply, conn: cn, dir: dirReply}
	c.hashInsert(&cn.nodes[dirOriginal])
	c.hashInsert(&cn.nodes[dirReply])
	c.lruAppend(cn)
	c.size++
	return cn
}

func (c *Conntrack) destroy(cn *conn) {
	c.hashRemove(&cn.nodes[dirOriginal])
	c.hashRemove(&cn.nodes[dirReply])
	c.lruRemove(cn)
	off := int(cn.natPort) - int(c.portBase)
	if off >= 0 && off < c.nports && c.portUsed[off] {
		c.portUsed[off] = false
		c.usedCnt--
	}
	cn.live = false
	cn.freeNext = c.freeHead
	c.freeHead = cn
	c.size--
}

// expireBefore evicts connections idle since before deadline.
func (c *Conntrack) expireBefore(deadline libvig.Time) int {
	n := 0
	for cn := c.lru.lruNext; cn != &c.lru && cn.last < deadline; cn = c.lru.lruNext {
		c.destroy(cn)
		n++
	}
	return n
}

// NAT is the NetFilter masquerade NAT built on the conntrack table.
type NAT struct {
	ct      *Conntrack
	clock   libvig.Clock
	timeout libvig.Time
	pkt     netstack.Packet

	processed uint64
	dropped   uint64
}

// New builds a NetFilter-style NAT.
func New(capacity int, extIP flow.Addr, portBase uint16, timeout time.Duration, clock libvig.Clock) (*NAT, error) {
	ct, err := NewConntrack(capacity, extIP, portBase, capacity)
	if err != nil {
		return nil, err
	}
	return &NAT{ct: ct, clock: clock, timeout: timeout.Nanoseconds()}, nil
}

var _ nf.NF = (*NAT)(nil)

// Conntrack exposes the tracker for tests.
func (n *NAT) Conntrack() *Conntrack { return n.ct }

// Name identifies the NF.
func (n *NAT) Name() string { return "netfilter" }

// ProcessBatch runs each packet through process, in order.
func (n *NAT) ProcessBatch(pkts []nf.Pkt, verdicts []nf.Verdict) {
	for i := range pkts {
		verdicts[i] = n.process(pkts[i].Frame, pkts[i].FromInternal)
	}
}

// Expire evicts every connection idle since before now−Texp.
func (n *NAT) Expire(now libvig.Time) int { return n.ct.expireBefore(now - n.timeout + 1) }

// NFStats reports the packets processed and dropped.
func (n *NAT) NFStats() nf.Stats {
	return nf.Stats{Processed: n.processed, Forwarded: n.processed - n.dropped, Dropped: n.dropped}
}

// process runs one frame through the masquerade path. Packets from the
// internal interface are SNATed to extIP; reply packets matching the
// reply tuple are de-NATed. Semantics match iptables MASQUERADE with a
// default-drop forward policy for unsolicited external packets.
func (n *NAT) process(frame []byte, fromInternal bool) nf.Verdict {
	n.processed++
	now := n.clock.Now()
	// The kernel expires lazily via its gc worker; per-packet here keeps
	// occupancy semantics aligned with the other NATs for the figures.
	n.Expire(now)

	p := &n.pkt
	if err := p.Parse(frame); err != nil || !p.NATable() {
		n.dropped++
		return nf.Drop
	}
	id := p.FlowID()
	node := n.ct.lookup(id)
	if node == nil {
		if !fromInternal {
			n.dropped++
			return nf.Drop
		}
		cn := n.ct.create(id, now)
		if cn == nil {
			n.dropped++ // table full: kernel drops new connections
			return nf.Drop
		}
		node = &cn.nodes[dirOriginal]
	}
	cn := node.conn
	cn.last = now
	n.ct.lruRemove(cn)
	n.ct.lruAppend(cn)
	if node.dir == dirOriginal {
		p.SetSrcIP(n.ct.extIP)
		p.SetSrcPort(cn.natPort)
		return nf.Forward
	}
	orig := cn.nodes[dirOriginal].tuple
	p.SetDstIP(orig.SrcIP)
	p.SetDstPort(orig.SrcPort)
	return nf.Forward
}
