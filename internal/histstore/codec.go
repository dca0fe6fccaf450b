package histstore

import (
	"encoding/binary"
	"net/netip"
	"time"

	"cloudgraph/internal/graph"
)

// Minimum encoded sizes, used to bound the declared node and edge counts
// by the bytes actually present before anything is allocated.
const (
	minNodeSize = 22 // kind u8 + addr [16] + v4 flag u8 + port u16 + nameLen u16
	edgeSize    = 32 // src u32 + dst u32 + bytes u64 + packets u64 + conns u64
)

// EncodeGraph serializes one window graph, the graph bytes of every
// history record. Layout (little endian):
//
//	u8  facet
//	i64 start unix, i64 end unix
//	u32 node count, then per node: u8 kind(0 ip,1 ipport,2 name),
//	    [16]addr, u8 wasV4, u16 port, u16 nameLen, name bytes
//	u32 directed edge count, then per edge: u32 src, u32 dst,
//	    u64 bytes, u64 packets, u64 conns
//
// Edge time series are not persisted: the per-window graphs are the
// retained time series at window granularity.
func EncodeGraph(g *graph.Graph) []byte {
	nodes := g.Nodes()
	idx := make(map[graph.Node]uint32, len(nodes))
	buf := make([]byte, 0, 64+len(nodes)*24)
	buf = append(buf, byte(g.Facet))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(g.Start.Unix()))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(g.End.Unix()))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(nodes)))
	for i, n := range nodes {
		idx[n] = uint32(i)
		kind := byte(0)
		switch {
		case n.Name != "":
			kind = 2
		case n.Port != 0:
			kind = 1
		}
		buf = append(buf, kind)
		a16 := n.Addr.As16()
		if !n.Addr.IsValid() {
			a16 = [16]byte{}
		}
		buf = append(buf, a16[:]...)
		// Remember whether the address was v4 to restore faithfully.
		if n.Addr.Is4() {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
		buf = binary.LittleEndian.AppendUint16(buf, n.Port)
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(n.Name)))
		buf = append(buf, n.Name...)
	}
	type edge struct {
		src, dst uint32
		c        graph.Counters
	}
	var edges []edge
	g.EachOut(func(src, dst graph.Node, e *graph.Edge) {
		edges = append(edges, edge{src: idx[src], dst: idx[dst], c: e.Counters})
	})
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(edges)))
	for _, e := range edges {
		buf = binary.LittleEndian.AppendUint32(buf, e.src)
		buf = binary.LittleEndian.AppendUint32(buf, e.dst)
		buf = binary.LittleEndian.AppendUint64(buf, e.c.Bytes)
		buf = binary.LittleEndian.AppendUint64(buf, e.c.Packets)
		buf = binary.LittleEndian.AppendUint64(buf, e.c.Conns)
	}
	return buf
}

// DecodeGraph is the inverse of EncodeGraph; malformed input returns
// ErrCorrupt. Declared counts are checked against the remaining bytes
// before any allocation, so a CRC-valid but hostile record cannot make it
// allocate more than its own length. The returned graph is map-backed;
// callers retaining it long-term should Freeze it.
func DecodeGraph(b []byte) (*graph.Graph, error) {
	r := &byteReader{b: b}
	facet := graph.Facet(r.u8())
	start := time.Unix(int64(r.u64()), 0).UTC()
	end := time.Unix(int64(r.u64()), 0).UTC()
	nNodes := int(r.u32())
	if r.err != nil || nNodes > len(r.b)/minNodeSize {
		return nil, ErrCorrupt
	}
	g := graph.New(facet)
	g.Start, g.End = start, end
	nodes := make([]graph.Node, 0, nNodes)
	for i := 0; i < nNodes; i++ {
		kind := r.u8()
		var a16 [16]byte
		copy(a16[:], r.take(16))
		wasV4 := r.u8() == 1
		port := r.u16()
		name := string(r.take(int(r.u16())))
		if r.err != nil {
			return nil, ErrCorrupt
		}
		var n graph.Node
		switch kind {
		case 2:
			n = graph.ServiceNode(name)
		default:
			addr := netip.AddrFrom16(a16)
			if wasV4 {
				addr = addr.Unmap()
			}
			if kind == 1 {
				n = graph.IPPortNode(addr, port)
			} else {
				n = graph.IPNode(addr)
			}
		}
		nodes = append(nodes, n)
		g.AddNode(n)
	}
	nEdges := int(r.u32())
	if r.err != nil || nEdges > len(r.b)/edgeSize {
		return nil, ErrCorrupt
	}
	for i := 0; i < nEdges; i++ {
		src, dst := int(r.u32()), int(r.u32())
		c := graph.Counters{Bytes: r.u64(), Packets: r.u64(), Conns: r.u64()}
		if r.err != nil || src >= len(nodes) || dst >= len(nodes) {
			return nil, ErrCorrupt
		}
		g.AddEdge(nodes[src], nodes[dst], c)
	}
	return g, nil
}

// byteReader is a tiny cursor with sticky errors.
type byteReader struct {
	b   []byte
	err error
}

func (r *byteReader) take(n int) []byte {
	if r.err != nil || len(r.b) < n {
		r.err = ErrCorrupt
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

func (r *byteReader) u8() byte {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *byteReader) u16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (r *byteReader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *byteReader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}
