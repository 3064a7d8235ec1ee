package netflow

import (
	"fmt"

	"csb/internal/graph"
)

// BuildGraph maps flow records onto a directed property multigraph: each
// distinct host address becomes a vertex (ID assigned in order of first
// appearance, recorded in the graph's address table) and each flow becomes
// an edge from its originator to its responder carrying the Netflow
// attributes. This is the "map Netflow data to a property-graph" step of
// Figure 1.
func BuildGraph(flows []Flow) *graph.Graph {
	ids := make(map[uint32]graph.VertexID, 1024)
	var addrs []uint32
	vertexOf := func(ip uint32) graph.VertexID {
		if v, ok := ids[ip]; ok {
			return v
		}
		v := graph.VertexID(len(addrs))
		ids[ip] = v
		addrs = append(addrs, ip)
		return v
	}
	type rawEdge struct {
		src, dst graph.VertexID
		props    graph.EdgeProps
	}
	raw := make([]rawEdge, len(flows))
	for i := range flows {
		f := &flows[i]
		raw[i] = rawEdge{src: vertexOf(f.SrcIP), dst: vertexOf(f.DstIP), props: f.Props()}
	}
	g := graph.NewWithCapacity(int64(len(addrs)), int64(len(flows)))
	for i, ip := range addrs {
		g.SetAddr(graph.VertexID(i), ip)
	}
	for _, e := range raw {
		g.AddEdge(graph.Edge{Src: e.src, Dst: e.dst, Props: e.props})
	}
	return g
}

// FlowsFromGraph converts property-graph edges back into flow records, one
// EdgeFlow per edge in edge order. This is the bridge that lets the anomaly
// detector run over synthetic property graphs.
func FlowsFromGraph(g *graph.Graph) []Flow {
	// Stream straight over the graph's columns: each flow is built from the
	// columnar store without materializing an intermediate []Edge copy.
	cols := g.Cols()
	flows := make([]Flow, cols.Len())
	for i := range flows {
		e := cols.Edge(i)
		flows[i] = EdgeFlow(g, &e)
	}
	return flows
}

// EdgeFlow converts one edge of g into its flow record: addresses from
// VertexAddr, SYN/ACK counters from EdgeFlags. It is the single edge->flow
// rule: the CSV artifact encoder and FlowsFromGraph go through it, and the
// graph-side IDS aggregation uses its two helpers, so their records agree by
// construction.
func EdgeFlow(g *graph.Graph, e *graph.Edge) Flow {
	syn, ack := EdgeFlags(e)
	return Flow{
		SrcIP: VertexAddr(g, e.Src), DstIP: VertexAddr(g, e.Dst),
		Protocol: e.Props.Protocol,
		SrcPort:  e.Props.SrcPort, DstPort: e.Props.DstPort,
		StartMicros: 0, EndMicros: e.Props.Duration * 1000,
		OutBytes: e.Props.OutBytes, InBytes: e.Props.InBytes,
		OutPkts: e.Props.OutPkts, InPkts: e.Props.InPkts,
		State:    e.Props.State,
		SYNCount: syn, ACKCount: ack,
	}
}

// EdgeFlags reconstructs an edge's SYN/ACK counters conservatively from its
// TCP state: flows whose state implies a handshake contribute SYN counts,
// and ACK counts are approximated by the packet count. Non-TCP edges have
// none.
func EdgeFlags(e *graph.Edge) (syn, ack int64) {
	if e.Props.Protocol != graph.ProtoTCP {
		return 0, 0
	}
	switch e.Props.State {
	case graph.StateS0, graph.StateSH:
		syn = e.Props.OutPkts // unanswered SYN retries
	case graph.StateOTH:
	default:
		syn = 2 // SYN + SYN-ACK
		ack = max(e.Props.OutPkts+e.Props.InPkts-1, 0)
	}
	return syn, ack
}

// VertexAddr is v's address in g's table, or the 1-based pseudo-address
// uint32(v)+1 for synthetic vertices (no table, or an unset 0 entry).
func VertexAddr(g *graph.Graph, v graph.VertexID) uint32 {
	if a := g.Addr(v); a != 0 {
		return a
	}
	return uint32(v) + 1
}

// Stats summarizes a flow set for reporting.
type Stats struct {
	Flows     int
	Hosts     int
	TCP       int
	UDP       int
	ICMP      int
	Bytes     int64
	Packets   int64
	StartsMin int64
	EndsMax   int64
}

// Summarize computes aggregate statistics of a flow set.
func Summarize(flows []Flow) Stats {
	s := Stats{Flows: len(flows)}
	hosts := make(map[uint32]struct{}, 1024)
	for i := range flows {
		f := &flows[i]
		hosts[f.SrcIP] = struct{}{}
		hosts[f.DstIP] = struct{}{}
		switch f.Protocol {
		case graph.ProtoTCP:
			s.TCP++
		case graph.ProtoUDP:
			s.UDP++
		case graph.ProtoICMP:
			s.ICMP++
		}
		s.Bytes += f.TotalBytes()
		s.Packets += f.TotalPkts()
		if s.StartsMin == 0 || f.StartMicros < s.StartsMin {
			s.StartsMin = f.StartMicros
		}
		if f.EndMicros > s.EndsMax {
			s.EndsMax = f.EndMicros
		}
	}
	s.Hosts = len(hosts)
	return s
}

// String renders the stats on one line.
func (s Stats) String() string {
	return fmt.Sprintf("flows=%d hosts=%d tcp=%d udp=%d icmp=%d bytes=%d packets=%d",
		s.Flows, s.Hosts, s.TCP, s.UDP, s.ICMP, s.Bytes, s.Packets)
}
