// Package rows makes artifact row encoding remotable: a partition of binary
// edge (or flow) records becomes a payload any worker can format into the
// exact text rows the sequential writers produce. Each kind wraps the same
// single-row formatter the local writer uses (graph.AppendEdgeListRow,
// netflow.AppendCSVRow, the NDJSON marshal), so a chunk encoded on a worker
// is byte-for-byte the chunk the coordinator would have written — the
// distributed artifact is the ordered concatenation of header plus chunks.
package rows

import (
	"encoding/json"
	"fmt"

	"csb/internal/dist/task"
	"csb/internal/graph"
	"csb/internal/netflow"
)

// Registered remote kinds: payload records in, text rows out.
const (
	TSVKind    = "rows.tsv"    // graph edge records -> tab-separated rows
	NDJSONKind = "rows.ndjson" // graph edge records -> NDJSON objects
	CSVKind    = "rows.csv"    // netflow flow records -> CSV rows
)

func init() {
	task.Register(TSVKind, runTSV)
	task.Register(NDJSONKind, runNDJSON)
	task.Register(CSVKind, runCSV)
}

// EncodeEdges renders a partition of edges as a row-encode payload.
func EncodeEdges(edges []graph.Edge) []byte {
	out := make([]byte, 0, len(edges)*graph.EdgeRecordLen)
	for i := range edges {
		out = AppendEdgeRecord(out, &edges[i])
	}
	return out
}

// AppendEdgeRecord appends one edge's payload record to dst.
func AppendEdgeRecord(dst []byte, e *graph.Edge) []byte {
	return graph.AppendEdgeRecord(dst, e)
}

// DecodeEdges parses a row-encode payload back into edges.
func DecodeEdges(payload []byte) ([]graph.Edge, error) {
	if len(payload)%graph.EdgeRecordLen != 0 {
		return nil, fmt.Errorf("rows: edge payload length %d not a multiple of %d", len(payload), graph.EdgeRecordLen)
	}
	edges := make([]graph.Edge, len(payload)/graph.EdgeRecordLen)
	for i := range edges {
		edges[i] = graph.DecodeEdgeRecord(payload[i*graph.EdgeRecordLen:])
	}
	return edges, nil
}

// EncodeFlows renders a partition of flows as a row-encode payload.
func EncodeFlows(flows []netflow.Flow) []byte {
	out := make([]byte, 0, len(flows)*netflow.FlowRecordLen)
	for i := range flows {
		out = netflow.AppendFlowRecord(out, &flows[i])
	}
	return out
}

// DecodeFlows parses a row-encode payload back into flows.
func DecodeFlows(payload []byte) ([]netflow.Flow, error) {
	if len(payload)%netflow.FlowRecordLen != 0 {
		return nil, fmt.Errorf("rows: flow payload length %d not a multiple of %d", len(payload), netflow.FlowRecordLen)
	}
	flows := make([]netflow.Flow, len(payload)/netflow.FlowRecordLen)
	for i := range flows {
		f, err := netflow.DecodeFlowRecord(payload[i*netflow.FlowRecordLen:])
		if err != nil {
			return nil, err
		}
		flows[i] = f
	}
	return flows, nil
}

// TSVRows formats edges as edge-list rows (no header) — the local closure
// and the remote kind share it.
func TSVRows(edges []graph.Edge) []byte {
	out := make([]byte, 0, len(edges)*48)
	for i := range edges {
		out = graph.AppendEdgeListRow(out, &edges[i])
	}
	return out
}

func runTSV(payload []byte) ([]byte, error) {
	edges, err := DecodeEdges(payload)
	if err != nil {
		return nil, err
	}
	return TSVRows(edges), nil
}

// ndjsonEdge is the NDJSON projection of one flow edge; field names mirror
// the TSV edge-list header.
type ndjsonEdge struct {
	Src        int64  `json:"src"`
	Dst        int64  `json:"dst"`
	Proto      string `json:"proto"`
	SrcPort    uint16 `json:"src_port"`
	DstPort    uint16 `json:"dst_port"`
	DurationMS int64  `json:"duration_ms"`
	OutBytes   int64  `json:"out_bytes"`
	InBytes    int64  `json:"in_bytes"`
	OutPkts    int64  `json:"out_pkts"`
	InPkts     int64  `json:"in_pkts"`
	State      string `json:"state"`
}

// AppendNDJSONRow appends one edge's NDJSON line to dst. json.Marshal plus
// '\n' is exactly what json.Encoder.Encode emits, so these bytes match the
// sequential NDJSON writer. NDJSONRows, NDJSONBatch and the local
// chunk-parallel artifact encoder all funnel through this single formatter.
func AppendNDJSONRow(dst []byte, e *graph.Edge) ([]byte, error) {
	rec := ndjsonEdge{
		Src: int64(e.Src), Dst: int64(e.Dst),
		Proto:   e.Props.Protocol.String(),
		SrcPort: e.Props.SrcPort, DstPort: e.Props.DstPort,
		DurationMS: e.Props.Duration,
		OutBytes:   e.Props.OutBytes, InBytes: e.Props.InBytes,
		OutPkts: e.Props.OutPkts, InPkts: e.Props.InPkts,
		State: e.Props.State.String(),
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	dst = append(dst, line...)
	return append(dst, '\n'), nil
}

// NDJSONRows formats edges as newline-delimited JSON objects.
func NDJSONRows(edges []graph.Edge) ([]byte, error) {
	var out []byte
	var err error
	for i := range edges {
		if out, err = AppendNDJSONRow(out, &edges[i]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// NDJSONBatch formats a columnar edge batch as NDJSON, streaming straight
// over the columns without materializing a row slice.
func NDJSONBatch(b *graph.EdgeBatch) ([]byte, error) {
	var out []byte
	var err error
	for i, n := 0, b.Len(); i < n; i++ {
		e := b.Edge(i)
		if out, err = AppendNDJSONRow(out, &e); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func runNDJSON(payload []byte) ([]byte, error) {
	edges, err := DecodeEdges(payload)
	if err != nil {
		return nil, err
	}
	return NDJSONRows(edges)
}

// CSVRows formats flows as CSV rows (no header).
func CSVRows(flows []netflow.Flow) []byte {
	out := make([]byte, 0, len(flows)*64)
	for i := range flows {
		out = netflow.AppendCSVRow(out, &flows[i])
	}
	return out
}

func runCSV(payload []byte) ([]byte, error) {
	flows, err := DecodeFlows(payload)
	if err != nil {
		return nil, err
	}
	return CSVRows(flows), nil
}
