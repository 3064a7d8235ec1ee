package serve

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"csb/internal/dist/rows"
	"csb/internal/graph"
	"csb/internal/netflow"
)

// encodeChunkEdges is the number of edges one encode task formats. Chunk
// boundaries never change the artifact's bytes (the artifact is header plus
// chunks in edge order), so this is a fixed constant, not a knob: it only
// trades scheduling granularity against per-chunk overhead.
const encodeChunkEdges = 1 << 16

// A chunk's rows are appended into fixed-size pages; a new page starts once
// fewer than encodePageSlack bytes remain. Rows are far shorter than the
// slack, so an append never has to grow (copy) a page, and the pages hold a
// chunk's rows with little waste without any per-format size estimate.
const (
	encodePageBytes = 128 << 10
	encodePageSlack = 1 << 10
)

// rowAppender appends the text row of edge i to dst.
type rowAppender func(dst []byte, i int) ([]byte, error)

// encodeText encodes g as a text artifact (tsv, csv or ndjson) in one slice
// of exactly the artifact's size. Up to GOMAXPROCS goroutines format
// fixed-size edge chunks straight from the graph's columns with the
// sequential writers' single-row formatters (graph.AppendEdgeListRow,
// netflow.AppendCSVRow over netflow.EdgeFlow, rows.AppendNDJSONRow); the
// artifact is the header followed by the chunks in order, so its bytes do
// not depend on the chunk size or the worker count.
func encodeText(g *graph.Graph, format string) ([]byte, error) {
	cols := g.Cols()
	var header string
	var row rowAppender
	switch format {
	case FormatTSV, "":
		header = graph.EdgeListHeader
		row = func(dst []byte, i int) ([]byte, error) {
			e := cols.Edge(i)
			return graph.AppendEdgeListRow(dst, &e), nil
		}
	case FormatCSV:
		header = netflow.CSVHeaderLine
		row = func(dst []byte, i int) ([]byte, error) {
			e := cols.Edge(i)
			f := netflow.EdgeFlow(g, &e)
			return netflow.AppendCSVRow(dst, &f), nil
		}
	case FormatNDJSON:
		row = func(dst []byte, i int) ([]byte, error) {
			e := cols.Edge(i)
			return rows.AppendNDJSONRow(dst, &e)
		}
	default:
		return nil, fmt.Errorf("serve: unknown artifact format %q", format)
	}
	return encodeRows(cols.Len(), header, row)
}

// encodeRows formats rows [0, n) chunk-parallel and returns header plus the
// rows in order as one exact-size slice.
func encodeRows(n int, header string, row rowAppender) ([]byte, error) {
	if n == 0 {
		return append(make([]byte, 0, len(header)), header...), nil
	}
	nchunks := (n + encodeChunkEdges - 1) / encodeChunkEdges
	chunks := make([][][]byte, nchunks)
	errs := make([]error, nchunks)
	var next atomic.Int64
	work := func() {
		for {
			k := int(next.Add(1)) - 1
			if k >= nchunks {
				return
			}
			lo := k * encodeChunkEdges
			chunks[k], errs[k] = encodeChunk(lo, min(lo+encodeChunkEdges, n), row)
		}
	}
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), nchunks) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()

	size := len(header)
	for k, pages := range chunks {
		if errs[k] != nil {
			return nil, errs[k]
		}
		for _, pg := range pages {
			size += len(pg)
		}
	}
	// Copy into one exact-size slice, dropping each chunk's pages once they
	// are copied: a collection that runs during the join can then free them
	// instead of finding every page live beside the whole artifact.
	out := append(make([]byte, 0, size), header...)
	for k := range chunks {
		for _, pg := range chunks[k] {
			out = append(out, pg...)
		}
		chunks[k] = nil
	}
	return out, nil
}

// encodeChunk formats rows [lo, hi) into a run of pages.
func encodeChunk(lo, hi int, row rowAppender) ([][]byte, error) {
	var pages [][]byte
	page := make([]byte, 0, encodePageBytes)
	var err error
	for i := lo; i < hi; i++ {
		if cap(page)-len(page) < encodePageSlack {
			pages = append(pages, page)
			page = make([]byte, 0, encodePageBytes)
		}
		if page, err = row(page, i); err != nil {
			return nil, err
		}
	}
	return append(pages, page), nil
}
