package cluster

import "csb/internal/graph"

// This file is the columnar bridge between the graph's struct-of-arrays edge
// store (graph.EdgeBatch) and the row-structured Dataset engine: loading a
// graph's edges into a dataset streams batch columns into partition storage
// instead of materializing one monolithic []Edge first. The generators drain
// their datasets the other way by writing disjoint ranges of one pre-sized
// graph (graph.NewSized, Graph.SetPairs) from a ForEachPartition stage.

// ParallelizeEdges splits the edges of a columnar batch into balanced
// partitions, materializing rows once per partition. The partition boundaries
// are exactly Parallelize's (base = len/p with the remainder spread over the
// first len%p partitions), so downstream stages see byte-identical input to
// the former Parallelize(c, b.Edges(), partitions) — without the intermediate
// full-graph []Edge copy.
func ParallelizeEdges(c *Cluster, b *graph.EdgeBatch, partitions int) *Dataset[graph.Edge] {
	return parallelizeRows(c, b.Len(), partitions, b.Edge)
}

// ParallelizePairs is ParallelizeEdges for stages that need only the
// endpoints: the same partition boundaries, 16-byte graph.Pair rows read
// from the src/dst columns alone.
func ParallelizePairs(c *Cluster, b *graph.EdgeBatch, partitions int) *Dataset[graph.Pair] {
	return parallelizeRows(c, b.Len(), partitions, func(i int) graph.Pair {
		return graph.Pair{Src: b.SrcID(i), Dst: b.DstID(i)}
	})
}

// parallelizeRows splits rows [0, n) into Parallelize's balanced partitions,
// materializing row i with row(i).
func parallelizeRows[T any](c *Cluster, n, partitions int, row func(i int) T) *Dataset[T] {
	p := c.defaultPartitions(partitions)
	if p > n {
		p = n
	}
	if n == 0 {
		return newDataset(c, make([][]T, 0))
	}
	parts := make([][]T, p)
	base, rem := n/p, n%p
	lo := 0
	for i := range parts {
		sz := base
		if i < rem {
			sz++
		}
		part := make([]T, sz)
		for j := range part {
			part[j] = row(lo + j)
		}
		parts[i] = part
		lo += sz
	}
	return newDataset(c, parts)
}
