package pagerank

import (
	"errors"
	"fmt"

	"csb/internal/cluster"
	"csb/internal/graph"
)

// ComputeDistributed runs PageRank as a Map-Reduce pipeline on the cluster
// substrate, the formulation a GraphX deployment uses when the graph exceeds
// one host (the paper's Section I motivation: trace graphs "can reach sizes
// that make them difficult, and even impossible to be analyzed with a single
// host"). Each iteration FlatMaps rank contributions along the partitioned
// edge list and ReduceByKey-sums them per target vertex.
//
// Results match Compute to floating-point reordering (contributions sum in
// shuffle order); tests bound the difference at 1e-9.
func ComputeDistributed(c *cluster.Cluster, g *graph.Graph, opt Options) (*Result, error) {
	if g.NumVertices() == 0 {
		return nil, errors.New("pagerank: empty graph")
	}
	opt.fill()
	if opt.Damping <= 0 || opt.Damping >= 1 {
		return nil, errors.New("pagerank: damping must be in (0,1)")
	}
	n := g.NumVertices()
	outDeg := g.OutDegrees()
	edges := cluster.ParallelizePairs(c, g.Cols(), 0)

	inv := 1 / float64(n)
	rank := make([]float64, n)
	for i := range rank {
		rank[i] = inv
	}

	type kv = cluster.KV[graph.VertexID, float64]
	shard := func(v graph.VertexID) uint64 {
		z := uint64(v) * 0x9e3779b97f4a7c15
		return z ^ (z >> 29)
	}

	defer c.Scope("pagerank")()
	res := &Result{}
	for iter := 0; iter < opt.MaxIter; iter++ {
		endIter := c.Scope(fmt.Sprintf("iter%d", iter+1))
		var dangling float64
		for v := int64(0); v < n; v++ {
			if outDeg[v] == 0 {
				dangling += rank[v]
			}
		}
		base := (1-opt.Damping)*inv + opt.Damping*dangling*inv

		// Map: each edge carries rank[src]/outDeg[src] to its target.
		contribs := cluster.Map(edges, func(e graph.Pair) kv {
			return kv{Key: e.Dst, Val: rank[e.Src] / float64(outDeg[e.Src])}
		})
		// Reduce: sum contributions per target.
		sums := cluster.ReduceByKey(contribs, shard, func(a, b float64) float64 { return a + b })

		next := make([]float64, n)
		for i := range next {
			next[i] = base
		}
		for _, part := range collectParts(sums) {
			for _, kv := range part {
				next[kv.Key] += opt.Damping * kv.Val
			}
		}
		var diff float64
		for v := int64(0); v < n; v++ {
			d := next[v] - rank[v]
			if d < 0 {
				d = -d
			}
			diff += d
		}
		rank = next
		res.Iterations = iter + 1
		endIter()
		if diff < opt.Tol {
			res.Converged = true
			break
		}
	}
	res.Ranks = rank
	return res, nil
}

// collectParts exposes a dataset's partitions without concatenating them.
func collectParts[T any](d *cluster.Dataset[T]) [][]T {
	out := make([][]T, d.NumPartitions())
	for i := range out {
		out[i] = d.Partition(i)
	}
	return out
}
