package core

import (
	"errors"
	"fmt"
	"math"

	"csb/internal/cluster"
	"csb/internal/graph"
)

// Generator is the shared contract of the two data generators.
type Generator interface {
	// Generate grows the analyzed seed to a synthetic property graph with
	// at least desiredEdges edges (probabilistic algorithms may overshoot
	// slightly, as the paper notes in Section V).
	Generate(seed *Seed, desiredEdges int64) (*graph.Graph, error)
	// Name identifies the generator in reports.
	Name() string
}

// PGPBA is the Property-Graph Parallel Barabási-Albert generator
// (Figure 2). Each round samples fraction*|E| edges from the current edge
// list (stage one of the two-stage preferential attachment), creates one
// new vertex per sampled edge, attaches it to a random endpoint of its
// sampled edge (stage two), and creates out- and in-edges between the new
// vertex and its destination according to the seed's out- and in-degree
// distributions. Finally every edge receives Netflow attributes sampled
// from the seed's property model.
type PGPBA struct {
	// Fraction is the ratio of newly added vertices to current edges per
	// round. Values above 1 sample with replacement (the paper's Figure 9
	// uses fraction = 2 to match PGSK's doubling).
	Fraction float64
	// Seed drives the deterministic RNG.
	Seed uint64
	// Cluster executes the Map-Reduce stages (nil means a local cluster).
	Cluster *cluster.Cluster
	// SkipProperties suppresses the property-synthesis pass; used by the
	// Figure 10 overhead measurement. Every output edge is then bare (zero
	// attributes), the seed's edges included: the structural stages carry
	// endpoints only.
	SkipProperties bool
	// IndependentProps samples attributes without the IN_BYTES
	// conditioning (ablation).
	IndependentProps bool
	// SpreadAttachment is a design-space ablation of Figure 2: instead of
	// connecting all of a new vertex's out- and in-edges to the single
	// destination of its sampled edge (the paper's lines 10-11), each edge
	// re-samples its own destination from the sampled edge list. This
	// matches classic BA more closely and reduces hub amplification at the
	// cost of one extra sample per edge.
	SpreadAttachment bool
}

// Name implements Generator.
func (p *PGPBA) Name() string { return "PGPBA" }

// Generate implements Generator, following Figure 2 line by line on the
// cluster substrate.
func (p *PGPBA) Generate(seed *Seed, desiredEdges int64) (*graph.Graph, error) {
	if seed == nil || seed.Graph == nil || seed.Graph.NumEdges() == 0 {
		return nil, errors.New("pgpba: empty seed")
	}
	// NaN fails every comparison, so "<= 0" alone would let it through and
	// the growth loop would sample zero edges forever.
	if !(p.Fraction > 0) || math.IsInf(p.Fraction, 0) {
		return nil, fmt.Errorf("pgpba: fraction must be positive and finite, got %v", p.Fraction)
	}
	if desiredEdges <= seed.Graph.NumEdges() {
		return nil, fmt.Errorf("pgpba: desired size %d must exceed seed size %d",
			desiredEdges, seed.Graph.NumEdges())
	}
	c := p.Cluster
	if c == nil {
		c = cluster.Local(0)
	}
	defer c.Scope("pgpba")()

	// G' <- G (line 1). The seed's endpoint columns stream straight into
	// partition storage as 16-byte pairs; the structural stages never carry
	// attributes, which are sampled once the structure is final.
	edges := cluster.ParallelizePairs(c, seed.Graph.Cols(), 0)
	numVertices := seed.Graph.NumVertices()
	round := uint64(0)

	// Expected edges added per sampled edge: one new vertex attaching with
	// out- plus in-degree samples. Used to shrink the final round so the
	// output lands near desired_size instead of overshooting by a full
	// round.
	perVertex := seed.OutDegree.Mean() + seed.InDegree.Mean()

	// while |E'| < desired_size (line 2).
	for {
		// Cancellation boundary: a cancelled job stops between rounds
		// instead of growing to completion.
		if err := c.Err(); err != nil {
			return nil, err
		}
		have := edges.Count()
		if have >= desiredEdges {
			break
		}
		round++
		endRound := c.Scope(fmt.Sprintf("round%d", round))
		fraction := p.Fraction
		if expect := fraction * float64(have) * perVertex; expect > float64(desiredEdges-have) {
			fraction = float64(desiredEdges-have) / (float64(have) * perVertex)
			if fraction*float64(have) < 1 {
				fraction = 1 / float64(have) // keep expecting >= 1 sample
			}
		}
		// Line 3: sample the edge list. Stage one of the preferential
		// attachment: an edge is sampled with probability proportional to
		// nothing but its presence, and a vertex appears once per incident
		// edge, so endpoint frequency is degree-proportional.
		sampled := sampleWithReplacement(edges, fraction, p.Seed^round*0x9e3779b97f4a7c15)
		nNew := sampled.Count()
		if nNew == 0 {
			endRound()
			continue
		}
		// Lines 4-5: create empty vertices, one per sampled edge, with
		// globally unique contiguous IDs handed out per partition.
		firstID := numVertices
		numVertices += nNew
		offsets := partitionOffsets(sampled)

		// Lines 6-13: per sampled edge, pick the destination vertex and
		// create the out- and in-edges.
		inDeg, outDeg := seed.InDegree, seed.OutDegree
		newEdges := cluster.MapPartitions(sampled, func(part int, es []graph.Pair) []graph.Pair {
			rng := cluster.DeriveRNG(p.Seed^(round*0x51ed), uint64(part))
			out := make([]graph.Pair, 0, expectedLen(len(es), perVertex))
			pickDest := func(e graph.Pair) graph.VertexID {
				// Line 7: random endpoint of a sampled edge (stage two of
				// the preferential attachment).
				if rng.IntN(2) == 1 {
					return e.Dst
				}
				return e.Src
			}
			for i, e := range es {
				newV := graph.VertexID(firstID + offsets[part] + int64(i))
				dest := pickDest(e)
				// Lines 8-9: degree samples.
				nOut := outDeg.Sample(rng)
				nIn := inDeg.Sample(rng)
				// Lines 10-12: edge creation. The paper's variant reuses
				// one destination for every edge; the spread ablation
				// re-samples per edge.
				for j := int64(0); j < nOut; j++ {
					d := dest
					if p.SpreadAttachment {
						d = pickDest(es[rng.IntN(len(es))])
					}
					out = append(out, graph.Pair{Src: newV, Dst: d})
				}
				for j := int64(0); j < nIn; j++ {
					d := dest
					if p.SpreadAttachment {
						d = pickDest(es[rng.IntN(len(es))])
					}
					out = append(out, graph.Pair{Src: d, Dst: newV})
				}
			}
			return out
		})
		edges = cluster.Union(edges, newEdges)
		// Union grows the partition count every round; coalesce once it
		// exceeds a few times the cluster's tuned partitioning so per-task
		// overhead stays amortized.
		if limit := c.Config().DefaultPartitions; edges.NumPartitions() > 4*limit {
			edges = cluster.Coalesce(edges, limit)
		}
		endRound()
	}

	// Rebalance before the dominant property-synthesis stage: the growth
	// rounds leave a mix of heavy and near-empty partitions behind.
	if limit := c.Config().DefaultPartitions; edges.NumPartitions() > limit {
		endRebalance := c.Scope("rebalance")
		edges = cluster.Coalesce(edges, limit)
		endRebalance()
	}

	// Lines 15-20: property synthesis for every edge, written with the
	// endpoints straight into the output graph.
	return writeGraph(edges, numVertices, seed.Props, p.Seed^0xab5, p.SkipProperties, p.IndependentProps)
}

// expectedLen sizes a stage output that emits a random number of rows per
// input row: n times the mean (a seed degree mean, so a constant of the
// input), plus 1/16 so a sum somewhat above its mean still fits without the
// append doubling the slice.
func expectedLen(n int, mean float64) int {
	return int(float64(n)*mean*(1+1.0/16)) + 16
}

// partitionOffsets returns the exclusive prefix sums of partition sizes, so
// each partition can assign contiguous new-vertex IDs independently.
func partitionOffsets[T any](ds *cluster.Dataset[T]) []int64 {
	offsets := make([]int64, ds.NumPartitions())
	var acc int64
	for i := range offsets {
		offsets[i] = acc
		acc += int64(len(ds.Partition(i)))
	}
	return offsets
}

// sampleWithReplacement extends cluster.Sample to fractions >= 1: each
// partition emits round(fraction * len) draws with replacement, matching
// Spark's sample(withReplacement=true, fraction).
func sampleWithReplacement(ds *cluster.Dataset[graph.Pair], fraction float64, seed uint64) *cluster.Dataset[graph.Pair] {
	if fraction < 1 {
		return cluster.Sample(ds, fraction, seed)
	}
	return cluster.MapPartitions(ds, func(part int, es []graph.Pair) []graph.Pair {
		if len(es) == 0 {
			return nil
		}
		rng := cluster.DeriveRNG(seed, uint64(part))
		n := int(fraction * float64(len(es)))
		out := make([]graph.Pair, n)
		for i := range out {
			out[i] = es[rng.IntN(len(es))]
		}
		return out
	})
}

// writeGraph is both generators' last engine stage (Figure 2 lines 15-20,
// Figure 3 lines 13-18): it builds the output graph once. The graph is
// sized up front, and each partition writes its pairs' endpoints, plus
// Netflow attributes sampled from its own (seed, partition) stream unless
// skip is set, into its own edge range starting at its partitionOffsets
// prefix sum. Ranges are disjoint, so tasks share the columns without
// locks, and a retried task rewrites the same bytes. The work is
// O(|E| x |properties|); an endpoint outside [0, numVertices) is an error.
// The stage runs under the props scope even when skip leaves it writing
// endpoints only.
func writeGraph(pairs *cluster.Dataset[graph.Pair], numVertices int64, props *PropertyModel,
	seed uint64, skip, independent bool) (*graph.Graph, error) {
	c := pairs.Cluster()
	sample := props.Sample
	if independent {
		sample = props.SampleIndependent
	}
	endScope := c.Scope("props")
	out := graph.NewSized(numVertices, pairs.Count())
	cols := out.Cols()
	offsets := partitionOffsets(pairs)
	errs := make([]error, pairs.NumPartitions())
	cluster.ForEachPartition(pairs, func(part int, ps []graph.Pair) {
		lo := int(offsets[part])
		if errs[part] = out.SetPairs(lo, ps); errs[part] != nil || skip {
			return
		}
		rng := cluster.DeriveRNG(seed, uint64(part))
		for i := lo; i < lo+len(ps); i++ {
			cols.SetProps(i, sample(rng))
		}
	})
	endScope()
	if err := c.Err(); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

var _ Generator = (*PGPBA)(nil)
