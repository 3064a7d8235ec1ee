package cluster

import (
	"testing"

	"csb/internal/graph"
)

// ParallelizePairs and ParallelizeEdges split a batch at the same boundaries
// as Parallelize, and each pair is its edge's endpoints.
func TestParallelizePairsMatchesEdges(t *testing.T) {
	c := testCluster()
	for _, n := range []int{0, 1, 7, 8, 9, 100} {
		b := graph.NewEdgeBatch(n)
		for i := 0; i < n; i++ {
			b.Append(graph.Edge{Src: graph.VertexID(i), Dst: graph.VertexID(2 * i),
				Props: graph.EdgeProps{InBytes: int64(i)}})
		}
		pairs, edges := ParallelizePairs(c, b, 0), ParallelizeEdges(c, b, 0)
		rows := Parallelize(c, b.Edges(), 0)
		if pairs.NumPartitions() != rows.NumPartitions() || edges.NumPartitions() != rows.NumPartitions() {
			t.Fatalf("n=%d: partitions %d/%d, want %d", n, pairs.NumPartitions(), edges.NumPartitions(), rows.NumPartitions())
		}
		for p := 0; p < rows.NumPartitions(); p++ {
			want := rows.Partition(p)
			ps, es := pairs.Partition(p), edges.Partition(p)
			if len(ps) != len(want) || len(es) != len(want) {
				t.Fatalf("n=%d partition %d: sizes %d/%d, want %d", n, p, len(ps), len(es), len(want))
			}
			for i, e := range want {
				if ps[i] != (graph.Pair{Src: e.Src, Dst: e.Dst}) || es[i] != e {
					t.Fatalf("n=%d partition %d row %d: %+v / %+v, want %+v", n, p, i, ps[i], es[i], e)
				}
			}
		}
	}
}

// ForEachPartition visits every partition once, with its own rows, and
// tasks may fill disjoint ranges of one shared output.
func TestForEachPartitionFillsDisjointRanges(t *testing.T) {
	c := testCluster()
	d := Parallelize(c, seq(103), 0)
	offsets := make([]int, d.NumPartitions())
	for p := 1; p < len(offsets); p++ {
		offsets[p] = offsets[p-1] + len(d.Partition(p-1))
	}
	out := make([]int, 103)
	visits := make([]int, d.NumPartitions())
	ForEachPartition(d, func(part int, xs []int) {
		visits[part]++
		copy(out[offsets[part]:], xs)
	})
	for p, v := range visits {
		if v != 1 {
			t.Fatalf("partition %d visited %d times", p, v)
		}
	}
	for i, v := range out {
		if v != i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i)
		}
	}
	if m := c.Metrics(); m.Stages != 1 || m.Tasks != int64(d.NumPartitions()) {
		t.Fatalf("metrics: %d stages, %d tasks; want 1 stage of %d tasks", m.Stages, m.Tasks, d.NumPartitions())
	}
}
