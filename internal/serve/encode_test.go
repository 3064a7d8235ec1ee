package serve

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"runtime"
	"testing"

	"csb/internal/core"
	"csb/internal/dist/rows"
	"csb/internal/graph"
	"csb/internal/netflow"
)

// randomGraph builds an m-edge graph over n vertices with random Netflow
// attributes. addrs selects the address table: "none" leaves it unset,
// "zeros" sets one where every third vertex keeps the unset address 0 (so
// the pseudo-address fallback mixes with real addresses).
func randomGraph(seed uint64, n, m int64, addrs string) *graph.Graph {
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	g := graph.NewWithCapacity(n, m)
	if addrs == "zeros" {
		for v := int64(0); v < n; v++ {
			if v%3 != 0 {
				g.SetAddr(graph.VertexID(v), 0x0a000000|rng.Uint32N(1<<24))
			}
		}
	}
	for i := int64(0); i < m; i++ {
		g.AddEdge(graph.Edge{
			Src: graph.VertexID(rng.Int64N(n)), Dst: graph.VertexID(rng.Int64N(n)),
			Props: graph.EdgeProps{
				Protocol: graph.Protocol(rng.IntN(4)),
				State:    graph.TCPState(rng.IntN(int(graph.StateOTH) + 1)),
				SrcPort:  uint16(rng.Uint32()), DstPort: uint16(rng.IntN(1024)),
				Duration: rng.Int64N(1 << 40),
				OutBytes: rng.Int64N(1 << 32), InBytes: rng.Int64N(1 << 20),
				OutPkts: rng.Int64N(1 << 16), InPkts: rng.Int64N(3),
			},
		})
	}
	return g
}

// referenceArtifact encodes g with the sequential writers the chunked
// encoder must reproduce byte for byte.
func referenceArtifact(t *testing.T, g *graph.Graph, format string) []byte {
	t.Helper()
	var buf bytes.Buffer
	var err error
	switch format {
	case FormatTSV:
		err = g.WriteEdgeList(&buf)
	case FormatCSV:
		err = netflow.WriteCSV(&buf, netflow.FlowsFromGraph(g))
	case FormatNDJSON:
		var out []byte
		out, err = rows.NDJSONBatch(g.Cols())
		buf.Write(out)
	}
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestEncodeTextMatchesReferenceWriters(t *testing.T) {
	type graphCase struct {
		name string
		g    *graph.Graph
	}
	var graphs []graphCase
	for _, addrs := range []string{"none", "zeros"} {
		for _, m := range []int64{0, 1, encodeChunkEdges - 1, encodeChunkEdges, encodeChunkEdges + 1} {
			graphs = append(graphs, graphCase{fmt.Sprintf("%s/m=%d", addrs, m), randomGraph(uint64(m), 500, m, addrs)})
		}
		for seed := uint64(1); seed <= 2; seed++ {
			rng := rand.New(rand.NewPCG(seed, 7))
			n, m := 1+rng.Int64N(5000), rng.Int64N(2*encodeChunkEdges)
			graphs = append(graphs, graphCase{fmt.Sprintf("%s/random%d(n=%d,m=%d)", addrs, seed, n, m), randomGraph(seed, n, m, addrs)})
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, gc := range graphs {
		for _, format := range []string{FormatTSV, FormatCSV, FormatNDJSON} {
			want := referenceArtifact(t, gc.g, format)
			for _, procs := range []int{1, 2, 4} {
				runtime.GOMAXPROCS(procs)
				got, err := encodeText(gc.g, format)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s %s GOMAXPROCS=%d: %d bytes differ from the reference writer's %d",
						gc.name, format, procs, len(got), len(want))
				}
				if len(got) != cap(got) {
					t.Errorf("%s %s GOMAXPROCS=%d: len %d != cap %d, want an exact-size slice",
						gc.name, format, procs, len(got), cap(got))
				}
			}
			var w bytes.Buffer
			if err := EncodeArtifact(&w, gc.g, format); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(w.Bytes(), want) {
				t.Errorf("%s %s: EncodeArtifact differs from the reference writer", gc.name, format)
			}
		}
	}
}

func TestEncodeTextUnknownFormat(t *testing.T) {
	if _, err := encodeText(graph.New(1), "xml"); err == nil {
		t.Fatal("unknown format accepted")
	}
}

// buildGraph generates the graph BuildArtifact would encode for spec.
func buildGraph(t testing.TB, spec Spec) *graph.Graph {
	t.Helper()
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	seed, err := buildSeed(spec)
	if err != nil {
		t.Fatal(err)
	}
	g, err := (&core.PGPBA{Fraction: spec.Fraction, Seed: spec.Seed}).Generate(seed, spec.Edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestEncodeAllocGuard bounds what the csv encode allocates: header plus
// chunk pages plus the one exact-size artifact slice, about twice the
// artifact. The encoder it replaced materialized a []Flow and grew a
// bytes.Buffer by doubling, about 3.6 times the artifact.
func TestEncodeAllocGuard(t *testing.T) {
	g := buildGraph(t, Spec{Generator: GenPGPBA, Format: FormatCSV, Seed: 4, Edges: 100_000})
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	data, err := encodeText(g, FormatCSV)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	ratio := float64(alloc) / float64(len(data))
	t.Logf("csv encode of %d edges: %d bytes allocated for a %d-byte artifact (%.2fx)", g.NumEdges(), alloc, len(data), ratio)
	if ratio > 2.5 {
		t.Errorf("csv encode allocated %.2fx the artifact length, want <= 2.5x", ratio)
	}
}

func BenchmarkEncodeText(b *testing.B) {
	for _, format := range []string{FormatTSV, FormatCSV, FormatNDJSON} {
		g := buildGraph(b, Spec{Generator: GenPGPBA, Format: format, Seed: 4, Edges: 1_000_000})
		b.Run(format, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				data, err := encodeText(g, format)
				if err != nil {
					b.Fatal(err)
				}
				b.SetBytes(int64(len(data)))
			}
		})
	}
}

// BuildArtifact's local path must return the same bytes as the sequential
// writers on a real generated graph, not just on random ones.
func TestBuildArtifactLocalEncodeMatchesWriters(t *testing.T) {
	for _, format := range []string{FormatTSV, FormatCSV, FormatNDJSON} {
		spec := tinySpec(12)
		spec.Format = format
		data, err := BuildArtifact(context.Background(), spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		if want := referenceArtifact(t, buildGraph(t, spec), format); !bytes.Equal(data, want) {
			t.Errorf("%s: BuildArtifact bytes differ from the reference writer", format)
		}
	}
}
