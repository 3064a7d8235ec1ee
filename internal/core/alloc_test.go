package core

import (
	"runtime"
	"testing"

	"csb/internal/cluster"
)

// outputColumnBytes is the size of one edge in the output graph's columns:
// two uint32 endpoints, protocol and state bytes, two uint16 ports and five
// int64 counters.
const outputColumnBytes = 4 + 4 + 1 + 1 + 2 + 2 + 5*8

// TestGenerateAllocGuard bounds what a generator allocates per output byte.
// Both generators build ~100k edges, and the bytes allocated inside Generate
// must stay within 3.5x the output graph's column bytes. Carrying whole
// 64-byte edge rows through growth, coalescing and property synthesis, then
// copying them into the graph, measured 9.6x (PGPBA) and 8.9x (PGSK);
// endpoint pairs through the structural stages and one in-place write of
// the output measure 2.0x and 2.3x.
func TestGenerateAllocGuard(t *testing.T) {
	s := traceSeed(t, 15, 200, 5)
	gens := map[string]func(c *cluster.Cluster) Generator{
		"pgpba": func(c *cluster.Cluster) Generator { return &PGPBA{Fraction: 0.1, Seed: 3, Cluster: c} },
		"pgsk":  func(c *cluster.Cluster) Generator { return &PGSK{Seed: 3, Cluster: c} },
	}
	for name, mk := range gens {
		t.Run(name, func(t *testing.T) {
			gen := mk(cluster.MustNew(cluster.Config{Nodes: 1, CoresPerNode: 2}))
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			g, err := gen.Generate(s, 100000)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			out := g.NumEdges() * outputColumnBytes
			ratio := float64(after.TotalAlloc-before.TotalAlloc) / float64(out)
			t.Logf("%s: %d edges, allocated %.2fx the %d output column bytes", name, g.NumEdges(), ratio, out)
			if ratio > 3.5 {
				t.Fatalf("%s allocated %.2fx its output column bytes, want <= 3.5x", name, ratio)
			}
		})
	}
}
