package kronfit

import (
	"math"
	"math/rand/v2"
	"testing"

	"csb/internal/graph"
	"csb/internal/kronecker"
)

func TestFitErrors(t *testing.T) {
	if _, err := Fit(graph.New(5), Config{}); err == nil {
		t.Error("edgeless graph accepted")
	}
	g := graph.New(1)
	g.AddEdge(graph.Edge{Src: 0, Dst: 0})
	if _, err := Fit(g, Config{}); err == nil {
		t.Error("single-vertex graph accepted")
	}
}

func TestBitsFor(t *testing.T) {
	cases := map[int64]int{2: 1, 3: 2, 4: 2, 5: 3, 1024: 10, 1025: 11}
	for n, want := range cases {
		if got := bitsFor(n); got != want {
			t.Errorf("bitsFor(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestFitImprovesLikelihood(t *testing.T) {
	truth := kronecker.Initiator{Theta: [4]float64{0.9, 0.6, 0.5, 0.15}}
	g, err := kronecker.Generate(truth, 9, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Fit(g, Config{Iterations: 40, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalLL < res.InitialLL {
		t.Fatalf("likelihood decreased: %g -> %g", res.InitialLL, res.FinalLL)
	}
	if res.K != 9 {
		t.Fatalf("K = %d, want 9", res.K)
	}
}

func TestFitRecoversEdgeBudget(t *testing.T) {
	// The fitted Σθ must predict the training graph's edge count: the
	// -S^k term anchors (Σθ)^k ≈ |E|.
	truth := kronecker.Initiator{Theta: [4]float64{0.85, 0.55, 0.45, 0.2}}
	g, err := kronecker.Generate(truth, 10, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Fit(g, Config{Iterations: 80, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	predicted := res.Initiator.ExpectedEdges(res.K)
	actual := float64(g.NumEdges())
	if predicted < actual*0.6 || predicted > actual*1.6 {
		t.Fatalf("predicted edges %g vs actual %g (theta %v)", predicted, actual, res.Initiator)
	}
}

func TestFitRecoversCorePeripheryOrdering(t *testing.T) {
	// A strongly core-periphery graph must fit θ00 as the largest entry and
	// θ11 as the smallest.
	truth := kronecker.Initiator{Theta: [4]float64{0.95, 0.5, 0.5, 0.08}}
	g, err := kronecker.Generate(truth, 10, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Fit(g, Config{Iterations: 100, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	th := res.Initiator.Theta
	if !(th[0] > th[1] && th[0] > th[2] && th[0] > th[3]) {
		t.Fatalf("θ00 not dominant: %v", res.Initiator)
	}
	if !(th[3] < th[1] && th[3] < th[2]) {
		t.Fatalf("θ11 not smallest: %v", res.Initiator)
	}
}

func TestFitDeterministic(t *testing.T) {
	g, err := kronecker.Generate(kronecker.DefaultInitiator(), 8, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Fit(g, Config{Iterations: 10, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fit(g, Config{Iterations: 10, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Initiator.Theta {
		if a.Initiator.Theta[i] != b.Initiator.Theta[i] {
			t.Fatalf("fit not deterministic: %v vs %v", a.Initiator, b.Initiator)
		}
	}
}

func TestFitCollapsesMultiEdges(t *testing.T) {
	// A multigraph and its simple projection must fit identically.
	g := graph.New(8)
	edges := [][2]int64{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}, {4, 5}, {5, 6}, {6, 7}, {0, 4}}
	for _, e := range edges {
		g.AddEdge(graph.Edge{Src: graph.VertexID(e[0]), Dst: graph.VertexID(e[1])})
		g.AddEdge(graph.Edge{Src: graph.VertexID(e[0]), Dst: graph.VertexID(e[1])}) // dup
	}
	multi, err := Fit(g, Config{Iterations: 5, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	simple, err := Fit(g.Simplify(), Config{Iterations: 5, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for i := range multi.Initiator.Theta {
		if math.Abs(multi.Initiator.Theta[i]-simple.Initiator.Theta[i]) > 1e-12 {
			t.Fatalf("multigraph fit differs: %v vs %v", multi.Initiator, simple.Initiator)
		}
	}
}

func TestFitThetaStaysInBounds(t *testing.T) {
	g, err := kronecker.Generate(kronecker.DefaultInitiator(), 8, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Fit(g, Config{Iterations: 50, LearningRate: 1.0, Seed: 11}) // aggressive LR
	if err != nil {
		t.Fatal(err)
	}
	for i, th := range res.Initiator.Theta {
		if th < 0.005-1e-12 || th > 0.995+1e-12 || math.IsNaN(th) {
			t.Fatalf("theta[%d] = %v escaped bounds", i, th)
		}
	}
}

func TestFitForGenerationMatchesBudget(t *testing.T) {
	truth := kronecker.Initiator{Theta: [4]float64{0.9, 0.55, 0.45, 0.15}}
	g, err := kronecker.Generate(truth, 10, 0, 12)
	if err != nil {
		t.Fatal(err)
	}
	res, err := FitForGeneration(g, Config{Iterations: 30, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	predicted := res.Initiator.ExpectedEdges(res.K)
	actual := float64(g.Simplify().NumEdges())
	if math.Abs(predicted-actual)/actual > 0.02 {
		t.Fatalf("rescaled budget off: predicted %g actual %g", predicted, actual)
	}
}

func TestFitForGenerationOnFlowGraph(t *testing.T) {
	// The PGSK path: a trace-shaped multigraph (hub-dominated) must produce
	// a usable initiator.
	g := graph.New(64)
	for i := int64(1); i < 64; i++ {
		g.AddEdge(graph.Edge{Src: graph.VertexID(i), Dst: 0})
		if i%3 == 0 {
			g.AddEdge(graph.Edge{Src: graph.VertexID(i), Dst: graph.VertexID(i / 3)})
		}
	}
	res, err := FitForGeneration(g, Config{Iterations: 40, Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Initiator.Validate(); err != nil {
		t.Fatal(err)
	}
	if res.K != 6 {
		t.Fatalf("K = %d, want 6", res.K)
	}
}

// levelCounts is the per-level reference for pairCounts: it walks the k bit
// levels and counts which initiator entry each selects.
func levelCounts(u, v uint32, k int) [4]int {
	var c [4]int
	for level := 0; level < k; level++ {
		shift := uint(k - 1 - level)
		c[((u>>shift)&1)<<1|(v>>shift)&1]++
	}
	return c
}

func TestTermTableMatchesDirectFormula(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 22))
	for trial := 0; trial < 400; trial++ {
		var theta kronecker.Initiator
		for i := range theta.Theta {
			theta.Theta[i] = 0.005 + 0.99*rng.Float64()
		}
		k := 1 + rng.IntN(24)
		tab := newTermTable(k)
		tab.set(&theta)
		for pair := 0; pair < 50; pair++ {
			u, v := rng.Uint32N(1<<k), rng.Uint32N(1<<k)
			counts := pairCounts(u, v, k)
			if want := levelCounts(u, v, k); counts != want {
				t.Fatalf("k=%d u=%b v=%b: pairCounts %v, per-level counts %v", k, u, v, counts, want)
			}
			p := kronecker.EdgeProbability(&theta, k, int64(u), int64(v))
			logP := math.Log(p)
			want := logP + p + p*p/2
			cell := tab.at(counts)
			// Relative to the summands' magnitude: the term crosses zero
			// near p ≈ 0.52, where a relative error of the sum itself is
			// meaningless.
			if scale := math.Abs(logP) + p + p*p/2; math.Abs(cell.term-want) > 1e-12*scale {
				t.Fatalf("θ=%v k=%d u=%b v=%b: table term %v, direct %v", theta.Theta, k, u, v, cell.term, want)
			}
			if math.Abs(cell.p-p) > 1e-12*p {
				t.Fatalf("θ=%v k=%d u=%b v=%b: table p %v, direct %v", theta.Theta, k, u, v, cell.p, p)
			}
		}
	}
}

func TestTermTableZeroThetaUnusedIsFinite(t *testing.T) {
	theta := kronecker.Initiator{Theta: [4]float64{0.9, 0, 0.5, 0.1}}
	const k = 4
	tab := newTermTable(k)
	tab.set(&theta)
	for u := uint32(0); u < 1<<k; u++ {
		for v := uint32(0); v < 1<<k; v++ {
			c := pairCounts(u, v, k)
			term := tab.at(c).term
			if math.IsNaN(term) {
				t.Fatalf("u=%b v=%b counts %v: term is NaN", u, v, c)
			}
			if c[1] == 0 && math.IsInf(term, 0) {
				t.Fatalf("u=%b v=%b counts %v: term %v, want finite (θ01 = 0 unused)", u, v, c, term)
			}
			if c[1] > 0 && !math.IsInf(term, -1) {
				t.Fatalf("u=%b v=%b counts %v: term %v, want -Inf (θ01 = 0 used)", u, v, c, term)
			}
		}
	}
}

func TestTermTableRefillsOnThetaChange(t *testing.T) {
	a := kronecker.DefaultInitiator()
	b := kronecker.Initiator{Theta: [4]float64{0.7, 0.4, 0.3, 0.2}}
	tab := newTermTable(3)
	tab.set(&a)
	tab.set(&b)
	c := pairCounts(0b101, 0b110, 3)
	if got, want := tab.at(c).p, kronecker.EdgeProbability(&b, 3, 0b101, 0b110); math.Abs(got-want) > 1e-15 {
		t.Fatalf("after θ change p = %v, want %v", got, want)
	}
}

// traceShapedGraph is a hub-dominated simple graph shaped like a flow
// graph: most hosts talk to a few servers, plus a sparse peer layer.
func traceShapedGraph() *graph.Graph {
	const n = 512
	g := graph.New(n)
	for i := int64(4); i < n; i++ {
		g.AddEdge(graph.Edge{Src: graph.VertexID(i), Dst: graph.VertexID(i % 4)})
		if i%5 == 0 {
			g.AddEdge(graph.Edge{Src: graph.VertexID(i), Dst: graph.VertexID(i / 5)})
		}
		if i%7 == 0 {
			g.AddEdge(graph.Edge{Src: graph.VertexID(i % 4), Dst: graph.VertexID(i)})
		}
	}
	return g.Simplify()
}

func TestImproveSigmaDoesNotAllocate(t *testing.T) {
	st := newFitState(traceShapedGraph(), 1)
	theta := kronecker.DefaultInitiator()
	st.improveSigma(&theta, 1) // fill the table outside the measurement
	if allocs := testing.AllocsPerRun(50, func() { st.improveSigma(&theta, 256) }); allocs != 0 {
		t.Fatalf("improveSigma allocates %v times per call, want 0", allocs)
	}
}
