// Package kronfit estimates the 2x2 stochastic Kronecker initiator matrix of
// a graph by maximum likelihood (the KronFit procedure of Leskovec et al.,
// JMLR 2010): gradient ascent on the model likelihood, with the intractable
// node correspondence σ improved between gradient steps by greedy
// hill-climbing over random vertex swaps, and the sum over non-edges
// replaced by its second-order Taylor closed form.
//
// Likelihood. With S = Σθ and S2 = Σθ², the log-likelihood of a graph under
// initiator θ at Kronecker power k and permutation σ is approximated by
//
//	LL(θ,σ) ≈ -S^k - S2^k/2 + Σ_{(u,v)∈E} [ log p_σ(u,v) + p_σ(u,v) + p_σ(u,v)²/2 ]
//
// where p_σ(u,v) = Π_level θ[bit(σu), bit(σv)]. The first two terms are the
// closed-form Taylor expansion of Σ_{all pairs} log(1-p); the bracketed edge
// terms swap each edge's no-edge contribution for its edge contribution.
// Only the edge terms depend on σ, so scoring a swap needs just the edges
// incident to the swapped vertices.
//
// Count table. The product over levels depends only on how many levels take
// each bit pair: with x = σu and y = σv, c3 = popcount(x&y), c2 =
// popcount(x&^y), c1 = popcount(y&^x) and c0 = k-c1-c2-c3, so
// log p = Σ cᵢ·log θᵢ. Whenever θ changes, a table indexed by (c3, c2, c1)
// is filled with p and the edge term for every count triple, and each edge
// then costs three popcounts and one lookup instead of a k-level product
// and a math.Log.
package kronfit

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"

	"csb/internal/graph"
	"csb/internal/kronecker"
)

// Config parameterizes Fit. Zero fields select the defaults.
type Config struct {
	// Iterations is the number of gradient steps (default 80).
	Iterations int
	// LearningRate is the step size applied to the per-edge-normalized
	// gradient (default 0.05).
	LearningRate float64
	// PermSamples is the number of permutation samples averaged per
	// gradient step (default 3).
	PermSamples int
	// SwapsPerSample is the number of random vertex swaps proposed per
	// hill-climbing pass; a swap is kept only when it does not lower the
	// likelihood (default 2 * number of vertices).
	SwapsPerSample int
	// MinTheta is the lower projection bound keeping the likelihood finite
	// (default 0.005); the upper bound is 1 - MinTheta.
	MinTheta float64
	// Init is the starting initiator (default kronecker.DefaultInitiator).
	Init kronecker.Initiator
	// Seed drives the deterministic RNG.
	Seed uint64
}

func (c *Config) fill() {
	if c.Iterations == 0 {
		c.Iterations = 80
	}
	if c.LearningRate == 0 {
		c.LearningRate = 0.05
	}
	if c.PermSamples == 0 {
		c.PermSamples = 3
	}
	if c.MinTheta == 0 {
		c.MinTheta = 0.005
	}
	if c.Init.Sum() == 0 {
		c.Init = kronecker.DefaultInitiator()
	}
}

// Result reports the fitted initiator and diagnostics.
type Result struct {
	Initiator kronecker.Initiator
	K         int     // Kronecker power covering the graph: ceil(log2 |V|)
	InitialLL float64 // likelihood at the starting point
	FinalLL   float64 // likelihood at the fitted point
}

// fitState bundles the per-fit data.
type fitState struct {
	src, dst []uint32  // simple-graph edges
	inc      [][]int32 // vertex -> incident edge indices
	sigma    []uint32  // graph vertex -> Kronecker vertex
	k        int
	rng      *rand.Rand
	tab      termTable
}

// newFitState indexes the simple graph g for fitting at power bitsFor(|V|).
func newFitState(g *graph.Graph, seed uint64) *fitState {
	n := g.NumVertices()
	k := bitsFor(n)
	cols := g.Cols()
	st := &fitState{
		src:   make([]uint32, cols.Len()),
		dst:   make([]uint32, cols.Len()),
		inc:   make([][]int32, n),
		sigma: make([]uint32, n),
		k:     k,
		rng:   rand.New(rand.NewPCG(seed, 0xf17)),
		tab:   newTermTable(k),
	}
	for i := range st.src {
		src, dst := uint32(cols.SrcID(i)), uint32(cols.DstID(i))
		st.src[i], st.dst[i] = src, dst
		st.inc[src] = append(st.inc[src], int32(i))
		if dst != src {
			st.inc[dst] = append(st.inc[dst], int32(i))
		}
	}
	for i := range st.sigma {
		st.sigma[i] = uint32(i)
	}
	return st
}

// Fit estimates the initiator of g. Multi-edges are collapsed first (KronFit
// models a simple graph, mirroring the Gp construction of the PGSK
// algorithm).
func Fit(g *graph.Graph, cfg Config) (*Result, error) {
	return fit(g.Simplify(), cfg)
}

// fit runs KronFit on an already simple graph.
func fit(simple *graph.Graph, cfg Config) (*Result, error) {
	cfg.fill()
	if cfg.SwapsPerSample == 0 {
		cfg.SwapsPerSample = int(2 * simple.NumVertices())
	}
	if simple.NumEdges() == 0 {
		return nil, errors.New("kronfit: graph has no edges")
	}
	if simple.NumVertices() < 2 {
		return nil, errors.New("kronfit: graph has fewer than 2 vertices")
	}
	st := newFitState(simple, cfg.Seed)

	theta := cfg.Init
	res := &Result{K: st.k, InitialLL: st.logLikelihood(&theta)}
	lr := cfg.LearningRate
	currentLL := res.InitialLL
	for iter := 0; iter < cfg.Iterations; iter++ {
		// Improve the node correspondence first; hill-climbing keeps the
		// likelihood monotone (a full Metropolis chain mixes too slowly at
		// this scale and random-walks away from good permutations).
		for s := 0; s < cfg.PermSamples; s++ {
			st.improveSigma(&theta, cfg.SwapsPerSample)
		}
		currentLL = st.logLikelihood(&theta)

		grad := st.gradient(&theta)
		// Normalize by edge count so the learning rate is scale free, and
		// backtrack until the step improves the likelihood.
		accepted := false
		for attempt := 0; attempt < 8; attempt++ {
			cand := theta
			scale := lr / float64(len(st.src))
			for i := range cand.Theta {
				cand.Theta[i] = clamp(cand.Theta[i]+scale*grad[i], cfg.MinTheta, 1-cfg.MinTheta)
			}
			if ll := st.logLikelihood(&cand); ll >= currentLL {
				theta = cand
				currentLL = ll
				accepted = true
				break
			}
			lr /= 2
		}
		if !accepted && lr < 1e-12 {
			break // converged: no admissible step remains
		}
	}
	res.Initiator = theta
	res.FinalLL = st.logLikelihood(&theta)
	return res, nil
}

// bitsFor returns ceil(log2(n)) with a minimum of 1.
func bitsFor(n int64) int {
	k := 1
	for int64(1)<<uint(k) < n {
		k++
	}
	return k
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// termCell is one count-table entry: the edge probability p and the edge
// term log p + p + p²/2.
type termCell struct {
	p, term float64
}

// termTable maps an edge's bit-pair counts to its probability and
// likelihood term under one θ; see the package comment.
type termTable struct {
	k      int
	theta  kronecker.Initiator
	filled bool
	cells  []termCell // (k+1)³ entries, see at
}

func newTermTable(k int) termTable {
	return termTable{k: k, cells: make([]termCell, (k+1)*(k+1)*(k+1))}
}

// set refills the table for theta unless it already holds it. Only triples
// with c1+c2+c3 <= k are reachable, so only those are filled.
func (t *termTable) set(theta *kronecker.Initiator) {
	if t.filled && t.theta == *theta {
		return
	}
	t.theta, t.filled = *theta, true
	var logTheta [4]float64
	for i, th := range theta.Theta {
		logTheta[i] = math.Log(th)
	}
	for c3 := 0; c3 <= t.k; c3++ {
		for c2 := 0; c2 <= t.k-c3; c2++ {
			for c1 := 0; c1 <= t.k-c3-c2; c1++ {
				counts := [4]int{t.k - c3 - c2 - c1, c1, c2, c3}
				var logP float64
				for i, c := range counts {
					// A level count of zero contributes exactly 0, even
					// where θᵢ = 0 and log θᵢ = -Inf.
					if c > 0 {
						logP += float64(c) * logTheta[i]
					}
				}
				p := math.Exp(logP)
				*t.at(counts) = termCell{p: p, term: logP + p + p*p/2}
			}
		}
	}
}

// pairCounts returns how many of the k levels select each initiator entry
// for the Kronecker-space edge (x, y): the count of (bit(x), bit(y)) pairs
// equal to 00, 01, 10 and 11.
func pairCounts(x, y uint32, k int) [4]int {
	c3 := bits.OnesCount32(x & y)
	c2 := bits.OnesCount32(x &^ y)
	c1 := bits.OnesCount32(y &^ x)
	return [4]int{k - c1 - c2 - c3, c1, c2, c3}
}

// at returns the table entry for the level counts c.
func (t *termTable) at(c [4]int) *termCell {
	stride := t.k + 1
	return &t.cells[(c[3]*stride+c[2])*stride+c[1]]
}

// edgeTerm returns log p + p + p²/2 for the σ-mapped edge e under the
// table's current θ.
func (st *fitState) edgeTerm(e int32) float64 {
	return st.tab.at(pairCounts(st.sigma[st.src[e]], st.sigma[st.dst[e]], st.k)).term
}

// logLikelihood evaluates the approximate LL at the current permutation.
func (st *fitState) logLikelihood(theta *kronecker.Initiator) float64 {
	st.tab.set(theta)
	kf := float64(st.k)
	ll := -math.Pow(theta.Sum(), kf) - math.Pow(theta.SumSquares(), kf)/2
	for e := range st.src {
		ll += st.edgeTerm(int32(e))
	}
	return ll
}

// pairTerms sums the edge terms of a's incident edges, then b's.
func (st *fitState) pairTerms(a, b int64) float64 {
	var sum float64
	for _, e := range st.inc[a] {
		sum += st.edgeTerm(e)
	}
	for _, e := range st.inc[b] {
		sum += st.edgeTerm(e)
	}
	return sum
}

// improveSigma performs `swaps` random swap proposals on σ, accepting only
// improvements of the edge-term likelihood (the closed-form no-edge terms
// are permutation invariant, so only edges incident to the swapped vertices
// matter).
func (st *fitState) improveSigma(theta *kronecker.Initiator, swaps int) {
	st.tab.set(theta)
	n := int64(len(st.sigma))
	for s := 0; s < swaps; s++ {
		a := st.rng.Int64N(n)
		b := st.rng.Int64N(n)
		if a == b {
			continue
		}
		before := st.pairTerms(a, b)
		st.sigma[a], st.sigma[b] = st.sigma[b], st.sigma[a]
		after := st.pairTerms(a, b)
		// Edges incident to both a and b are double counted identically on
		// both sides, so the comparison is unaffected.
		if after >= before {
			continue // accept
		}
		st.sigma[a], st.sigma[b] = st.sigma[b], st.sigma[a] // reject: undo
	}
}

// gradient evaluates dLL/dθ at the current permutation.
func (st *fitState) gradient(theta *kronecker.Initiator) [4]float64 {
	st.tab.set(theta)
	kf := float64(st.k)
	s := theta.Sum()
	s2 := theta.SumSquares()
	var grad [4]float64
	for i := range grad {
		grad[i] = -kf*math.Pow(s, kf-1) - kf*math.Pow(s2, kf-1)*theta.Theta[i]
	}
	for e := range st.src {
		counts := pairCounts(st.sigma[st.src[e]], st.sigma[st.dst[e]], st.k)
		p := st.tab.at(counts).p
		f := 1 + p + p*p
		for i := range grad {
			if counts[i] > 0 {
				grad[i] += float64(counts[i]) / theta.Theta[i] * f
			}
		}
	}
	return grad
}

// FitForGeneration is the convenience used by PGSK: it fits g and returns an
// initiator rescaled so its expected edge count at power K exactly matches
// the simple graph's edge count (KronFit optimizes shape; the paper's
// pipeline needs the edge budget to match the seed).
func FitForGeneration(g *graph.Graph, cfg Config) (*Result, error) {
	simple := g.Simplify()
	res, err := fit(simple, cfg)
	if err != nil {
		return nil, err
	}
	simpleEdges := float64(simple.NumEdges())
	want := math.Pow(simpleEdges, 1/float64(res.K)) // per-level edge budget
	have := res.Initiator.Sum()
	if have > 0 {
		f := want / have
		for i := range res.Initiator.Theta {
			res.Initiator.Theta[i] = clamp(res.Initiator.Theta[i]*f, 1e-4, 1-1e-4)
		}
	}
	if err := res.Initiator.Validate(); err != nil {
		return nil, fmt.Errorf("kronfit: rescaled initiator invalid: %w", err)
	}
	return res, nil
}
