package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"csb/internal/cluster"
	"csb/internal/core"
	"csb/internal/netflow"
	"csb/internal/pcap"
	"csb/internal/serve"
)

// buildWorkload takes a sequence of distinct specs from spec to artifact
// bytes, one build at a time. Each spec has its own seed trace, as separate
// csbgen users would, so nothing one build computes can serve another.
type buildWorkload struct {
	generator string
	format    string
	edges     int64
	specs     []serve.Spec
}

// specCount bounds the spec sequence; a run that builds more wraps around,
// which only happens at tiny sizes.
const specCount = 256

func newBuildWorkload(generator, format string, edges int64) *buildWorkload {
	return &buildWorkload{generator: generator, format: format, edges: edges}
}

func (w *buildWorkload) setup(seed uint64) error {
	rng := rand.New(rand.NewPCG(seed, 0xb1d5))
	w.specs = make([]serve.Spec, specCount)
	for i := range w.specs {
		s := serve.Spec{
			Generator: w.generator, Hosts: serve.DefaultHosts, Sessions: serve.DefaultSessions,
			Seed: rng.Uint64()>>1 + 1, Edges: w.edges, Format: w.format,
		}
		if err := s.Normalize(); err != nil {
			return err
		}
		w.specs[i] = s
	}
	// One build warms the heap and the engine's worker pool, which users
	// running builds back to back never pay again.
	_, err := buildArtifact(w.specs[len(w.specs)-1])
	return err
}

func (w *buildWorkload) close() {}

// buildArtifact is the untraced build: the public one-call API.
func buildArtifact(spec serve.Spec) ([]byte, error) {
	c, err := newCluster(nil)
	if err != nil {
		return nil, err
	}
	return serve.BuildArtifact(context.Background(), spec, c)
}

// run builds specs in sequence until the deadline. Untraced passes call
// serve.BuildArtifact; traced passes compose the same pipeline from its
// layers' public functions, with a span around each.
func (w *buildWorkload) run(p *pass) error {
	for i := 0; p.more(i); i++ {
		spec := w.specs[i%len(w.specs)]
		t0 := time.Now()
		var data []byte
		var err error
		root := -1
		if p.rec == nil {
			data, err = buildArtifact(spec)
		} else {
			root, data, err = buildLayered(p.rec, spec)
		}
		op := opRecord{wall: time.Since(t0), root: root, index: i % len(w.specs), err: err}
		if err == nil {
			op.digest, op.bytes = sha256.Sum256(data), len(data)
			op.items, op.err = checkArtifact(spec, data)
		}
		p.add(op)
	}
	return nil
}

// buildLayered runs serve.BuildArtifact's pipeline layer by layer:
// pcap.Synthesize, netflow.Assemble/BuildGraph, core.Analyze, PGSK.FitSeed,
// Generate and serve.EncodeArtifact.
func buildLayered(rec *recorder, spec serve.Spec) (int, []byte, error) {
	root := rec.start("op", -1, 0, true)
	defer root.end(nil, map[string]any{"seed": spec.Seed, "generator": spec.Generator})
	id := root.ID()

	s := rec.start("pcap.synthesize", id, 0, true)
	pkts, err := pcap.Synthesize(pcap.DefaultTraceConfig(spec.Hosts, spec.Sessions, spec.Seed))
	s.end(nil, nil)
	if err != nil {
		return id, nil, err
	}
	s = rec.start("netflow.flowgraph", id, 0, true)
	g := netflow.BuildGraph(netflow.Assemble(pkts, 0))
	s.end(nil, nil)
	s = rec.start("core.analyze", id, 0, true)
	seed, err := core.Analyze(g)
	s.end(nil, nil)
	if err != nil {
		return id, nil, err
	}

	tr := cluster.NewTracer()
	t0 := time.Now()
	c, err := newCluster(tr)
	if err != nil {
		return id, nil, err
	}
	var gen core.Generator
	switch spec.Generator {
	case serve.GenPGSK:
		pg := &core.PGSK{Seed: spec.Seed, Cluster: c}
		s = rec.start("kronfit.fit", id, 0, true)
		init, err := pg.FitSeed(seed)
		s.end(nil, nil)
		if err != nil {
			return id, nil, err
		}
		pg.Initiator = &init
		gen = pg
	default:
		gen = &core.PGPBA{Fraction: spec.Fraction, Seed: spec.Seed, Cluster: c}
	}
	s = rec.start("core.generate", id, 0, true)
	out, err := gen.Generate(seed, spec.Edges)
	s.end(nil, nil)
	rec.importStages(tr, t0, s.ID(), 0)
	if err != nil {
		return id, nil, err
	}

	s = rec.start("serve.encode", id, 0, true)
	var buf bytes.Buffer
	err = serve.EncodeArtifact(&buf, out, spec.Format)
	s.end(nil, nil)
	return id, buf.Bytes(), err
}

// checkArtifact checks a build's bytes are a well-formed artifact of the
// requested size and returns the number of records in it. PGPBA grows until
// it reaches the target; PGSK's Kronecker expansion hits it only in
// expectation, so PGSK is held to the tolerance of its own tests (half to
// three times the target).
func checkArtifact(spec serve.Spec, data []byte) (float64, error) {
	if len(data) == 0 || data[len(data)-1] != '\n' {
		return 0, fmt.Errorf("spec seed %d: artifact is not newline-terminated", spec.Seed)
	}
	// Both text formats start with one header line.
	rows := int64(bytes.Count(data, []byte{'\n'}) - 1)
	lo, hi := spec.Edges, int64(math.MaxInt64)
	if spec.Generator == serve.GenPGSK {
		lo, hi = spec.Edges/2, spec.Edges*3
	}
	if rows < lo || rows > hi {
		return 0, fmt.Errorf("spec seed %d: artifact holds %d records for a target of %d", spec.Seed, rows, spec.Edges)
	}
	return float64(rows), nil
}

// verify checks that every build of one spec index has one digest across
// all passes (the layer-composed traced builds against the
// serve.BuildArtifact builds and the GOMAXPROCS=1 pass), rebuilding with
// serve.BuildArtifact any traced index no untraced pass built.
func (w *buildWorkload) verify(passes []*pass) []error {
	ref := map[int][32]byte{}
	for _, p := range passes {
		if p.rec != nil {
			continue
		}
		for _, op := range p.ops {
			if op.err == nil {
				ref[op.index] = op.digest
			}
		}
	}
	// A fresh build of the first spec must repeat its digest.
	if d, ok := ref[0]; ok {
		data, err := buildArtifact(w.specs[0])
		if err != nil {
			return []error{fmt.Errorf("repeat build: %w", err)}
		}
		if sha256.Sum256(data) != d {
			return []error{fmt.Errorf("repeat build of spec 0 changed its digest")}
		}
	}
	var errs []error
	for _, p := range passes {
		for _, op := range p.ops {
			if op.err != nil {
				continue
			}
			d, ok := ref[op.index]
			if !ok {
				data, err := buildArtifact(w.specs[op.index])
				if err != nil {
					errs = append(errs, fmt.Errorf("reference build %d: %w", op.index, err))
					continue
				}
				d = sha256.Sum256(data)
				ref[op.index] = d
			}
			if d != op.digest {
				errs = append(errs, fmt.Errorf("spec %d (seed %d): digest differs between builds", op.index, w.specs[op.index].Seed))
			}
		}
	}
	return errs
}
