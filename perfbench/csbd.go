package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"csb/internal/serve"
)

// pollInterval is how long a csbd-mix client waits between job status polls.
const pollInterval = 5 * time.Millisecond

// csbdWorkload drives an in-process csbd (serve.Server on loopback HTTP)
// with closed-loop clients: each POSTs /v1/jobs, polls the job at a fixed
// interval until it is done, then follows artifact_url, and only then
// submits its next job. Specs are Zipf-distributed over a fixed set that
// shares seed traces, plus a share of fresh specs, so the run mixes cache
// hits from memory and from the spill tier with miss builds, puts,
// evictions, spills and single-flight coalescing.
type csbdWorkload struct {
	clients   int
	freshFrac float64
	pgpba     int64 // edges of the pgpba specs
	pgsk      int64 // edges of the pgsk specs

	seed   uint64
	passes uint64
	fixed  []serve.Spec
	fresh  []serve.Spec // shared sequence every client walks
	refs   map[string][]byte

	spill  string
	srv    *serve.Server
	epoch  time.Time // approximately when srv's tracer started
	hs     *http.Server
	served chan struct{}
	base   string
	client *http.Client

	mu        sync.Mutex
	jobs      map[string]bool // distinct job ids the server handed out
	freshUsed int             // fresh specs handed out so far, over all passes
}

func newCSBDWorkload(clients int, pgpba, pgsk int64) *csbdWorkload {
	return &csbdWorkload{clients: clients, freshFrac: 0.1, pgpba: pgpba, pgsk: pgsk}
}

// csbdTraces is how many seed traces the fixed specs share; each trace
// backs one spec per variant.
const csbdTraces = 4

// variant returns the i-th spec shape: two pgpba and two pgsk formats.
func (w *csbdWorkload) variant(i int, seed uint64) serve.Spec {
	s := serve.Spec{Hosts: 40, Sessions: 400, Seed: seed}
	switch i % 4 {
	case 0:
		s.Generator, s.Format, s.Edges = serve.GenPGPBA, serve.FormatTSV, w.pgpba
	case 1:
		s.Generator, s.Format, s.Edges = serve.GenPGPBA, serve.FormatCSV, w.pgpba
	case 2:
		s.Generator, s.Format, s.Edges = serve.GenPGSK, serve.FormatTSV, w.pgsk
	default:
		s.Generator, s.Format, s.Edges = serve.GenPGSK, serve.FormatNDJSON, w.pgsk
	}
	return s
}

func (w *csbdWorkload) setup(seed uint64) error {
	w.seed = seed
	rng := rand.New(rand.NewPCG(seed, 0xc5bd))
	w.fixed, w.fresh = nil, nil
	for t := 0; t < csbdTraces; t++ {
		traceSeed := rng.Uint64()>>1 + 1
		for v := 0; v < 4; v++ {
			w.fixed = append(w.fixed, w.variant(v, traceSeed))
		}
	}
	for i := 0; i < 4096; i++ {
		w.fresh = append(w.fresh, w.variant(rng.IntN(4), rng.Uint64()>>1+1))
	}
	for _, list := range [][]serve.Spec{w.fixed, w.fresh} {
		for i := range list {
			if err := list[i].Normalize(); err != nil {
				return err
			}
		}
	}

	// Reference bytes of the fixed specs, built on the pinned shape.
	w.refs = make(map[string][]byte, len(w.fixed))
	for _, s := range w.fixed {
		data, err := buildArtifact(s)
		if err != nil {
			return fmt.Errorf("reference build: %w", err)
		}
		w.refs[s.ID()] = data
	}

	if err := os.MkdirAll(benchDir, 0o755); err != nil {
		return err
	}
	spill, err := os.MkdirTemp(benchDir, "csbd-spill-")
	if err != nil {
		return err
	}
	w.spill = spill
	w.epoch = time.Now()
	w.srv, err = serve.New(serve.Config{
		Workers: 2, QueueDepth: 64,
		CacheBytes: 8 << 20, CacheDir: spill, CacheDiskBytes: 1 << 30,
		Shape: serve.EngineShape{Nodes: shapeNodes, CoresPerNode: shapeCoresPerNode},
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.base = "http://" + ln.Addr().String()
	w.hs = &http.Server{Handler: w.srv.Handler()}
	w.served = make(chan struct{})
	go func() {
		defer close(w.served)
		w.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	w.client = &http.Client{
		Timeout:   2 * time.Minute,
		Transport: &http.Transport{MaxIdleConnsPerHost: 2 * w.clients},
	}
	w.jobs = map[string]bool{}

	// Warm the cache with every fixed spec, as a daemon that has been up a
	// while would be.
	for _, s := range w.fixed {
		if op := w.job(s, nil, 0); op.err != nil {
			return fmt.Errorf("warm-up job: %w", op.err)
		}
	}
	return nil
}

func (w *csbdWorkload) close() {
	if w.hs != nil {
		w.hs.Close()
		<-w.served
	}
	if w.client != nil {
		w.client.CloseIdleConnections()
	}
	if w.srv != nil {
		w.srv.Close()
	}
	if w.spill != "" {
		os.RemoveAll(w.spill)
	}
}

// run drives the closed loop until the deadline and records the serve-layer
// counters the pass moved.
func (w *csbdWorkload) run(p *pass) error {
	w.passes++
	m0 := w.srv.Metrics()
	w.srv.Tracer().Reset()
	var wg sync.WaitGroup
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(w.seed^w.passes, uint64(c)))
			zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(w.fixed)-1))
			for i := 0; p.more(i); i++ {
				spec := w.fixed[zipf.Uint64()]
				if rng.Float64() < w.freshFrac {
					spec = w.nextFresh(rng)
				}
				p.add(w.job(spec, p.rec, c+1))
			}
		}(c)
	}
	wg.Wait()
	m1 := w.srv.Metrics()
	if p.rec != nil {
		p.rec.importStages(w.srv.Tracer(), w.epoch, -1, 100)
	}
	hits, misses := m1.CacheHits-m0.CacheHits, m1.CacheMisses-m0.CacheMisses
	p.extra = map[string]float64{
		"serve.spills":    float64(m1.Cache.Spills - m0.Cache.Spills),
		"serve.evictions": float64(m1.Cache.Evictions - m0.Cache.Evictions),
		"serve.rejected":  float64(m1.JobsRejected - m0.JobsRejected),
	}
	if hits+misses > 0 {
		p.extra["serve.hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	w.mu.Lock()
	p.extra["serve.jobs_retained"] = float64(len(w.jobs))
	w.mu.Unlock()
	return nil
}

// job runs one client job and checks the artifact's bytes against the
// reference build where one exists. The check runs after the job's
// latency (POST to the last artifact byte) has been taken.
func (w *csbdWorkload) job(spec serve.Spec, rec *recorder, lane int) opRecord {
	op, data := w.request(spec, rec, lane)
	if op.err != nil {
		return op
	}
	if ref, ok := w.refs[spec.ID()]; ok && !bytes.Equal(ref, data) {
		op.err = fmt.Errorf("job %s: artifact differs from serve.BuildArtifact", op.job)
	} else if len(data) == 0 {
		op.err = fmt.Errorf("job %s: empty artifact", op.job)
	}
	return op
}

// request submits spec, polls the job until it is terminal and fetches the
// artifact.
func (w *csbdWorkload) request(spec serve.Spec, rec *recorder, lane int) (op opRecord, data []byte) {
	t0 := time.Now()
	root := rec.start("op", -1, lane, false)
	op.root = root.ID()
	defer func() {
		op.wall = time.Since(t0)
		root.end(nil, map[string]any{"job": op.job, "hit": op.hit, "polls": op.polls})
	}()

	s := rec.start("serve.submit", root.ID(), lane, false)
	body, _ := json.Marshal(spec) // a Spec always marshals
	st, code, err := w.call(http.MethodPost, "/v1/jobs", body)
	s.end(nil, nil)
	if err != nil {
		op.err = err
		return op, nil
	}
	if code != http.StatusAccepted && code != http.StatusOK {
		op.err = fmt.Errorf("submit: HTTP %d", code)
		return op, nil
	}
	op.job, op.hit = st.ID, st.State == serve.StateDone
	w.mu.Lock()
	w.jobs[st.ID] = true
	w.mu.Unlock()

	if st.State != serve.StateDone {
		s = rec.start("serve.wait", root.ID(), lane, false)
		for st.State == serve.StateQueued || st.State == serve.StateRunning {
			time.Sleep(pollInterval)
			op.polls++
			if st, code, err = w.call(http.MethodGet, "/v1/jobs/"+op.job, nil); err != nil || code != http.StatusOK {
				break
			}
		}
		s.end(nil, map[string]any{"polls": op.polls})
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("poll job %s: HTTP %d", op.job, code)
		}
		if err != nil {
			op.err = err
			return op, nil
		}
		if st.State != serve.StateDone {
			op.err = fmt.Errorf("job %s ended %s: %s", op.job, st.State, st.Error)
			return op, nil
		}
	}

	tf := time.Now()
	s = rec.start("serve.fetch", root.ID(), lane, false)
	data, err = w.fetch(st.ArtifactURL)
	s.end(nil, map[string]any{"bytes": len(data)})
	op.fetch, op.bytes, op.items = time.Since(tf), len(data), 1
	op.err = err
	return op, data
}

// nextFresh returns a spec no client has asked for yet or, one time in
// four, the newest fresh spec again: another client may still be building
// it, which is what single-flight coalescing absorbs.
func (w *csbdWorkload) nextFresh(rng *rand.Rand) serve.Spec {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.freshUsed == 0 || rng.IntN(4) != 0 {
		w.freshUsed++
	}
	return w.fresh[(w.freshUsed-1)%len(w.fresh)]
}

// call makes one JSON API request and decodes the job status it returns.
func (w *csbdWorkload) call(method, path string, body []byte) (serve.JobStatus, int, error) {
	var st serve.JobStatus
	req, err := http.NewRequestWithContext(context.Background(), method, w.base+path, bytes.NewReader(body))
	if err != nil {
		return st, 0, err
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return st, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 == 2 {
		err = json.NewDecoder(resp.Body).Decode(&st)
	} else {
		_, err = io.Copy(io.Discard, resp.Body)
	}
	return st, resp.StatusCode, err
}

// fetch downloads an artifact to its last byte.
func (w *csbdWorkload) fetch(url string) ([]byte, error) {
	if url == "" {
		return nil, errors.New("done job without artifact_url")
	}
	resp, err := w.client.Get(w.base + url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("fetch %s: HTTP %d", url, resp.StatusCode)
	}
	return data, nil
}
