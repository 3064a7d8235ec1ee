// Command perfbench is csb's benchmark of record: four workloads that take
// the system from spec to detector score, each checked for correct output,
// reporting end-to-end metrics (untraced) or a per-layer breakdown (traced).
//
//	bash perfbench/run.sh --workload pgsk-build --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. See README.md for the workloads,
// the metrics and how to read a traced run.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"text/tabwriter"
	"time"
)

// benchDir holds everything a run writes (traces, spill files), relative to
// the checkout root the benchmark runs from.
const benchDir = ".bench_build/perfbench"

// setupRepeats is how many times set-up runs; setup_s is their median and
// the last set-up is the one measured.
const setupRepeats = 3

// workload is one benchmark input mix.
type workload interface {
	// setup builds the workload's inputs from the seed.
	setup(seed uint64) error
	// run executes operations until p's deadline, recording each in p.
	run(p *pass) error
	// close releases what setup started.
	close()
}

// verifier is implemented by workloads whose outputs are checked across
// passes once measuring is over.
type verifier interface {
	verify(passes []*pass) []error
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	tiny     bool // self-test input sizes
	commit   string
	out      string
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"pgsk-build", "pgpba-build", "replay-detect", "csbd-mix"}

// newWorkload returns a fresh workload at full size, or at the self-test's
// tiny size.
func newWorkload(name string, tiny bool) (workload, error) {
	pick := func(full, small int64) int64 {
		if tiny {
			return small
		}
		return full
	}
	switch name {
	case "pgsk-build":
		return newBuildWorkload("pgsk", "tsv", pick(300_000, 20_000)), nil
	case "pgpba-build":
		return newBuildWorkload("pgpba", "csv", pick(1_000_000, 50_000)), nil
	case "replay-detect":
		return newReplayWorkload(pick(500_000, 20_000), 2), nil
	case "csbd-mix":
		return newCSBDWorkload(2, pick(40_000, 5_000), pick(20_000, 3_000)), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// endToEnd lists the end-to-end metrics with their units, in report order.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"items_per_s", "1/s"},
	{"peak_heap_mb", "MB"},
}

// perLayer lists the per-layer metrics of a traced run with their units.
var perLayer = []struct{ name, unit string }{
	{"pcap.synthesize_s", "s"}, {"netflow.flowgraph_s", "s"}, {"core.analyze_s", "s"},
	{"kronfit.fit_s", "s"}, {"kronfit.alloc_mb", "MB"},
	{"kronecker.expand_s", "s"},
	{"core.grow_s", "s"}, {"core.duplicate_s", "s"}, {"core.props_s", "s"}, {"core.collect_s", "s"},
	{"cluster.partitions", "count"}, {"cluster.stages", "count"}, {"cluster.tasks", "count"},
	{"cluster.busy_frac", "ratio"}, {"cluster.skew_max", "ratio"}, {"cluster.shuffle_mb", "MB"},
	{"cluster.retries", "count"},
	{"serve.encode_s", "s"}, {"serve.artifact_mb", "MB"},
	{"serve.hit_ratio", "ratio"}, {"serve.hit_p50_ms", "ms"}, {"serve.miss_p50_ms", "ms"},
	{"serve.fetch_ms", "ms"}, {"serve.polls_per_job", "count"}, {"serve.spills", "count"},
	{"serve.evictions", "count"}, {"serve.rejected", "count"}, {"serve.jobs_retained", "count"},
	{"replay.emit_s", "s"}, {"replay.flows_per_frame", "count"}, {"replay.wire_mb", "MB"},
	{"replay.decode_s", "s"},
	{"ids.detect_s", "s"}, {"ids.alerts", "count"}, {"ids.late_flows", "count"},
	{"runtime.cpu_s", "s"}, {"runtime.alloc_mb", "MB"}, {"runtime.gc_cycles", "count"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"trace.unattributed_frac", "ratio"}, {"trace.overhead_frac", "ratio"},
	{"scaling.kronfit", "ratio"}, {"scaling.core_props", "ratio"}, {"scaling.serve_encode", "ratio"},
	{"scaling.replay", "ratio"}, {"scaling.ids", "ratio"},
}

// maxUnattributed is the share of op wall time the traced run may leave
// outside every layer span before it fails.
const maxUnattributed = 0.05

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer breakdown instead of the end-to-end run")
	flag.StringVar(&o.commit, "commit", "unknown", "commit the binary was built from (for the report)")
	flag.StringVar(&o.out, "out", benchDir, "directory traced runs write their trace and layer table to")
	flag.Parse()
	o.trace = *trace == 1
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	res, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, _ := json.Marshal(res) // plain maps and numbers always marshal
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line the benchmark ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run sets the workload up, measures it and reports to w. An error means the
// benchmark itself could not run; failed operations and checks are counted
// in the result instead.
func run(o options, w io.Writer) (result, error) {
	if o.seconds <= 0 {
		return result{}, errors.New("--seconds must be positive")
	}
	fp := machineFingerprint(o)
	fpJSON, _ := json.Marshal(fp)
	fmt.Fprintf(w, "fingerprint %s\n", fpJSON)

	var wl workload
	var setups, rawSetups []float64
	for i := 0; i < setupRepeats; i++ {
		if wl != nil {
			wl.close()
		}
		var err error
		if wl, err = newWorkload(o.workload, o.tiny); err != nil {
			return result{}, err
		}
		h0, t0 := readHostTicks(), time.Now()
		err = wl.setup(o.seed)
		raw := time.Since(t0).Seconds()
		rawSetups = append(rawSetups, raw)
		setups = append(setups, raw*(1-stealShare(h0, readHostTicks())))
		if err != nil {
			wl.close()
			return result{}, fmt.Errorf("setup: %w", err)
		}
	}
	defer wl.close()

	total := time.Duration(o.seconds * float64(time.Second))
	var passes []*pass
	var untraced, traced, single *pass
	var err error
	if !o.trace {
		if untraced, err = runPass(wl, total, false); err != nil {
			return result{}, err
		}
		passes = append(passes, untraced)
	} else {
		// The measured seconds split between an untraced pass (the overhead
		// base), a traced pass and, where a scaling layer runs, the traced
		// GOMAXPROCS=1 pass.
		n := 3
		if o.workload == "csbd-mix" {
			n = 2
		}
		d := total / time.Duration(n)
		if untraced, err = runPass(wl, d, false); err != nil {
			return result{}, err
		}
		if traced, err = runPass(wl, d, true); err != nil {
			return result{}, err
		}
		passes = append(passes, untraced, traced)
		if n == 3 {
			prev := runtime.GOMAXPROCS(1)
			single, err = runPass(wl, d, true)
			runtime.GOMAXPROCS(prev)
			if err != nil {
				return result{}, err
			}
			passes = append(passes, single)
		}
	}

	var res result
	var failures []error
	for _, p := range passes {
		res.Attempted += len(p.ops)
		for _, op := range p.ops {
			if op.err != nil {
				failures = append(failures, op.err)
			}
		}
	}
	if v, ok := wl.(verifier); ok {
		failures = append(failures, v.verify(passes)...)
	}

	e2e := endToEndMetrics(o.workload, untraced, setups)
	fmt.Fprintf(w, "workload %s seed %d: %d ops in %.1fs, heap high-water %.1f MB, host steal %.1f%% of busy CPU\n",
		o.workload, o.seed, len(untraced.ops), untraced.end.Sub(untraced.start).Seconds(),
		float64(untraced.heapPeak)/(1<<20), 100*untraced.stealShare())
	fmt.Fprintf(w, "raw setup s: %.3f\n", rawSetups)
	walls := untraced.walls()
	fmt.Fprintf(w, "raw op wall ms: min %.1f p25 %.1f p50 %.1f p75 %.1f max %.1f (n=%d)\n",
		quantile(walls, 0), quantile(walls, 0.25), quantile(walls, 0.5), quantile(walls, 0.75), quantile(walls, 1), len(walls))
	printMetrics(w, "end-to-end (untraced)", e2e, endToEnd)
	if !o.trace {
		res.Metrics = e2e
	} else {
		a := analyze(traced.rec, traced.ops)
		layers := layerMetrics(a, untraced, traced, single)
		if u := layers["trace.unattributed_frac"].Value; u >= maxUnattributed {
			failures = append(failures, fmt.Errorf("traced run leaves %.1f%% of op wall time unattributed (limit %.0f%%)",
				100*u, 100*maxUnattributed))
		}
		printMetrics(w, "per-layer (traced)", layers, perLayer)
		fmt.Fprintln(w, "layer table (traced pass):")
		if err := a.writeLayerTable(w, len(traced.ops)); err != nil {
			return result{}, err
		}
		if err := writeTraceFiles(o, fp, a, traced); err != nil {
			return result{}, err
		}
		res.Metrics = layers
	}
	for i, err := range failures {
		if i < 10 {
			fmt.Fprintln(w, "FAIL:", err)
		}
	}
	fmt.Fprintf(w, "failed_frac %.4f (%d of %d)\n", float64(len(failures))/float64(max(res.Attempted, 1)),
		len(failures), res.Attempted)
	res.Failed = len(failures)
	res.Correct = len(failures) == 0
	return res, nil
}

// endToEndMetrics computes the end-to-end metrics of an untraced pass.
//
// Times and rates are net of hypervisor steal. On a shared VM the host
// takes CPU away in episodes lasting minutes, and every wall time in them
// stretches by 1/(1-share): on a 2-vCPU VM, the pgpba-build median went
// from 881 ms to 1372 ms within ten minutes as steal rose from 2.5% to 24%
// of the machine's CPU time, wider than any bound a regression check could
// use. Multiplying times by (1-share), and dividing rates by it, takes out
// what the host did; the raw wall times and the share stay in the text
// report. Without steal accounting the share is 0 and the values are raw.
func endToEndMetrics(workload string, p *pass, setups []float64) map[string]metric {
	net := 1 - p.stealShare()
	walls := p.walls()
	// A build or replay run holds 15 to 40 operations, which resolves the
	// 75th percentile; a csbd-mix run holds well over 1000 jobs, which
	// resolves the 99th with more than ten samples beyond it.
	tail, perSec := 0.75, 0.0
	if workload == "csbd-mix" {
		// Closed-loop jobs: throughput is jobs over the pass.
		tail = 0.99
		ok := 0
		for _, op := range p.ops {
			if op.err == nil {
				ok++
			}
		}
		perSec = float64(ok) / p.end.Sub(p.start).Seconds()
	} else {
		var rates []float64
		for _, op := range p.ops {
			if op.err == nil && op.wall > 0 {
				rates = append(rates, op.items/op.wall.Seconds())
			}
		}
		perSec = median(rates)
	}
	return map[string]metric{
		"setup_s":      {median(setups), "s"},
		"op_p50_ms":    {median(walls) * net, "ms"},
		"op_tail_ms":   {quantile(walls, tail) * net, "ms"},
		"items_per_s":  {perSec / net, "1/s"},
		"peak_heap_mb": {float64(p.heapWindowed) / (1 << 20), "MB"},
	}
}

// layerMetrics computes the per-layer metrics from the traced pass, with
// the untraced pass as the overhead base and the GOMAXPROCS=1 pass (nil
// where it does not run) as the scaling base.
func layerMetrics(a analysis, untraced, traced, single *pass) map[string]metric {
	ops := len(traced.ops)
	n := float64(max(ops, 1))
	m := map[string]float64{}
	self := func(layer string) float64 { return a.selfPerOp(layer, ops) }
	for _, l := range []string{"pcap.synthesize", "netflow.flowgraph", "core.analyze", "kronfit.fit",
		"kronecker.expand", "core.grow", "core.duplicate", "core.props", "core.collect",
		"serve.encode", "replay.emit", "replay.decode", "ids.detect"} {
		m[l+"_s"] = self(l)
	}
	if st := a.layers["kronfit.fit"]; st != nil {
		m["kronfit.alloc_mb"] = float64(st.allocBytes) / (1 << 20) / n
	}

	// Engine stages, from the cluster.Tracer spans.
	var work, real time.Duration
	var tasks, retries int
	var shuffle int64
	for _, st := range a.stages {
		work += st.Work
		real += st.Real
		tasks += st.Tasks
		retries += st.Retries
		if strings.HasSuffix(st.Op, ".merge") || st.Op == "coalesce" {
			shuffle += st.BytesIn
		}
		if st.Tasks > 1 && st.Skew > m["cluster.skew_max"] {
			m["cluster.skew_max"] = st.Skew
		}
	}
	if len(a.stages) > 0 {
		m["cluster.partitions"] = float64(shapePartitions())
	}
	m["cluster.stages"] = float64(len(a.stages)) / n
	m["cluster.tasks"] = float64(tasks) / n
	m["cluster.retries"] = float64(retries)
	m["cluster.shuffle_mb"] = float64(shuffle) / (1 << 20) / n
	if real > 0 {
		m["cluster.busy_frac"] = float64(work) / (float64(real) * float64(runtime.GOMAXPROCS(0)))
	}

	// Per-op accounting the workloads record themselves.
	var bytes, polls int
	var frames, wire int64
	var alerts, late int
	var hit, miss, fetch []float64
	for _, op := range traced.ops {
		bytes += op.bytes
		polls += op.polls
		frames += op.frames
		wire += op.wire
		alerts += op.alerts
		late += op.late
		if op.err != nil || op.job == "" {
			continue
		}
		ms := float64(op.wall) / float64(time.Millisecond)
		if op.hit {
			hit = append(hit, ms)
		} else {
			miss = append(miss, ms)
		}
		fetch = append(fetch, float64(op.fetch)/float64(time.Millisecond))
	}
	m["serve.artifact_mb"] = float64(bytes) / (1 << 20) / n
	if len(hit)+len(miss) > 0 {
		m["serve.polls_per_job"] = float64(polls) / n
		m["serve.hit_p50_ms"], m["serve.miss_p50_ms"] = median(hit), median(miss)
		m["serve.fetch_ms"] = median(fetch)
	}
	for k, v := range traced.extra {
		m[k] = v
	}
	if frames > 0 {
		// Streams are the subscriber streams over all replays.
		var delivered float64
		streams := 0
		for _, op := range traced.ops {
			delivered += op.items * float64(op.subs)
			streams += op.subs
		}
		m["replay.flows_per_frame"] = delivered / float64(frames)
		m["replay.wire_mb"] = float64(wire) / (1 << 20) / float64(streams)
		m["ids.alerts"] = float64(alerts) / float64(streams)
		m["ids.late_flows"] = float64(late)
	}

	rt0, rt1 := traced.rt0, traced.rt1
	m["runtime.cpu_s"] = (rt1.cpu - rt0.cpu).Seconds() / n
	m["runtime.alloc_mb"] = float64(rt1.allocBytes-rt0.allocBytes) / (1 << 20) / n
	m["runtime.gc_cycles"] = float64(rt1.gcCycles-rt0.gcCycles) / n
	if d := rt1.totalCPU - rt0.totalCPU; d > 0 {
		m["runtime.gc_cpu_frac"] = (rt1.gcCPU - rt0.gcCPU) / d
	}

	if a.opWall > 0 {
		m["trace.unattributed_frac"] = float64(a.unattributed) / float64(a.opWall)
	}
	if base := median(untraced.walls()); base > 0 {
		m["trace.overhead_frac"] = median(traced.walls())/base - 1
	}

	if single != nil {
		sa := analyze(single.rec, single.ops)
		ratio := func(layers ...string) float64 {
			var one, many float64
			for _, l := range layers {
				one += sa.selfPerOp(l, len(single.ops))
				many += self(l)
			}
			if one == 0 || many == 0 {
				return 0
			}
			return one / many
		}
		m["scaling.kronfit"] = ratio("kronfit.fit")
		m["scaling.core_props"] = ratio("core.props")
		m["scaling.serve_encode"] = ratio("serve.encode")
		m["scaling.replay"] = ratio("replay.emit", "replay.decode")
		m["scaling.ids"] = ratio("ids.detect")
	}

	out := make(map[string]metric, len(perLayer))
	for _, pl := range perLayer {
		v := m[pl.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[pl.name] = metric{v, pl.unit}
	}
	return out
}

// printMetrics writes one metric per line in the given order.
func printMetrics(w io.Writer, title string, ms map[string]metric, order []struct{ name, unit string }) {
	fmt.Fprintf(w, "%s:\n", title)
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	for _, e := range order {
		m := ms[e.name]
		fmt.Fprintf(tw, "  %s\t%.6g\t%s\n", e.name, m.Value, m.Unit)
	}
	tw.Flush()
}

// writeTraceFiles writes the traced pass as Chrome trace JSON plus the layer
// table under o.out.
func writeTraceFiles(o options, fp fingerprint, a analysis, traced *pass) error {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	base := filepath.Join(o.out, fmt.Sprintf("%s-seed%d", o.workload, o.seed))
	f, err := os.Create(base + ".trace.json")
	if err != nil {
		return err
	}
	if err := writeChromeTrace(f, traced.rec, map[string]any{"fingerprint": fp}); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	var sb strings.Builder
	if err := a.writeLayerTable(&sb, len(traced.ops)); err != nil {
		return err
	}
	return os.WriteFile(base+".layers.txt", []byte(sb.String()), 0o644)
}
