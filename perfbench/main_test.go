package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"csb/internal/attack"
	"csb/internal/replay"
)

// benchmarkSpec is the part of BENCHMARK.json the self-test compares with.
type benchmarkSpec struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmarkSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func names[T any](xs []T, name func(T) string) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = name(x)
	}
	sort.Strings(out)
	return out
}

func metricNames(m map[string]metric) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestRegistryMatchesBenchmarkJSON pins the workload and metric names (and
// units) the binary reports to the ones BENCHMARK.json declares.
func TestRegistryMatchesBenchmarkJSON(t *testing.T) {
	spec := loadBenchmarkSpec(t)
	type nu = struct{ Name, Unit string }
	join := func(xs []nu) string {
		return strings.Join(names(xs, func(x nu) string { return x.Name + "/" + x.Unit }), " ")
	}
	var e2e, layers []nu
	for _, m := range endToEnd {
		e2e = append(e2e, nu{m.name, m.unit})
	}
	for _, m := range perLayer {
		layers = append(layers, nu{m.name, m.unit})
	}
	if got, want := join(e2e), join(spec.EndToEnd); got != want {
		t.Errorf("end-to-end metrics %s, BENCHMARK.json has %s", got, want)
	}
	if got, want := join(layers), join(spec.PerLayer); got != want {
		t.Errorf("per-layer metrics %s, BENCHMARK.json has %s", got, want)
	}
	var wl []string
	for _, w := range spec.Workloads {
		wl = append(wl, w.Name)
	}
	if strings.Join(wl, " ") != strings.Join(workloadNames, " ") {
		t.Errorf("workloads %v, BENCHMARK.json has %v", workloadNames, wl)
	}
}

// TestSelfTest runs every workload once at tiny size, untraced and traced,
// and checks the printed metric names, that every check passes, and the
// layer predictions that hold at any size.
func TestSelfTest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec := loadBenchmarkSpec(t)
	wantE2E := names(spec.EndToEnd, func(x struct{ Name, Unit string }) string { return x.Name })
	wantLayers := names(spec.PerLayer, func(x struct{ Name, Unit string }) string { return x.Name })
	for _, wl := range workloadNames {
		t.Run(wl, func(t *testing.T) {
			o := options{workload: wl, seed: 7, seconds: 1, tiny: true, commit: "test", out: t.TempDir()}
			res, err := run(o, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("untraced run: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			if got := metricNames(res.Metrics); strings.Join(got, " ") != strings.Join(wantE2E, " ") {
				t.Fatalf("untraced metrics %v, want %v", got, wantE2E)
			}
			for k, m := range res.Metrics {
				if !(m.Value > 0) {
					t.Errorf("end-to-end metric %s = %v, want > 0", k, m.Value)
				}
			}

			o.trace, o.seconds = true, 1.5
			res, err = run(o, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("traced run: correct=%v failed=%d", res.Correct, res.Failed)
			}
			if got := metricNames(res.Metrics); strings.Join(got, " ") != strings.Join(wantLayers, " ") {
				t.Fatalf("traced metrics %v, want %v", got, wantLayers)
			}
			v := func(name string) float64 { return res.Metrics[name].Value }
			if u := v("trace.unattributed_frac"); u >= maxUnattributed {
				t.Errorf("unattributed %.3f", u)
			}
			switch wl {
			case "pgsk-build":
				if v("kronfit.fit_s") <= 0 {
					t.Error("kronfit.fit_s is 0 on pgsk-build")
				}
			case "pgpba-build":
				if v("kronfit.fit_s") != 0 {
					t.Errorf("kronfit.fit_s = %v on pgpba-build, want 0", v("kronfit.fit_s"))
				}
			}
			for k, m := range res.Metrics {
				replayLayer := strings.HasPrefix(k, "replay.") || strings.HasPrefix(k, "ids.") ||
					k == "scaling.replay" || k == "scaling.ids"
				if wl != "replay-detect" && replayLayer && m.Value != 0 {
					t.Errorf("%s = %v on %s, want 0", k, m.Value, wl)
				}
				if wl == "replay-detect" && replayLayer && k != "ids.late_flows" && m.Value <= 0 {
					t.Errorf("%s = %v on replay-detect, want > 0", k, m.Value)
				}
			}
			for _, ext := range []string{".trace.json", ".layers.txt"} {
				if _, err := os.Stat(o.out + "/" + wl + "-seed7" + ext); err != nil {
					t.Error(err)
				}
			}
		})
	}
}

// TestBuildChecksCatchBadOutput exercises the build checks: a short or
// truncated artifact and a digest that changes between builds both fail.
func TestBuildChecksCatchBadOutput(t *testing.T) {
	w, err := newWorkload("pgpba-build", true)
	if err != nil {
		t.Fatal(err)
	}
	bw := w.(*buildWorkload)
	if err := bw.setup(3); err != nil {
		t.Fatal(err)
	}
	spec := bw.specs[0]
	data, err := buildArtifact(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := checkArtifact(spec, data); err != nil {
		t.Fatalf("good artifact rejected: %v", err)
	}
	if _, err := checkArtifact(spec, data[:len(data)/2]); err == nil {
		t.Error("half an artifact passed its check")
	}
	if _, err := checkArtifact(spec, data[:len(data)-1]); err == nil {
		t.Error("a truncated last line passed its check")
	}

	p, err := runPass(bw, 1, false) // one build
	if err != nil || len(p.ops) != 1 {
		t.Fatalf("pass: %v, %d ops", err, len(p.ops))
	}
	if errs := bw.verify([]*pass{p}); len(errs) != 0 {
		t.Fatalf("clean pass failed verification: %v", errs)
	}
	bad := &pass{ops: []opRecord{p.ops[0]}, rec: newRecorder()}
	bad.ops[0].digest[0] ^= 1
	if errs := bw.verify([]*pass{p, bad}); len(errs) == 0 {
		t.Error("a digest that differs between builds passed verification")
	}
}

// TestReplayChecksCatchBadStreams exercises every replay-detect check.
func TestReplayChecksCatchBadStreams(t *testing.T) {
	w := newReplayWorkload(20_000, 2)
	if err := w.setup(3); err != nil {
		t.Fatal(err)
	}
	op, err := w.replayOnce(nil)
	if err != nil {
		t.Fatal(err)
	}
	if op.err != nil {
		t.Fatalf("clean replay failed its checks: %v", op.err)
	}
	good := subResult{
		received: uint64(len(w.sc.Flows)), clean: true, payload: w.payload,
		outcome: w.ref, alerts: w.refAlert,
	}
	for name, mutate := range map[string]func(*subResult){
		"unclean":  func(r *subResult) { r.clean = false },
		"short":    func(r *subResult) { r.received-- },
		"gaps":     func(r *subResult) { r.gaps = 1 },
		"payload":  func(r *subResult) { r.payload ^= 1 },
		"score":    func(r *subResult) { r.outcome = attack.Outcome{FalsePositives: r.outcome.FalsePositives + 1} },
		"late":     func(r *subResult) { r.late = 1 },
		"alerts":   func(r *subResult) { r.alerts++ },
		"subError": func(r *subResult) { r.err = io.ErrUnexpectedEOF },
	} {
		bad := good
		mutate(&bad)
		if err := w.check([]subResult{good, bad}, replay.Stats{}); err == nil {
			t.Errorf("%s: check passed", name)
		}
	}
	if err := w.check([]subResult{good, good}, replay.Stats{Dropped: 1}); err == nil {
		t.Error("dropped flows passed the check")
	}
}

// TestCSBDChecksCatchBadArtifacts exercises the csbd-mix check: a fetched
// artifact that differs from its reference build fails the job.
func TestCSBDChecksCatchBadArtifacts(t *testing.T) {
	w := newCSBDWorkload(1, 5_000, 3_000)
	if err := w.setup(3); err != nil {
		t.Fatal(err)
	}
	defer w.close()
	spec := w.fixed[0]
	if op := w.job(spec, nil, 0); op.err != nil || !op.hit {
		t.Fatalf("warm fixed spec: err=%v hit=%v", op.err, op.hit)
	}
	ref := w.refs[spec.ID()]
	w.refs[spec.ID()] = append([]byte("x"), ref...)
	if op := w.job(spec, nil, 0); op.err == nil {
		t.Error("an artifact differing from its reference passed")
	}
}

// TestEndToEndNetOfSteal checks the steal adjustment: with a quarter of
// the machine's runnable CPU time stolen, times shrink to three quarters
// and rates grow by a third, while heap stays as measured.
func TestEndToEndNetOfSteal(t *testing.T) {
	p := &pass{heapWindowed: 1 << 20}
	p.start = time.Now()
	p.end = p.start.Add(time.Second)
	p.ops = []opRecord{{wall: 400 * time.Millisecond, items: 1000}}
	p.rt0.host = hostTicks{busy: 1000, steal: 100}
	p.rt1.host = hostTicks{busy: 1400, steal: 200}
	m := endToEndMetrics("pgsk-build", p, []float64{2})
	near := func(name string, want float64) {
		if got := m[name].Value; math.Abs(got-want) > 1e-9*want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	near("op_p50_ms", 300)
	near("op_tail_ms", 300)
	near("items_per_s", 2500/0.75)
	near("peak_heap_mb", 1)
	near("setup_s", 2)
}
