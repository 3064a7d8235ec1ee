package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"text/tabwriter"
	"time"

	"csb/internal/cluster"
)

// span is one recorded interval of a traced run. Spans are recorded from
// the benchmark's own code around each call into a layer's public API;
// engine stages come in from cluster.Tracer and hang under the span of the
// generator call that ran them.
type span struct {
	id, parent int // parent -1 marks an op root or a free-standing span
	name       string
	lane       int
	start, end time.Duration // offsets from the recorder epoch

	// allocBytes/allocs count heap allocation inside the span (wrapper
	// spans of sequential ops only; engine stages inherit from theirs).
	allocBytes, allocs uint64
	hasAlloc           bool

	// busy holds time spent inside child layers that are too fine-grained
	// for spans of their own (per-batch decode and detect in a replay
	// subscriber); it counts toward those layers and not toward this span.
	busy map[string]time.Duration

	stage *cluster.StageRecord // engine stage spans only
	args  map[string]any
}

func (s *span) dur() time.Duration { return s.end - s.start }

// recorder keeps spans in memory; they are analyzed and written out once
// the run ends. A nil *recorder records nothing, so untraced passes share
// the traced code paths.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// active is an open span; end closes it.
type active struct {
	r        *recorder
	id       int
	hasAlloc bool
	b0, o0   uint64
}

// start opens a span named after a layer. With alloc set it also counts the
// heap allocation inside it, which is meaningful only while nothing else
// runs concurrently.
func (r *recorder) start(name string, parent, lane int, alloc bool) *active {
	if r == nil {
		return nil
	}
	a := &active{r: r, hasAlloc: alloc}
	if alloc {
		a.b0, a.o0 = allocSample()
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	a.id = len(r.spans)
	r.spans = append(r.spans, span{id: a.id, parent: parent, name: name, lane: lane, start: now, end: now, hasAlloc: alloc})
	r.mu.Unlock()
	return a
}

// ID returns the span id, or -1 for a nil span.
func (a *active) ID() int {
	if a == nil {
		return -1
	}
	return a.id
}

// end closes the span, attaching busy child time and display args.
func (a *active) end(busy map[string]time.Duration, args map[string]any) {
	if a == nil {
		return
	}
	now := time.Since(a.r.epoch)
	var b1, o1 uint64
	if a.hasAlloc {
		b1, o1 = allocSample()
	}
	a.r.mu.Lock()
	s := &a.r.spans[a.id]
	s.end = now
	s.busy, s.args = busy, args
	if a.hasAlloc {
		s.allocBytes, s.allocs = b1-a.b0, o1-a.o0
	}
	a.r.mu.Unlock()
}

// importStages copies the engine stages tr recorded under parent. t0 is
// when tr was created, which anchors its offsets on this recorder's clock.
func (r *recorder) importStages(tr *cluster.Tracer, t0 time.Time, parent, lane int) {
	if r == nil || tr == nil {
		return
	}
	base := t0.Sub(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, ts := range tr.Spans() {
		rec := ts.StageRecord
		start := base + ts.Start
		r.spans = append(r.spans, span{
			id: len(r.spans), parent: parent, name: stageLayer(rec.Label), lane: lane,
			start: start, end: start + rec.Real, stage: &rec,
		})
	}
}

// stageLayer maps an engine stage's scope label onto the layer it belongs
// to (the cluster.Tracer scopes pgsk/kronecker, pgsk/duplicate,
// pgpba/roundN and */props).
func stageLayer(label string) string {
	switch {
	case strings.HasSuffix(label, "/props") || strings.Contains(label, "/props/"):
		return "core.props"
	case strings.HasPrefix(label, "pgsk/kronecker"):
		return "kronecker.expand"
	case strings.HasPrefix(label, "pgsk"):
		return "core.duplicate"
	case strings.HasPrefix(label, "pgpba"):
		return "core.grow"
	default:
		return "engine.other"
	}
}

// wrapperLayers names the layer a wrapper span's self time belongs to when
// it differs from the span name: Generate's self time is the part of it no
// engine stage covers.
var wrapperLayers = map[string]string{"core.generate": "core.collect"}

// layerStat aggregates one layer over a traced pass.
type layerStat struct {
	self       time.Duration
	count      int
	allocBytes uint64
	allocs     uint64
}

// analysis is the per-layer breakdown of one traced pass.
type analysis struct {
	layers       map[string]*layerStat
	opWall       time.Duration // summed wall time of op roots
	unattributed time.Duration // op wall time no child span covers
	stages       []cluster.StageRecord
}

// analyze computes each span's self time (its duration minus the union of
// its children's intervals and its busy child time) and sums self times,
// allocations and op coverage by layer.
func analyze(r *recorder, ops []opRecord) analysis {
	a := analysis{layers: map[string]*layerStat{}}
	if r == nil {
		return a
	}
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	children := make(map[int][]int)
	for _, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], s.id)
		}
	}
	layer := func(name string) *layerStat {
		st := a.layers[name]
		if st == nil {
			st = &layerStat{}
			a.layers[name] = st
		}
		return st
	}
	for i := range spans {
		s := &spans[i]
		covered := coverage(spans, s, children[s.id])
		self := s.dur() - covered
		for name, d := range s.busy {
			self -= d
			st := layer(name)
			st.self += d
			st.count++
		}
		if self < 0 {
			self = 0
		}
		name := s.name
		if l, ok := wrapperLayers[name]; ok {
			name = l
		}
		st := layer(name)
		st.self += self
		st.count++
		if s.hasAlloc {
			b, o := s.allocBytes, s.allocs
			for _, c := range children[s.id] {
				if cs := &spans[c]; cs.hasAlloc {
					b, o = b-min(b, cs.allocBytes), o-min(o, cs.allocs)
				}
			}
			st.allocBytes += b
			st.allocs += o
		}
		if s.stage != nil {
			a.stages = append(a.stages, *s.stage)
		}
	}
	for _, op := range ops {
		if op.root < 0 {
			continue
		}
		s := &spans[op.root]
		a.opWall += s.dur()
		a.unattributed += s.dur() - coverage(spans, s, descendants(children, s.id))
	}
	return a
}

// descendants lists every span below id.
func descendants(children map[int][]int, id int) []int {
	var out []int
	stack := append([]int(nil), children[id]...)
	for len(stack) > 0 {
		c := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		out = append(out, c)
		stack = append(stack, children[c]...)
	}
	return out
}

// coverage returns how much of s's interval the union of the given spans
// covers.
func coverage(spans []span, s *span, ids []int) time.Duration {
	if len(ids) == 0 {
		return 0
	}
	type iv struct{ lo, hi time.Duration }
	ivs := make([]iv, 0, len(ids))
	for _, id := range ids {
		c := &spans[id]
		lo, hi := max(c.start, s.start), min(c.end, s.end)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total time.Duration
	var curLo, curHi time.Duration = -1, -1
	for _, v := range ivs {
		if v.lo > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = v.lo, v.hi
		} else if v.hi > curHi {
			curHi = v.hi
		}
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return total
}

// selfPerOp returns a layer's mean self time per op in seconds.
func (a analysis) selfPerOp(name string, ops int) float64 {
	st := a.layers[name]
	if st == nil || ops == 0 {
		return 0
	}
	return st.self.Seconds() / float64(ops)
}

// writeLayerTable prints the layers sorted by self time with their share of
// the summed self time, and self allocations and bytes. Engine stages carry
// no allocation counts: what they allocate counts toward core.collect, the
// Generate call they run in.
func (a analysis) writeLayerTable(w io.Writer, ops int) error {
	names := make([]string, 0, len(a.layers))
	var total time.Duration
	for n, st := range a.layers {
		names = append(names, n)
		total += st.self
	}
	sort.Slice(names, func(i, j int) bool {
		if a.layers[names[i]].self != a.layers[names[j]].self {
			return a.layers[names[i]].self > a.layers[names[j]].self
		}
		return names[i] < names[j]
	})
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "layer\tspans\tself_ms/op\tshare\talloc_mb/op\tallocs/op")
	for _, n := range names {
		st := a.layers[n]
		share := 0.0
		if total > 0 {
			share = float64(st.self) / float64(total)
		}
		perOp := float64(max(ops, 1))
		fmt.Fprintf(tw, "%s\t%d\t%.3f\t%.1f%%\t%.3f\t%.0f\n", n, st.count,
			float64(st.self)/float64(time.Millisecond)/perOp, 100*share,
			float64(st.allocBytes)/(1<<20)/perOp, float64(st.allocs)/perOp)
	}
	return tw.Flush()
}

// traceEvent is one Chrome trace-event ("X" complete event).
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"`
	Dur  int64          `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChromeTrace writes every span as Chrome trace-event JSON (load it in
// chrome://tracing or Perfetto). Lanes become threads.
func writeChromeTrace(w io.Writer, r *recorder, meta map[string]any) error {
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	events := make([]traceEvent, 0, len(spans))
	for _, s := range spans {
		args := map[string]any{"id": s.id, "parent": s.parent}
		for k, v := range s.args {
			args[k] = v
		}
		for k, d := range s.busy {
			args[k+"_us"] = d.Microseconds()
		}
		if s.hasAlloc {
			args["alloc_bytes"], args["allocs"] = s.allocBytes, s.allocs
		}
		if st := s.stage; st != nil {
			args["op"], args["label"], args["tasks"] = st.Op, st.Label, st.Tasks
			args["work_us"], args["skew"] = st.Work.Microseconds(), st.Skew
			args["bytes_in"], args["bytes_out"] = st.BytesIn, st.BytesOut
		}
		events = append(events, traceEvent{
			Name: s.name, Ph: "X", Ts: s.start.Microseconds(), Dur: s.dur().Microseconds(),
			Tid: s.lane, Args: args,
		})
	}
	return json.NewEncoder(w).Encode(map[string]any{
		"traceEvents": events, "displayTimeUnit": "ms", "otherData": meta,
	})
}
