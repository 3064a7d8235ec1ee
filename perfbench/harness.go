package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"csb/internal/cluster"
)

// Engine shape every workload pins. The zero serve.EngineShape and
// cluster.Local(0) derive the partition count from GOMAXPROCS, so the same
// spec would do different work (and write different bytes) on different
// hosts; a fixed shape keeps the work, and the GOMAXPROCS=1 pass, comparable.
const (
	shapeNodes        = 1
	shapeCoresPerNode = 2
)

// newCluster builds one engine cluster on the pinned shape, traced by tr
// when tr is non-nil.
func newCluster(tr *cluster.Tracer) (*cluster.Cluster, error) {
	return cluster.New(cluster.Config{Nodes: shapeNodes, CoresPerNode: shapeCoresPerNode, Tracer: tr})
}

// shapePartitions is the engine's default partition count on the pinned
// shape.
func shapePartitions() int {
	c, err := newCluster(nil)
	if err != nil {
		return 0 // the pinned shape is valid; New cannot fail on it
	}
	return c.Config().DefaultPartitions
}

// opRecord is one measured operation: a build, a replay or a csbd job.
type opRecord struct {
	wall  time.Duration
	items float64 // edges built, flows replayed or jobs served
	err   error   // the operation failed or its output failed a check
	root  int     // root span of the op in a traced pass, -1 otherwise

	digest [32]byte // build workloads: SHA-256 of the artifact
	index  int      // build workloads: position in the spec sequence

	// replay-detect accounting, summed over subscribers.
	subs         int
	wire, frames int64
	alerts, late int

	// csbd-mix client accounting.
	hit   bool
	polls int
	fetch time.Duration
	job   string
	bytes int
}

// pass is one timed phase: operations run until deadline and are recorded
// in completion order.
type pass struct {
	deadline time.Time
	rec      *recorder // nil when untraced

	mu  sync.Mutex
	ops []opRecord

	start, end time.Time
	// heapWindowed is the median per-window heap high-water mark, heapPeak
	// the overall one.
	heapWindowed, heapPeak uint64
	rt0, rt1               runtimeSample
	extra                  map[string]float64 // layer counters a workload reads itself
}

func (p *pass) add(op opRecord) {
	p.mu.Lock()
	p.ops = append(p.ops, op)
	p.mu.Unlock()
}

// more reports whether a loop that has run i ops should run another: every
// loop runs at least one, then runs until the deadline.
func (p *pass) more(i int) bool { return i == 0 || time.Now().Before(p.deadline) }

// walls returns the wall times of the successful ops, in milliseconds.
func (p *pass) walls() []float64 {
	var out []float64
	for _, op := range p.ops {
		if op.err == nil {
			out = append(out, float64(op.wall)/float64(time.Millisecond))
		}
	}
	return out
}

// runPass runs w for d with optional tracing, sampling the Go heap while it
// runs. The collector runs first so garbage from set-up or an earlier pass
// does not count toward this pass's peak.
func runPass(w workload, d time.Duration, traced bool) (*pass, error) {
	runtime.GC()
	p := &pass{}
	if traced {
		p.rec = newRecorder()
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		p.heapWindowed, p.heapPeak = sampleHeap(stop)
	}()
	p.rt0 = readRuntime()
	p.start = time.Now()
	p.deadline = p.start.Add(d)
	err := w.run(p)
	p.end = time.Now()
	p.rt1 = readRuntime()
	close(stop)
	wg.Wait()
	return p, err
}

// heapWindow is the window the heap high-water mark is taken over. One
// overall maximum depends on where the collector happened to run relative
// to the largest allocation; the median of per-window maxima does not. The
// window is longer than the slowest operation (a ~1 s pgpba build), so
// every window holds at least one operation's peak.
const heapWindow = 2 * time.Second

// sampleHeap samples heap object bytes every millisecond until stop is
// closed and returns the median of the per-window maxima and the overall
// maximum. A trailing partial window counts only when it is the only one.
func sampleHeap(stop <-chan struct{}) (windowed, peak uint64) {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	var maxima []float64
	var cur uint64
	next := time.Now().Add(heapWindow)
	t := time.NewTicker(time.Millisecond)
	defer t.Stop()
	for {
		metrics.Read(s)
		v := s[0].Value.Uint64()
		cur, peak = max(cur, v), max(peak, v)
		if now := time.Now(); now.After(next) {
			maxima = append(maxima, float64(cur))
			cur, next = 0, now.Add(heapWindow)
		}
		select {
		case <-stop:
			if len(maxima) == 0 {
				maxima = append(maxima, float64(cur))
			}
			return uint64(median(maxima)), peak
		case <-t.C:
		}
	}
}

// runtimeSample is a snapshot of the process counters the runtime.* layer
// metrics are differences of.
type runtimeSample struct {
	cpu        time.Duration // user+system CPU of the process
	host       hostTicks
	allocBytes uint64
	gcCycles   uint64
	gcCPU      float64 // runtime estimate of GC CPU seconds
	totalCPU   float64 // runtime estimate of total CPU seconds
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return runtimeSample{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		host:       readHostTicks(),
		allocBytes: s[0].Value.Uint64(),
		gcCycles:   s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		totalCPU:   s[3].Value.Float64(),
	}
}

// hostTicks is a snapshot of the machine-wide CPU tick counters in
// /proc/stat. busy is the time the CPUs were runnable (user, nice, system,
// irq, softirq and steal); steal is the part of it the hypervisor gave to
// other guests. Both are 0 where the file is missing.
type hostTicks struct{ busy, steal uint64 }

func readHostTicks() hostTicks {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostTicks{}
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return hostTicks{}
	}
	var v [8]uint64 // user nice system idle iowait irq softirq steal
	for i := range v {
		if v[i], err = strconv.ParseUint(fields[i+1], 10, 64); err != nil {
			return hostTicks{}
		}
	}
	return hostTicks{busy: v[0] + v[1] + v[2] + v[5] + v[6] + v[7], steal: v[7]}
}

// stealShare is the share of the machine's runnable CPU time between a and
// b that the hypervisor stole. Work that was runnable all along took
// 1/(1-share) times as long as it would have on CPUs of its own.
func stealShare(a, b hostTicks) float64 {
	if d := b.busy - a.busy; d > 0 {
		return float64(b.steal-a.steal) / float64(d)
	}
	return 0
}

// stealShare is the steal share over the pass.
func (p *pass) stealShare() float64 { return stealShare(p.rt0.host, p.rt1.host) }

// allocSample reads the cumulative heap allocation counters, for the
// per-span allocation accounting of traced runs.
func allocSample() (bytes, objects uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// fingerprint identifies the machine and configuration a report was
// measured on.
type fingerprint struct {
	CPUModel     string `json:"cpu_model"`
	NumCPU       int    `json:"num_cpu"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	GoVersion    string `json:"go_version"`
	Commit       string `json:"commit"`
	Shape        string `json:"engine_shape"`
	Workload     string `json:"workload"`
	Seed         uint64 `json:"seed"`
	PollInterval string `json:"poll_interval"`
}

func machineFingerprint(o options) fingerprint {
	return fingerprint{
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     o.commit,
		Shape: fmt.Sprintf("nodes=%d cores_per_node=%d partitions=%d",
			shapeNodes, shapeCoresPerNode, shapePartitions()),
		Workload:     o.workload,
		Seed:         o.seed,
		PollInterval: pollInterval.String(),
	}
}

// cpuModel reads the processor model name, or "unknown" where the kernel
// does not expose /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
