package main

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand/v2"
	"net"
	"sync"
	"time"

	"csb/internal/attack"
	"csb/internal/ids"
	"csb/internal/netflow"
	"csb/internal/replay"
	"csb/internal/scenario"
)

// replayWorkload replays one labeled scenario, compiled in set-up, as fast
// as possible over loopback CSBS1 to subscribers that each decode the
// stream and feed a streaming detector, then scores the alerts.
type replayWorkload struct {
	edges       int64
	subscribers int

	sc       *attack.Scenario
	payload  uint32 // CRC-32 of replay.EncodeFlows(sc.Flows)
	ref      attack.Outcome
	refAlert int
}

func newReplayWorkload(edges int64, subscribers int) *replayWorkload {
	return &replayWorkload{edges: edges, subscribers: subscribers}
}

func (w *replayWorkload) setup(seed uint64) error {
	rng := rand.New(rand.NewPCG(seed, 0x5ce))
	span := w.edges * scenario.DefaultGapMicros / 1000 // background timeline, ms
	sp := &scenario.Spec{
		Seed:       rng.Uint64()>>1 + 1,
		Background: scenario.Background{Source: scenario.SourcePGPBA, Edges: w.edges},
		Attacks: []scenario.Attack{
			{Type: scenario.TypeHostScan, StartMS: span / 8, Count: 1500, Victim: 0x0a000003},
			{Type: scenario.TypeSYNFlood, StartMS: span * 3 / 8, Count: 2500, Victim: 0x0a000005, Port: 80},
			{Type: scenario.TypeDDoS, StartMS: span * 5 / 8, Count: 80, FlowsPerSource: 3, Victim: 0x0a000009},
		},
	}
	if err := sp.Normalize(); err != nil {
		return err
	}
	c, err := newCluster(nil)
	if err != nil {
		return err
	}
	if w.sc, err = scenario.Compile(sp, c); err != nil {
		return err
	}
	w.payload = crc32.ChecksumIEEE(replay.EncodeFlows(w.sc.Flows))
	// The reference: the same detector fed the same flows in process.
	var alerts []ids.Alert
	det := ids.NewStreamDetector(ids.DefaultThresholds(), 0, func(a ids.Alert) { alerts = append(alerts, a) })
	for _, f := range w.sc.Flows {
		if err := det.Add(f); err != nil {
			return fmt.Errorf("reference detector: %w", err)
		}
	}
	det.Flush()
	w.ref, w.refAlert = w.sc.Score(alerts), len(alerts)
	return nil
}

func (w *replayWorkload) close() {}

func (w *replayWorkload) run(p *pass) error {
	for i := 0; p.more(i); i++ {
		op, err := w.replayOnce(p.rec)
		if err != nil {
			return err
		}
		p.add(op)
	}
	return nil
}

// subResult is what one subscriber saw of a replay.
type subResult struct {
	received, gaps uint64
	clean          bool
	payload        uint32
	outcome        attack.Outcome
	alerts, late   int
	wire           int64
	decode, detect time.Duration
	err            error
}

// replayBatch bounds how many decoded flows a subscriber buffers before
// handing them to its detector; timing decode and detect per batch keeps
// clock reads off the per-flow path.
const replayBatch = 256

// replayOnce runs one replay: server set-up (replay.NewServer, subscribers
// connected), then the measured part from Start until every subscriber has
// flushed its detector.
func (w *replayWorkload) replayOnce(rec *recorder) (opRecord, error) {
	flows := w.sc.Flows
	setup := rec.start("replay.newserver", -1, 0, false)
	srv, err := replay.NewServer(flows, replay.Options{Policy: replay.PolicyBlock})
	if err != nil {
		return opRecord{}, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return opRecord{}, err
	}
	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		srv.Serve(ln) // returns once Close closes the listener
	}()
	defer func() { srv.Close(); <-serveDone }()

	results := make([]subResult, w.subscribers)
	var root *active
	rootReady := make(chan struct{})
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = w.subscribe(ln.Addr().String(), rec, rootReady, &root, i+1)
		}(i)
	}
	if err := srv.AwaitSubscribers(w.subscribers, 30*time.Second); err != nil {
		srv.Close() // ends the streams of the subscribers that did connect
		close(rootReady)
		wg.Wait()
		return opRecord{}, err
	}
	setup.end(nil, nil)

	t0 := time.Now()
	root = rec.start("op", -1, 0, false)
	close(rootReady)
	emit := rec.start("replay.emit", root.ID(), 0, false)
	if err := srv.Start(); err != nil {
		srv.Close()
		wg.Wait()
		return opRecord{}, err
	}
	srv.Wait()
	emit.end(nil, nil)
	wg.Wait()
	wall := time.Since(t0)
	st := srv.Stats()
	root.end(nil, map[string]any{"flows": len(flows)})

	op := opRecord{wall: wall, items: float64(len(flows)), root: root.ID(), subs: len(results)}
	for _, r := range results {
		op.wire += r.wire
		op.frames += (r.wire - replay.HeaderLen - frameOverhead - int64(r.received)*replay.FlowRecordLen) / frameOverhead
		op.alerts += r.alerts
		op.late += r.late
	}
	op.err = w.check(results, st)
	return op, nil
}

// subscribe connects one subscriber, decodes its stream with a
// replay.StreamReader and feeds an ids.StreamDetector, then scores the
// alerts against the scenario labels.
func (w *replayWorkload) subscribe(addr string, rec *recorder, rootReady <-chan struct{}, root **active, lane int) subResult {
	var res subResult
	d := net.Dialer{Timeout: 10 * time.Second}
	conn, err := d.Dial("tcp", addr)
	if err != nil {
		res.err = err
		return res
	}
	defer conn.Close()
	cr := &countingReader{r: conn}
	sr, err := replay.NewStreamReader(cr)
	if err != nil {
		res.err = err
		return res
	}
	<-rootReady
	sub := rec.start("replay.subscriber", (*root).ID(), lane, false)
	var alerts []ids.Alert
	det := ids.NewStreamDetector(ids.DefaultThresholds(), 0, func(a ids.Alert) { alerts = append(alerts, a) })
	batch := make([]netflow.Flow, 0, replayBatch)
	crc := uint32(0)
	t := time.Now()
	for done := false; !done; {
		for len(batch) < replayBatch {
			fr, err := sr.Next()
			if err != nil {
				res.err, done = err, true
				break
			}
			if fr.End {
				res.clean, done = true, true
				break
			}
			crc = crc32.Update(crc, crc32.IEEETable, fr.Raw)
			batch = append(batch, fr.Flow)
		}
		now := time.Now()
		res.decode += now.Sub(t)
		for _, f := range batch {
			// Late flows are counted by the detector and reported as
			// ids.late_flows; a replay of a sorted scenario has none.
			_ = det.Add(f)
		}
		batch = batch[:0]
		if done {
			det.Flush()
		}
		t = time.Now()
		res.detect += t.Sub(now)
	}
	res.received, res.gaps, res.payload = sr.Received, sr.Gaps, crc
	res.outcome, res.alerts, res.late = w.sc.Score(alerts), len(alerts), int(det.LateFlows())
	res.wire = cr.n
	sub.end(map[string]time.Duration{"replay.decode": res.decode, "ids.detect": res.detect},
		map[string]any{"received": res.received, "alerts": res.alerts, "wire_bytes": res.wire})
	return res
}

// check applies the replay-detect output checks: every stream clean and
// complete with no gaps, payload bytes equal to replay.EncodeFlows, and
// every subscriber's score equal to the in-process reference detector's.
func (w *replayWorkload) check(results []subResult, st replay.Stats) error {
	var errs []error
	for i, r := range results {
		switch {
		case r.err != nil:
			errs = append(errs, fmt.Errorf("subscriber %d: %w", i, r.err))
		case !r.clean || r.received != uint64(len(w.sc.Flows)) || r.gaps != 0:
			errs = append(errs, fmt.Errorf("subscriber %d: unclean stream (received %d of %d, %d gaps)",
				i, r.received, len(w.sc.Flows), r.gaps))
		case r.payload != w.payload:
			errs = append(errs, fmt.Errorf("subscriber %d: payload differs from replay.EncodeFlows", i))
		case r.outcome != w.ref || r.alerts != w.refAlert || r.late != 0:
			errs = append(errs, fmt.Errorf("subscriber %d: score %+v (%d alerts, %d late), reference %+v (%d alerts)",
				i, r.outcome, r.alerts, r.late, w.ref, w.refAlert))
		}
	}
	if st.Dropped != 0 || st.Disconnected != 0 {
		errs = append(errs, fmt.Errorf("server dropped %d flows, disconnected %d subscribers", st.Dropped, st.Disconnected))
	}
	return errors.Join(errs...)
}

// frameOverhead is the CSBS1 per-frame framing: a 12-byte length+sequence
// prefix and a 4-byte checksum. The end frame carries the same 16 bytes.
const frameOverhead = 16

// countingReader counts the bytes read from a stream.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(b []byte) (int, error) {
	n, err := c.r.Read(b)
	c.n += int64(n)
	return n, err
}
