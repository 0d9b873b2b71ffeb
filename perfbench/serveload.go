package main

import (
	"context"
	"fmt"
	"log/slog"
	"net"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"enduratrace/internal/alert"
	"enduratrace/internal/anomalystore"
	"enduratrace/internal/core"
	"enduratrace/internal/eval"
	"enduratrace/internal/obs"
	"enduratrace/internal/recorder"
	"enduratrace/internal/serve"
	"enduratrace/internal/trace"
	"enduratrace/internal/traceio"
	"enduratrace/internal/window"
)

// numStreams is the number of concurrent streams (and sending
// goroutines) of the serve workloads: one per vCPU of the reference box.
const numStreams = 2

// serveSpec is one serve workload's shape.
type serveSpec struct {
	cfg       core.Config
	perturbed bool
	// openLoop sends at a fixed offered rate; otherwise each stream sends
	// closed-loop as fast as Block backpressure allows.
	openLoop bool
	// durable attaches the anomaly store, the alert pipeline and file
	// sinks; otherwise sinks are null and nothing else is attached.
	durable bool
}

func steadySpec() serveSpec {
	cfg := eval.DefaultOptions().Core
	cfg.GateAuto = true
	cfg.GateAutoQuantile = 0.99
	cfg.FastKernels = true
	return serveSpec{cfg: cfg}
}

func incidentSpec() serveSpec {
	cfg := eval.DefaultOptions().Core
	cfg.FastKernels = true
	return serveSpec{cfg: cfg, perturbed: true, openLoop: true, durable: true}
}

// streamClock holds one stream's send-side timestamps and the decisions
// the daemon recorded for it.
type streamClock struct {
	name string
	// closeNs[b] is when the first event with TS >= b·window was due: the
	// moment the window ending at b·window could be decided. Only the open
	// loop has due times; closed-loop streams leave it empty and measure
	// no decision latency.
	closeNs []atomic.Int64
	// endNs is when the client closed the stream, which is what closes
	// the final, flushed window.
	endNs atomic.Int64

	// Written by the stream's scoring goroutine only, read after the
	// stream has closed.
	recorded []int   // indices of windows the daemon recorded
	latNs    []int64 // decision latency of each recorded window (open loop)
	closedNs atomic.Int64
}

// closing returns the time the window ending at end could be decided.
func (c *streamClock) closing(end time.Duration, win time.Duration) int64 {
	b := int(end / win)
	if b < len(c.closeNs) {
		if t := c.closeNs[b].Load(); t != 0 {
			return t
		}
	}
	return c.endNs.Load()
}

// timedSink wraps a stream's recorder sink: Record timestamps the
// decision against the closing event's due time.
type timedSink struct {
	recorder.Sink
	c   *streamClock
	win time.Duration
}

func (s *timedSink) Record(w window.Window) error {
	if len(s.c.closeNs) > 0 {
		s.c.latNs = append(s.c.latNs, obs.Now()-s.c.closing(w.End, s.win))
	}
	s.c.recorded = append(s.c.recorded, w.Index)
	return s.Sink.Record(w)
}

func (s *timedSink) Close() error {
	err := s.Sink.Close()
	s.c.closedNs.Store(obs.Now())
	return err
}

// serveEnv is one set-up daemon with everything attached to it.
type serveEnv struct {
	learned *core.Learned
	srv     *serve.Server
	store   *anomalystore.Store
	alerts  *alert.Pipeline
	clocks  map[string]*streamClock
	learnNs int64 // the core.Learn share of the set-up
}

// setupServe learns the model and builds a listening daemon: the work
// setup_s measures.
func setupServe(spec serveSpec, in *inputs, dir string, clocks map[string]*streamClock) (*serveEnv, int64, error) {
	t0 := obs.Now()
	learned, err := core.Learn(spec.cfg, trace.NewSliceReader(in.ref))
	if err != nil {
		return nil, 0, err
	}
	env := &serveEnv{learned: learned, clocks: clocks, learnNs: obs.Now() - t0}
	inner := recorder.NullFactory()
	if spec.durable {
		if env.store, err = anomalystore.Open(filepath.Join(dir, "store"), anomalystore.Options{}); err != nil {
			return nil, 0, err
		}
		if inner, err = recorder.NewDirFactory(filepath.Join(dir, "rec"), -1); err != nil {
			return nil, 0, err
		}
		env.alerts = alert.NewPipeline(alert.Options{
			Sinks: []alert.Sink{alert.NewSlogSink(slog.New(slog.DiscardHandler))},
		})
	}
	win := spec.cfg.WindowDuration
	factory := func(id string) (recorder.Sink, error) {
		c, ok := clocks[id]
		if !ok {
			return nil, fmt.Errorf("unexpected stream %q", id)
		}
		s, err := inner(id)
		if err != nil {
			return nil, err
		}
		return &timedSink{Sink: s, c: c, win: win}, nil
	}
	env.srv, err = serve.New(serve.Options{
		Cfg:          spec.cfg,
		Learned:      learned,
		Backpressure: serve.Block,
		QueueLen:     serveQueueLen,
		Sinks:        factory,
		Anomalies:    env.store,
		Alerts:       env.alerts,
	})
	if err != nil {
		return nil, 0, err
	}
	if err := env.srv.Listen("127.0.0.1:0", ""); err != nil {
		return nil, 0, err
	}
	return env, obs.Now() - t0, nil
}

// discard shuts down a set-up daemon that never served.
func (e *serveEnv) discard() {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e.srv.Serve(ctx)
	if e.alerts != nil {
		e.alerts.Close()
	}
	if e.store != nil {
		e.store.Close()
	}
}

// client is one stream's sending side.
type client struct {
	c      *streamClock
	rd     *replay
	fw     *traceio.FrameWriter
	conn   net.Conn
	win    time.Duration
	nextB  int // next window boundary still to be stamped
	events int64
}

func dialClient(addr string, c *streamClock, rd *replay, win time.Duration) (*client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	fw, err := traceio.NewFrameWriter(conn, c.name)
	if err != nil {
		conn.Close()
		return nil, err
	}
	return &client{c: c, rd: rd, fw: fw, conn: conn, win: win}, nil
}

// send writes the stream's next event, due at due, and stamps the window
// boundaries it crosses with due (when the stream keeps a closeNs table).
func (cl *client) send(due int64) error {
	ev, err := cl.rd.Next()
	if err != nil {
		return err
	}
	if b := int(ev.TS / cl.win); cl.nextB <= b && cl.nextB < len(cl.c.closeNs) {
		for ; cl.nextB <= b && cl.nextB < len(cl.c.closeNs); cl.nextB++ {
			cl.c.closeNs[cl.nextB].Store(due)
		}
	}
	cl.events++
	return cl.fw.Write(ev)
}

// close ends the stream; its end-of-stream marker closes the last window.
func (cl *client) close() error {
	cl.c.endNs.Store(obs.Now())
	err := cl.fw.Close()
	cl.conn.Close()
	return err
}

// closedLoop sends as fast as the socket takes events, until deadline.
func (cl *client) closedLoop(deadline, limit int64) error {
	for cl.events < limit {
		if cl.events&1023 == 0 && obs.Now() >= deadline {
			return nil
		}
		if err := cl.send(0); err != nil {
			return err
		}
	}
	return nil
}

// openLoop sends event i of every stream at start + i/rate, until limit
// events per stream are out, from one goroutine. Like a tracer draining
// its buffers it wakes at most once per flushEvery and sends and flushes
// whatever is due; that wait counts in the events' decision latency. It
// returns, per wake-up, how late the generator woke.
func openLoop(cls []*client, rate float64, start, limit int64) ([]int64, error) {
	interval := 1e9 / rate
	due := func(i int64) int64 { return start + int64(float64(i)*interval) }
	var late []int64
	wake := start
	for sent := int64(0); sent < limit; {
		now := obs.Now()
		late = append(late, now-wake)
		for sent < limit && due(sent) <= now {
			sent++
		}
		for _, cl := range cls {
			for cl.events < sent {
				if err := cl.send(due(cl.events)); err != nil {
					return late, err
				}
			}
			if err := cl.fw.Flush(); err != nil {
				return late, err
			}
		}
		if sent < limit {
			wake = max(due(sent), now+flushEvery.Nanoseconds())
			if d := wake - obs.Now(); d > 0 {
				time.Sleep(time.Duration(d))
			}
		}
	}
	return late, nil
}

// serveOutcome is what a timed serve run leaves for the oracle and the
// metrics.
type serveOutcome struct {
	sent   []int64
	wallNs int64
	cpuNs  int64
	gcNs   int64
	// peak Go-runtime memory over the timed region (see peakMem)
	memMB      float64
	memSamples int
	stats      serve.StatsReport
	results    []serve.StreamResult
	books      *alert.Books
	lateNs     []int64
	latNs      []int64
	problems   []string
	// queue samples (trace mode only)
	qSamples, qFull, qEmpty int
}

// runServe drives the set-up daemon with numStreams clients and shuts it
// down once every stream has closed.
func runServe(spec serveSpec, env *serveEnv, in *inputs, o options, sampleQueues bool) *serveOutcome {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	serveErr := make(chan error, 1)
	go func() { serveErr <- env.srv.Serve(ctx) }()

	out := &serveOutcome{sent: make([]int64, numStreams)}
	win := spec.cfg.WindowDuration
	addr := env.srv.TraceAddr().String()

	var sampWG sync.WaitGroup
	stopSamp := make(chan struct{})
	if sampleQueues {
		sampWG.Add(1)
		go func() {
			defer sampWG.Done()
			tick := time.NewTicker(2 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stopSamp:
					return
				case <-tick.C:
				}
				for _, v := range env.srv.Streams() {
					out.qSamples++
					switch {
					case v.QueueDepth == 0:
						out.qEmpty++
					case v.QueueDepth >= serveQueueLen:
						out.qFull++
					}
				}
			}
		}()
	}

	cls := make([]*client, numStreams)
	for i := range cls {
		c := env.clocks[streamName(o.workload, i)]
		cl, err := dialClient(addr, c, newReplay(in.streams[i], -1), win)
		if err != nil {
			out.problems = append(out.problems, fmt.Sprintf("client %d: %v", i, err))
			cancel()
			<-serveErr
			return out
		}
		cls[i] = cl
	}
	errs := make([]error, numStreams+1)
	mem := startPeakMem()
	cpu0, gc0 := cpuNs(), gcCPUNs()
	start := obs.Now()
	deadline := start + o.seconds.Nanoseconds()
	if spec.openLoop {
		out.lateNs, errs[numStreams] = openLoop(cls, o.rate/numStreams, start, in.perStream)
	} else {
		var wg sync.WaitGroup
		for i, cl := range cls {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[i] = cl.closedLoop(deadline, in.perStream)
			}()
		}
		wg.Wait()
	}
	for i, cl := range cls {
		if err := cl.close(); err != nil && errs[i] == nil {
			errs[i] = err
		}
		out.sent[i] = cl.events
	}
	for i, err := range errs {
		if err != nil {
			out.problems = append(out.problems, fmt.Sprintf("client %d: %v", i, err))
		}
	}
	// Every stream is closed once its sink is.
	for {
		st := env.srv.Stats()
		if st.StreamsClosed >= numStreams && st.StreamsLive == 0 {
			break
		}
		if obs.Now()-deadline > (60 * time.Second).Nanoseconds() {
			out.problems = append(out.problems, "streams did not close within 60 s of the deadline")
			break
		}
		time.Sleep(200 * time.Microsecond)
	}
	out.cpuNs = cpuNs() - cpu0
	out.gcNs = gcCPUNs() - gc0
	end := start
	for _, c := range env.clocks {
		if t := c.closedNs.Load(); t > end {
			end = t
		}
	}
	out.wallNs = end - start
	out.memMB, out.memSamples = mem.end()
	close(stopSamp)
	sampWG.Wait()

	cancel()
	if err := <-serveErr; err != nil {
		out.problems = append(out.problems, "serve: "+err.Error())
	}
	for _, c := range env.clocks {
		out.latNs = append(out.latNs, c.latNs...)
	}
	out.stats = env.srv.Stats()
	out.results = env.srv.Results()
	if env.alerts != nil {
		if !env.alerts.Drain(10 * time.Second) {
			out.problems = append(out.problems, "alert queue did not drain")
		}
		b := env.alerts.Books()
		out.books = &b
		env.alerts.Close()
	}
	if env.store != nil {
		if err := env.store.Close(); err != nil {
			out.problems = append(out.problems, "store close: "+err.Error())
		}
	}
	return out
}

// flushEvery is the open-loop client's flush period.
const flushEvery = time.Millisecond

// serveQueueLen is the daemon's per-stream queue capacity, set in
// serve.Options and the threshold of serve.queue_full_frac.
const serveQueueLen = 1024

func streamName(workload string, i int) string { return fmt.Sprintf("%s-%d", workload, i) }

// oracleStream is the reference computation for one stream: core.Run's
// per-event path over exactly the events the client sent.
type oracleStream struct {
	stats    core.RunStats
	recorded []int
	trips    int
	scorer   *eval.Scorer
	err      error
}

type indexSink struct {
	recorder.Sink
	idx []int
}

func (s *indexSink) Record(w window.Window) error {
	s.idx = append(s.idx, w.Index)
	return s.Sink.Record(w)
}

func runOracle(cfg core.Config, learned *core.Learned, seg *segment, sent int64, perturbed bool) *oracleStream {
	o := &oracleStream{}
	sink := &indexSink{Sink: recorder.NewNullSink()}
	rd := newReplay(seg, sent)
	horizon := seg.period * time.Duration(1+sent/int64(seg.len()))
	if perturbed {
		o.scorer = eval.NewScorer(seg.truthUntil(horizon), scoreSlack, scoreWarmup)
	}
	o.stats, o.err = core.Run(cfg, learned, nextOnly{rd}, sink, func(d core.Decision) error {
		if d.GateTripped {
			o.trips++
		}
		if o.scorer != nil {
			o.scorer.Observe(d.Window.Start, d.Window.End, d.Anomalous)
		}
		return nil
	})
	o.recorded = sink.idx
	return o
}

// checkServe runs the oracle on every stream and checks the daemon's
// books against it. It returns the per-stream oracle results and the
// list of mismatches.
func checkServe(spec serveSpec, env *serveEnv, in *inputs, o options, out *serveOutcome) ([]*oracleStream, []string) {
	var problems []string
	oracles := make([]*oracleStream, numStreams)
	var wg sync.WaitGroup
	for i := 0; i < numStreams; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			oracles[i] = runOracle(spec.cfg, env.learned, in.streams[i], out.sent[i], spec.perturbed)
		}(i)
	}
	wg.Wait()

	byID := make(map[string]serve.StreamResult)
	for _, r := range out.results {
		byID[r.ID] = r
	}
	var sentTotal int64
	for i, or := range oracles {
		name := streamName(o.workload, i)
		sentTotal += out.sent[i]
		if or.err != nil {
			problems = append(problems, fmt.Sprintf("%s: oracle: %v", name, or.err))
			continue
		}
		r, ok := byID[name]
		if !ok {
			problems = append(problems, fmt.Sprintf("%s: no stream result", name))
			continue
		}
		if !r.Clean {
			problems = append(problems, fmt.Sprintf("%s: unclean close: %s", name, r.Err))
		}
		if r.DroppedEvents != 0 {
			problems = append(problems, fmt.Sprintf("%s: %d events dropped", name, r.DroppedEvents))
		}
		if r.Windows != or.stats.Windows || r.GateTrips != or.trips || r.Anomalies != or.stats.Anomalies {
			problems = append(problems, fmt.Sprintf("%s: daemon windows/trips/anomalies %d/%d/%d, reference %d/%d/%d",
				name, r.Windows, r.GateTrips, r.Anomalies, or.stats.Windows, or.trips, or.stats.Anomalies))
		}
		got := env.clocks[name].recorded
		if !equalInts(got, or.recorded) {
			problems = append(problems, fmt.Sprintf("%s: daemon recorded %d windows, reference %d (or a different set)",
				name, len(got), len(or.recorded)))
		}
	}
	st := out.stats
	if st.DroppedEvents != 0 {
		problems = append(problems, fmt.Sprintf("stats: %d dropped events", st.DroppedEvents))
	}
	if st.StreamsClosed != numStreams || st.StreamsLive != 0 || st.StreamsRejected != 0 {
		problems = append(problems, fmt.Sprintf("stats: streams closed/live/rejected %d/%d/%d",
			st.StreamsClosed, st.StreamsLive, st.StreamsRejected))
	}
	if env.store != nil {
		if st.AnomalyStoreErrors != 0 || st.AlertStoreErrors != 0 {
			problems = append(problems, fmt.Sprintf("store: %d incident and %d alert append errors",
				st.AnomalyStoreErrors, st.AlertStoreErrors))
		}
		if st.AnomalyIncidents != st.GateTrips {
			problems = append(problems, fmt.Sprintf("store: %d incidents for %d gate trips",
				st.AnomalyIncidents, st.GateTrips))
		}
	}
	if out.books != nil {
		if err := out.books.Balanced(); err != nil {
			problems = append(problems, "alerts: "+err.Error())
		}
		if env.store != nil && st.AlertTransitions != out.books.Fired+out.books.Resolved {
			problems = append(problems, fmt.Sprintf("alerts: %d transitions persisted, %d emitted",
				st.AlertTransitions, out.books.Fired+out.books.Resolved))
		}
	}
	return oracles, problems
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	a = append([]int(nil), a...)
	b = append([]int(nil), b...)
	sort.Ints(a)
	sort.Ints(b)
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
