package main

import (
	"bytes"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"enduratrace/internal/core"
	"enduratrace/internal/eval"
	"enduratrace/internal/obs"
	"enduratrace/internal/recorder"
	"enduratrace/internal/trace"
	"enduratrace/internal/traceio"
)

// Input sizes. The reference run is the eval harness's 2 minutes (3 000
// windows); the steady segments are long enough that the handful of
// false positives clean playback produces does not swing reduction_x
// from seed to seed; the offline trace holds six perturbations.
const (
	refLen          = 120 * time.Second
	steadySegLen    = 2400 * time.Second
	offlineLen      = 120 * time.Second
	shortLen        = 20 * time.Second
	steadyCapPerS   = 1e7 // closed-loop cap per stream and second, far above what 2 vCPUs reach
	eventsPerTraceS = 1000
)

func buildRef(o options, pool payloadPool) ([]trace.Event, error) {
	length := refLen
	if o.short {
		length = shortLen
	}
	seg, err := simulate(refSeed, length, false, pool)
	if err != nil {
		return nil, err
	}
	return seg.events(), nil
}

// serveRun carries a serve workload's state into the traced run.
type serveRun struct {
	spec    serveSpec
	in      *inputs
	learned *core.Learned
	out     *serveOutcome
}

func runServeWorkload(o options, dir string) (*workloadResult, error) {
	spec := steadySpec()
	if o.workload == "incident" {
		spec = incidentSpec()
	}
	t0 := phase("start", 0)
	pool := newPayloadPool(o.seed)
	in := &inputs{}
	var err error
	if in.ref, err = buildRef(o, pool); err != nil {
		return nil, err
	}
	segLen := steadySegLen
	in.perStream = int64(o.seconds.Seconds() * steadyCapPerS)
	if spec.openLoop {
		in.perStream = int64(o.seconds.Seconds() * o.rate / numStreams)
		segLen = roundUp(time.Duration(in.perStream/eventsPerTraceS) * time.Second)
	}
	if o.short {
		segLen = shortLen
	}
	for i := 0; i < numStreams; i++ {
		seg, err := simulate(streamSeed(o.seed, i), segLen, spec.perturbed, pool)
		if err != nil {
			return nil, err
		}
		in.streams = append(in.streams, seg)
	}

	clocks := make(map[string]*streamClock)
	for i := 0; i < numStreams; i++ {
		c := &streamClock{name: streamName(o.workload, i)}
		if spec.openLoop {
			if c.closeNs, err = offHeap[atomic.Int64](int(in.perStream/25 + 1024)); err != nil {
				return nil, err
			}
		}
		clocks[c.name] = c
	}
	t0 = phase("inputs", t0)
	var setupS, learnS []float64
	var env *serveEnv
	for r := 0; r < setupReps(o); r++ {
		e, ns, err := setupServe(spec, in, subdir(dir, "setup"), clocks)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, seconds(ns))
		learnS = append(learnS, seconds(e.learnNs))
		if env != nil {
			env.discard()
		}
		env = e
	}
	t0 = phase("setup", t0)
	out := runServe(spec, env, in, o, o.trace)
	t0 = phase("run", t0)
	oracles, problems := checkServe(spec, env, in, o, out)
	phase("oracle", t0)
	problems = append(out.problems, problems...)

	var sent, dropped int64
	for _, n := range out.sent {
		sent += n
	}
	for _, r := range out.results {
		dropped += r.DroppedEvents
	}
	scored := sent - dropped
	m := newMetrics()
	m.set("events_per_s", float64(scored)/seconds(out.wallNs), "1/s", int(scored))
	m.set("cpu_ns_per_event", float64(out.cpuNs)/float64(scored), "ns", int(scored))
	if spec.openLoop {
		m.set("decide_p50_ms", nsQuantileMs(out.latNs, 0.50), "ms", len(out.latNs))
		m.set("decide_p99_ms", nsQuantileMs(out.latNs, 0.99), "ms", len(out.latNs))
		if len(out.latNs) == 0 && !o.short {
			problems = append(problems, "no recorded window: decision latency undefined")
		}
	}
	if out.stats.RecordedBytes > 0 {
		m.set("reduction_x", float64(out.stats.FullBytes)/float64(out.stats.RecordedBytes), "x", int(out.stats.RecordedWindows))
	} else {
		problems = append(problems, "nothing recorded: reduction_x undefined")
	}
	recall, precision, qn := serveQuality(spec, env, oracles, o)
	m.set("recall", recall, "ratio", qn)
	m.set("precision", precision, "ratio", qn)
	m.set("setup_s", median(setupS), "s", len(setupS))
	m.set("peak_rss_mb", out.memMB, "MB", out.memSamples)

	failed := dropped
	extra := map[string]any{
		"failed_frac":     float64(failed+int64(len(problems))) / float64(sent),
		"quality_basis":   qualityBasis(spec),
		"offered_rate":    offeredRate(spec, o),
		"setup_s_samples": setupS,
		"stats":           out.stats,
	}
	if spec.openLoop {
		lp50, lmax := lateness(out)
		extra["generator_late_p50_ms"] = lp50
		extra["generator_late_max_ms"] = lmax
		extra["generator_wakeups"] = len(out.lateNs)
		extra["client_flush_every_ms"] = flushEvery.Seconds() * 1e3
	}
	return &workloadResult{
		metrics:       m,
		extra:         extra,
		problems:      problems,
		attempted:     sent,
		failed:        failed,
		cpuNsPerEvent: m.get("cpu_ns_per_event"),
		gcNsPerEvent:  float64(out.gcNs) / float64(scored),
		learnS:        median(learnS),
		serve:         &serveRun{spec: spec, in: in, learned: env.learned, out: out},
	}, nil
}

// setupReps is how many set-ups setup_s is the median of: five, or
// three offline, whose exact-kernel fit takes seconds; one when short.
func setupReps(o options) int {
	switch {
	case o.short:
		return 1
	case o.workload == "offline":
		return 3
	}
	return 5
}

func offeredRate(spec serveSpec, o options) any {
	if spec.openLoop {
		return o.rate
	}
	return "closed loop"
}

func qualityBasis(spec serveSpec) string {
	if spec.perturbed {
		return "perturbation schedule (eval.Scorer, 5 s slack, 5 s warm-up)"
	}
	return "reference decisions (clean playback has no perturbation to find)"
}

// lateness is the open-loop generator's lateness: per wake-up, how far
// behind its schedule it woke.
func lateness(out *serveOutcome) (p50, max float64) {
	if len(out.lateNs) == 0 {
		return 0, 0
	}
	p50 = nsQuantileMs(out.lateNs, 0.5)
	for _, l := range out.lateNs {
		if v := float64(l) / 1e6; v > max {
			max = v
		}
	}
	return p50, max
}

// serveQuality scores detection quality. On perturbed playback it is
// window precision and recall against the perturbation schedule; on
// clean playback, where there is nothing to find, it is the agreement of
// the daemon's recorded windows with the reference decisions.
func serveQuality(spec serveSpec, env *serveEnv, oracles []*oracleStream, o options) (recall, precision float64, n int) {
	var tp, fp, truth, ref, got int
	for i, or := range oracles {
		if or.err != nil {
			continue
		}
		if spec.perturbed {
			var rep eval.Report
			or.scorer.Finish(&rep)
			t := int(rep.Precision*float64(rep.ScoredAnomalousWindows) + 0.5)
			tp += t
			fp += rep.ScoredAnomalousWindows - t
			truth += rep.TruthWindows
			continue
		}
		want := make(map[int]bool, len(or.recorded))
		for _, w := range or.recorded {
			want[w] = true
		}
		daemon := env.clocks[streamName(o.workload, i)].recorded
		for _, w := range daemon {
			if want[w] {
				tp++
			}
		}
		ref += len(or.recorded)
		got += len(daemon)
	}
	if spec.perturbed {
		return ratio(tp, truth), ratio(tp, tp+fp), tp + fp
	}
	return ratio(tp, ref), ratio(tp, got), got
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 1
	}
	return float64(a) / float64(b)
}

// offlineRun carries the offline workload's state into the traced run.
type offlineRun struct {
	cfg     core.Config
	learned *core.Learned
	in      *inputs
}

func offlineConfig() core.Config { return eval.DefaultOptions().Core }

// clockReader stamps, for every window boundary, when the event that
// closes the window ending there was read.
type clockReader struct {
	r       trace.Reader
	win     time.Duration
	closeNs []int64
	nextB   int
	endNs   int64
}

func (c *clockReader) Next() (trace.Event, error) {
	ev, err := c.r.Next()
	if err != nil {
		c.endNs = obs.Now()
		return ev, err
	}
	if b := int(ev.TS / c.win); c.nextB <= b && c.nextB < len(c.closeNs) {
		now := obs.Now()
		for ; c.nextB <= b && c.nextB < len(c.closeNs); c.nextB++ {
			c.closeNs[c.nextB] = now
		}
	}
	return ev, nil
}

func (c *clockReader) closing(end time.Duration) int64 {
	if b := int(end / c.win); b < c.nextB {
		return c.closeNs[b]
	}
	return c.endNs
}

// offlinePass is one monitored pass over the in-memory .etrc trace.
type offlinePass struct {
	stats    core.RunStats
	trips    int
	anoms    []int
	latNs    []int64
	recBytes int
	scorer   *eval.Scorer
}

func runOfflinePass(cfg core.Config, learned *core.Learned, etrc []byte, seg *segment, closeBuf []int64) (*offlinePass, error) {
	br, err := traceio.NewBinaryReader(bytes.NewReader(etrc))
	if err != nil {
		return nil, err
	}
	var rec bytes.Buffer
	ss, err := recorder.NewStreamSink(&rec, -1)
	if err != nil {
		return nil, err
	}
	sink := recorder.NewContextSink(ss, 2, 2)
	rd := &clockReader{r: br, win: cfg.WindowDuration, closeNs: closeBuf}
	p := &offlinePass{scorer: eval.NewScorer(seg.truthUntil(seg.period), scoreSlack, scoreWarmup)}
	p.stats, err = core.Run(cfg, learned, rd, sink, func(d core.Decision) error {
		if d.Anomalous {
			p.latNs = append(p.latNs, obs.Now()-rd.closing(d.Window.End))
			p.anoms = append(p.anoms, d.Window.Index)
		}
		if d.GateTripped {
			p.trips++
		}
		p.scorer.Observe(d.Window.Start, d.Window.End, d.Anomalous)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := sink.Close(); err != nil {
		return nil, err
	}
	p.recBytes = rec.Len()
	return p, nil
}

func encodeEtrc(evs []trace.Event) ([]byte, error) {
	var buf bytes.Buffer
	bw, err := traceio.NewBinaryWriter(&buf)
	if err != nil {
		return nil, err
	}
	for _, ev := range evs {
		if err := bw.Write(ev); err != nil {
			return nil, err
		}
	}
	if err := bw.Flush(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func runOfflineWorkload(o options, dir string) (*workloadResult, error) {
	cfg := offlineConfig()
	t0 := phase("start", 0)
	pool := newPayloadPool(o.seed)
	in := &inputs{}
	var err error
	if in.ref, err = buildRef(o, pool); err != nil {
		return nil, err
	}
	length := offlineLen
	if o.short {
		length = shortLen
	}
	if in.offline, err = simulate(offlineSeed(o.seed), length, true, pool); err != nil {
		return nil, err
	}
	in.offlineEvents = in.offline.events()
	etrc, err := encodeEtrc(in.offlineEvents)
	if err != nil {
		return nil, err
	}

	t0 = phase("inputs", t0)
	var setupS []float64
	var learned *core.Learned
	for r := 0; r < setupReps(o); r++ {
		t0 := obs.Now()
		if learned, err = core.Learn(cfg, trace.NewSliceReader(in.ref)); err != nil {
			return nil, err
		}
		setupS = append(setupS, seconds(obs.Now()-t0))
	}
	closeBuf := make([]int64, int(length/cfg.WindowDuration)+2)
	t0 = phase("setup", t0)

	var passes []*offlinePass
	var wallNs int64
	mem := startPeakMem()
	cpu0, gc0 := cpuNs(), gcCPUNs()
	start := obs.Now()
	for len(passes) == 0 || obs.Now()-start < o.seconds.Nanoseconds() {
		p, err := runOfflinePass(cfg, learned, etrc, in.offline, closeBuf)
		if err != nil {
			return nil, err
		}
		passes = append(passes, p)
	}
	wallNs = obs.Now() - start
	cpu := cpuNs() - cpu0
	gc := gcCPUNs() - gc0
	memMB, memSamples := mem.end()

	t0 = phase("run", t0)
	problems := checkOffline(cfg, learned, etrc, in.offlineEvents, passes)
	phase("oracle", t0)
	first := passes[0]
	events := int64(len(in.offlineEvents)) * int64(len(passes))
	var lat []int64
	for _, p := range passes {
		lat = append(lat, p.latNs...)
	}
	var rep eval.Report
	first.scorer.Finish(&rep)

	m := newMetrics()
	m.set("events_per_s", float64(events)/seconds(wallNs), "1/s", int(events))
	m.set("cpu_ns_per_event", float64(cpu)/float64(events), "ns", int(events))
	m.set("decide_p50_ms", nsQuantileMs(lat, 0.50), "ms", len(lat))
	m.set("decide_p99_ms", nsQuantileMs(lat, 0.99), "ms", len(lat))
	if first.stats.RecBytes > 0 {
		m.set("reduction_x", float64(first.stats.FullBytes)/float64(first.stats.RecBytes), "x", first.stats.RecWindows)
	} else {
		problems = append(problems, "nothing recorded: reduction_x undefined")
	}
	m.set("recall", rep.Recall, "ratio", rep.TruthWindows)
	m.set("precision", rep.Precision, "ratio", rep.ScoredAnomalousWindows)
	m.set("setup_s", median(setupS), "s", len(setupS))
	m.set("peak_rss_mb", memMB, "MB", memSamples)

	extra := map[string]any{
		"failed_frac":     float64(len(problems)) / float64(events),
		"quality_basis":   "perturbation schedule (eval.Scorer, 5 s slack, 5 s warm-up)",
		"passes":          len(passes),
		"setup_s_samples": setupS,
	}
	return &workloadResult{
		metrics:       m,
		extra:         extra,
		problems:      problems,
		attempted:     events,
		cpuNsPerEvent: m.get("cpu_ns_per_event"),
		gcNsPerEvent:  float64(gc) / float64(events),
		learnS:        median(append([]float64(nil), setupS...)),
		offline:       &offlineRun{cfg: cfg, learned: learned, in: in},
	}, nil
}

// checkOffline is the offline oracle: every pass must reproduce the
// first exactly, the .etrc round trip must return the generated events,
// and the batched Run path over the same events must make the same
// decisions as the per-event path the workload takes.
func checkOffline(cfg core.Config, learned *core.Learned, etrc []byte, want []trace.Event, passes []*offlinePass) []string {
	var problems []string
	first := passes[0]
	for i, p := range passes[1:] {
		if p.stats != first.stats || p.recBytes != first.recBytes || !equalInts(p.anoms, first.anoms) {
			problems = append(problems, fmt.Sprintf("pass %d differs from pass 0", i+1))
		}
	}
	br, err := traceio.NewBinaryReader(bytes.NewReader(etrc))
	if err != nil {
		return append(problems, "etrc: "+err.Error())
	}
	decoded, err := trace.ReadAll(br)
	if err != nil {
		return append(problems, "etrc: "+err.Error())
	}
	if len(decoded) != len(want) {
		return append(problems, fmt.Sprintf("etrc round trip: %d events, generated %d", len(decoded), len(want)))
	}
	for i, ev := range decoded {
		g := want[i]
		if ev.TS != g.TS || ev.Type != g.Type || ev.Arg != g.Arg || !bytes.Equal(ev.Payload, g.Payload) {
			return append(problems, fmt.Sprintf("etrc round trip: event %d differs", i))
		}
	}
	var refAnoms []int
	refTrips := 0
	refStats, err := core.Run(cfg, learned, trace.NewSliceReader(decoded), nil, func(d core.Decision) error {
		if d.Anomalous {
			refAnoms = append(refAnoms, d.Window.Index)
		}
		if d.GateTripped {
			refTrips++
		}
		return nil
	})
	if err != nil {
		return append(problems, "reference run: "+err.Error())
	}
	if refStats.Windows != first.stats.Windows || refTrips != first.trips || !equalInts(refAnoms, first.anoms) {
		problems = append(problems, fmt.Sprintf("reference windows/trips/anomalies %d/%d/%d, workload %d/%d/%d",
			refStats.Windows, refTrips, len(refAnoms), first.stats.Windows, first.trips, len(first.anoms)))
	}
	return problems
}

// phase logs how long the phase that started at t0 took and returns now.
func phase(name string, t0 int64) int64 {
	now := obs.Now()
	if t0 != 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %s %.2fs\n", name, seconds(now-t0))
	}
	return now
}
