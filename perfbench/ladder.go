package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"enduratrace/internal/alert"
	"enduratrace/internal/anomalystore"
	"enduratrace/internal/core"
	"enduratrace/internal/distance"
	"enduratrace/internal/obs"
	"enduratrace/internal/recorder"
	"enduratrace/internal/trace"
	"enduratrace/internal/traceio"
	"enduratrace/internal/window"
)

// The traced run replays a workload's inputs through each layer's public
// functions, one layer at a time, on one goroutine, and records a span
// around every call. Calls that cost tens of nanoseconds (per-event
// encode, decode, windowing, histogram and alert observations) are
// spanned in blocks of consecutive calls, so that the clock reads do
// not dwarf the work they time; the tracing overhead is reported.
const (
	eventBlock = 512 // events per span for per-event calls; also Run's batch size
	alertBlock = 64  // windows per alert.Observe span
	// ladderSteadyEvents caps the events per stream the steady ladder
	// replays: per-event costs need a long prefix, not the whole run.
	ladderSteadyEvents = 400_000
	// storeCapPerStream caps the incidents appended per stream: each
	// append is fsync'd, so a few hundred give a stable mean.
	storeCapPerStream = 400
	// exactQueryCap caps the queries the per-query (exact-kernel) LOF and
	// row stages replay: at milliseconds a query, a few hundred give a
	// stable mean.
	exactQueryCap = 500
	// unattributedTolerance bounds |cpu − Σ layers| / cpu on steady and
	// offline: the stage ladder must explain the end-to-end CPU cost. The
	// layers are timed alone while the end-to-end run interleaves them on
	// two cores, serve's queue hand-off has no public function to time,
	// and the box's speed drifts between the two phases; steady read
	// −21% to +17% across its speed regimes.
	unattributedTolerance = 0.5
)

// span is one traced call (or block of calls) into a layer.
type span struct {
	id, parent int32
	layer      uint16
	start, end int64
	n          int32 // calls, events, windows or queries covered
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	on     bool
	spans  []span
	layers []string
	idx    map[string]uint16
	// Per-layer totals of the recorded spans (and of add).
	ns    map[string]int64
	calls map[string]int64
}

func newTracer(on bool) *tracer {
	return &tracer{on: on, idx: map[string]uint16{}, ns: map[string]int64{}, calls: map[string]int64{}}
}

func (t *tracer) layer(name string) uint16 {
	if i, ok := t.idx[name]; ok {
		return i
	}
	t.layers = append(t.layers, name)
	t.idx[name] = uint16(len(t.layers) - 1)
	return t.idx[name]
}

// now reads the clock only when spans are on.
func (t *tracer) now() int64 {
	if !t.on {
		return 0
	}
	return obs.Now()
}

// span records a child of parent covering [start, now) and n units.
func (t *tracer) span(name string, parent int32, start int64, n int) {
	if !t.on {
		return
	}
	end := obs.Now()
	t.spans = append(t.spans, span{id: int32(len(t.spans) + 1), parent: parent,
		layer: t.layer(name), start: start, end: end, n: int32(n)})
	t.ns[name] += end - start
	t.calls[name] += int64(n)
}

// root opens a stage span and returns its id; closeRoot fills its end.
func (t *tracer) root(name string, parent int32) (int32, int64) {
	start := obs.Now()
	if !t.on {
		return 0, start
	}
	t.spans = append(t.spans, span{id: int32(len(t.spans) + 1), parent: parent, layer: t.layer(name), start: start})
	return int32(len(t.spans)), start
}

func (t *tracer) closeRoot(id int32, start int64) int64 {
	end := obs.Now()
	if t.on && id > 0 {
		t.spans[id-1].end = end
	}
	return end - start
}

// add books a layer total measured another way (process CPU).
func (t *tracer) add(name string, ns int64, n int64) {
	t.ns[name] += ns
	t.calls[name] += n
}

func (t *tracer) perCall(name string) float64 {
	if t.calls[name] == 0 {
		return 0
	}
	return float64(t.ns[name]) / float64(t.calls[name])
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\tlayer\tstart_ns\tend_ns\tn")
	for _, s := range t.spans {
		fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%d\t%d\n", s.id, s.parent, t.layers[s.layer], s.start, s.end, s.n)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ladderStream is one stream's inputs to the ladder.
type ladderStream struct {
	name   string
	events []trace.Event
	seg    *segment // the segment a serve stream's client replays
}

// ladderInput describes what the ladder replays and which path it
// follows: the serve path (frames, batched LOF, histograms, durable
// attachments) or the offline path (.etrc, per-query LOF, context sink).
type ladderInput struct {
	cfg     core.Config
	learned *core.Learned
	streams []ladderStream
	serve   bool
	durable bool
}

// ladderCounts are the work counts one ladder pass observed.
type ladderCounts struct {
	events, windows, trips, anomalies, batches int64
	frameBytes, storeBytes, recBytes           int64
	appends, records, transitions              int64
	stageWallNs                                map[string]int64
}

func runLadder(o options, dir string, wr *workloadResult) (*ladderResult, error) {
	in := ladderInputFor(o, wr)
	// Spans off first (compute stages only), then spans on: the
	// difference in the compute stages' wall time is the tracing cost.
	off := newTracer(false)
	offCounts, _, err := ladderPass(in, off, dir, false)
	if err != nil {
		return nil, err
	}
	tr := newTracer(true)
	c, problems, err := ladderPass(in, tr, dir, true)
	if err != nil {
		return nil, err
	}
	spansPath := filepath.Join(o.workdir, fmt.Sprintf("spans-%s-seed%d.tsv", o.workload, o.seed))
	if err := tr.write(spansPath); err != nil {
		return nil, err
	}

	m := newMetrics()
	ev := float64(c.events)
	perEv := func(name string) float64 { return float64(tr.ns[name]) / ev }
	m.set("traceio.encode_ns_per_event", tr.perCall("traceio.encode"), "ns", int(c.events))
	m.set("traceio.decode_ns_per_event", tr.perCall("traceio.decode"), "ns", int(c.events))
	m.set("traceio.bytes_per_event", float64(c.frameBytes)/ev, "B", int(c.events))
	m.set("traceio.etrc_decode_ns_per_event", tr.perCall("traceio.etrc_decode"), "ns", int(c.events))
	m.set("serve.transport_ns_per_event", tr.perCall("serve.transport"), "ns", int(c.events))
	m.set("window.ns_per_event", tr.perCall("window"), "ns", int(c.events))
	m.set("window.events_per_window", ev/float64(c.windows), "count", int(c.windows))
	m.set("pmf.ns_per_window", tr.perCall("pmf"), "ns", int(c.windows))
	m.set("core.quiet_ns_per_window", tr.perCall("core.quiet"), "ns", int(c.windows-c.trips))
	m.set("core.trip_frac", float64(c.trips)/float64(c.windows), "ratio", int(c.windows))
	m.set("core.anomalous_frac", float64(c.anomalies)/math.Max(1, float64(c.trips)), "ratio", int(c.trips))
	m.set("obs.observe_ns_per_event", tr.perCall("obs.observe"), "ns", int(tr.calls["obs.observe"]))
	m.set("lof.score_ns_per_query", tr.perCall("lof.score"), "ns", int(tr.calls["lof.score"]))
	m.set("distance.rows_ns_per_query", tr.perCall("distance.rows"), "ns", int(tr.calls["distance.rows"]))
	m.set("lof.select_ns_per_query", tr.perCall("lof.score")-tr.perCall("distance.rows"), "ns", int(tr.calls["lof.score"]))
	m.set("lof.queries_per_batch", float64(tr.calls["lof.score"])/math.Max(1, float64(c.batches)), "count", int(c.batches))
	m.set("traceio.size_ns_per_event", tr.perCall("traceio.size"), "ns", int(c.events))
	m.set("bench.replay_ns_per_event", tr.perCall("bench.replay"), "ns", int(tr.calls["bench.replay"]))
	m.set("anomalystore.append_ns_per_incident", tr.perCall("anomalystore.append"), "ns", int(c.appends))
	m.set("anomalystore.bytes_per_incident", float64(c.storeBytes)/math.Max(1, float64(c.appends)), "B", int(c.appends))
	m.set("recorder.record_ns_per_window", float64(tr.ns["recorder.record"])/math.Max(1, float64(c.records)), "ns", int(c.records))
	m.set("recorder.bytes_per_record", float64(c.recBytes)/math.Max(1, float64(c.records)), "B", int(c.records))
	m.set("alert.observe_ns_per_window", tr.perCall("alert.observe"), "ns", int(c.windows))
	m.set("alert.transitions", float64(c.transitions), "count", int(c.windows))
	m.set("core.learn_s", wr.learnS, "s", 1)
	m.set("runtime.gc_ns_per_event", wr.gcNsPerEvent, "ns", int(wr.attempted))

	// The stage ladder: each layer's cost per event on this workload's
	// path, summed and set against the end-to-end CPU cost per event.
	wpe := float64(c.windows) / ev
	qpe := float64(c.trips) / ev
	attributed := wr.gcNsPerEvent
	if in.serve {
		attributed += perEv("bench.replay") + perEv("traceio.encode") + perEv("traceio.decode") +
			perEv("traceio.size") + perEv("window") +
			wpe*tr.perCall("core.quiet") + qpe*tr.perCall("lof.score") +
			(3+wpe)*tr.perCall("obs.observe")
		if in.durable {
			attributed += qpe*tr.perCall("anomalystore.append") +
				float64(tr.ns["recorder.record"])/ev + wpe*tr.perCall("alert.observe")
		}
	} else {
		attributed += perEv("traceio.etrc_decode") + perEv("traceio.size") + perEv("window") +
			(float64(tr.ns["core.quiet"])+float64(tr.ns["core.trip"]))/ev +
			float64(tr.ns["recorder.record"])/ev
	}
	cpu := wr.cpuNsPerEvent
	residual := cpu - attributed
	unattributed := residual
	if in.serve {
		unattributed -= tr.perCall("serve.transport")
	}
	m.set("serve.residual_ns_per_event", residual, "ns", int(c.events))
	var qFull, qEmpty float64
	qn := 0
	if wr.serve != nil && wr.serve.out.qSamples > 0 {
		qn = wr.serve.out.qSamples
		qFull = float64(wr.serve.out.qFull) / float64(qn)
		qEmpty = float64(wr.serve.out.qEmpty) / float64(qn)
	}
	m.set("serve.queue_full_frac", qFull, "ratio", qn)
	m.set("serve.queue_empty_frac", qEmpty, "ratio", qn)
	m.set("ladder.e2e_cpu_ns_per_event", cpu, "ns", int(wr.attempted))
	m.set("ladder.attributed_ns_per_event", attributed, "ns", int(c.events))
	m.set("ladder.unattributed_frac", unattributed/cpu, "ratio", int(c.events))
	var onWall, offWall int64
	for stage, ns := range c.stageWallNs {
		if w, ok := offCounts.stageWallNs[stage]; ok {
			onWall += ns
			offWall += w
		}
	}
	m.set("ladder.tracing_overhead_frac", float64(onWall-offWall)/float64(offWall), "ratio", len(tr.spans))
	m.set("ladder.spans", float64(len(tr.spans)), "count", len(tr.spans))

	if o.workload != "incident" && !o.short && math.Abs(unattributed/cpu) > unattributedTolerance {
		problems = append(problems, fmt.Sprintf("stage ladder leaves %.1f%% of cpu_ns_per_event unattributed (tolerance ±%.0f%%)",
			100*unattributed/cpu, 100*unattributedTolerance))
	}
	extra := map[string]any{
		"spans_file":             spansPath,
		"unattributed_tolerance": unattributedTolerance,
		"ladder_events":          c.events,
	}
	return &ladderResult{metrics: m, problems: problems, extra: extra}, nil
}

type ladderResult struct {
	metrics  *metrics
	problems []string
	extra    map[string]any
}

func ladderInputFor(o options, wr *workloadResult) *ladderInput {
	if wr.offline != nil {
		r := wr.offline
		return &ladderInput{cfg: r.cfg, learned: r.learned,
			streams: []ladderStream{{name: "offline", events: r.in.offlineEvents}}}
	}
	r := wr.serve
	in := &ladderInput{cfg: r.spec.cfg, learned: r.learned, serve: true, durable: r.spec.durable}
	for i, seg := range r.in.streams {
		n := r.out.sent[i]
		if !r.spec.openLoop && n > ladderSteadyEvents {
			n = ladderSteadyEvents
		}
		evs, _ := trace.ReadAll(newReplay(seg, n))
		in.streams = append(in.streams, ladderStream{name: streamName(o.workload, i), events: evs, seg: seg})
	}
	return in
}

// ladderPass runs every stage over every stream. With full unset it runs
// only the cheap compute stages, the spans-off reference pass: the
// LOF-bearing stages' calls cost microseconds to milliseconds, far above
// the clock reads a span adds, and the I/O stages are too noisy to
// compare.
func ladderPass(in *ladderInput, tr *tracer, dir string, full bool) (*ladderCounts, []string, error) {
	c := &ladderCounts{stageWallNs: map[string]int64{}}
	var problems []string
	for _, st := range in.streams {
		root, rstart := tr.root("stream "+st.name, 0)
		var err error
		// stage runs fn as a child stage of the stream unless an earlier
		// stage failed.
		stage := func(name string, fn func(id int32) error) {
			if err != nil {
				return
			}
			id, start := tr.root(name, root)
			err = fn(id)
			c.stageWallNs[name] += tr.closeRoot(id, start)
		}
		c.events += int64(len(st.events))
		var frames []byte
		var wins []window.Window
		var chunkOf []int
		var decs []decision
		stage("traceio.encode", func(id int32) error {
			var err error
			frames, err = ladderEncode(tr, id, st)
			c.frameBytes += int64(len(frames))
			return err
		})
		stage("traceio.decode", func(id int32) error {
			return ladderDecode(tr, id, frames, len(st.events))
		})
		stage("traceio.etrc_decode", func(id int32) error {
			return ladderEtrc(tr, id, st.events)
		})
		stage("window", func(id int32) error {
			wins, chunkOf = ladderWindow(tr, id, in.cfg, st.events)
			c.windows += int64(len(wins))
			return nil
		})
		stage("pmf", func(id int32) error {
			ladderPMF(tr, id, in.learned, wins)
			return nil
		})
		stage("obs.observe", func(id int32) error {
			ladderObs(tr, id, len(st.events))
			return nil
		})
		stage("traceio.size", func(id int32) error {
			ladderSizes(tr, id, st.events)
			return nil
		})
		stage("bench.replay", func(id int32) error {
			ladderReplay(tr, id, len(st.events), st.seg)
			return nil
		})
		if full {
			stage("serve.transport", func(id int32) error {
				ns, err := ladderTransport(frames)
				tr.add("serve.transport", ns, int64(len(st.events)))
				return err
			})
			stage("core", func(id int32) error {
				var err error
				decs, err = ladderCore(tr, id, in, wins)
				for _, d := range decs {
					if d.tripped {
						c.trips++
					}
					if d.anomalous {
						c.anomalies++
					}
				}
				return err
			})
			stage("lof", func(id int32) error {
				b, bad := ladderLOF(tr, id, in, decs, chunkOf)
				c.batches += b
				if bad > 0 {
					problems = append(problems, fmt.Sprintf("%s: %d batched LOF scores differ from ProcessWindow's", st.name, bad))
				}
				return nil
			})
			stage("alert.observe", func(id int32) error {
				n, err := ladderAlert(tr, id, st.name, decs)
				c.transitions += n
				return err
			})
			stage("recorder.record", func(id int32) error {
				recs, bytes, err := ladderRecorder(tr, id, in, st.name, dir, wins, decs)
				c.records += recs
				c.recBytes += bytes
				return err
			})
			stage("anomalystore.append", func(id int32) error {
				n, bytes, err := ladderStore(tr, id, in, st.name, dir, wins, decs)
				c.appends += n
				c.storeBytes += bytes
				return err
			})
		}
		tr.closeRoot(root, rstart)
		if err != nil {
			return nil, nil, err
		}
	}
	return c, problems, nil
}

func ladderEncode(tr *tracer, id int32, st ladderStream) ([]byte, error) {
	var buf bytes.Buffer
	fw, err := traceio.NewFrameWriter(&buf, st.name)
	if err != nil {
		return nil, err
	}
	for i := 0; i < len(st.events); i += eventBlock {
		block := st.events[i:min(i+eventBlock, len(st.events))]
		t0 := tr.now()
		for _, ev := range block {
			if err := fw.Write(ev); err != nil {
				return nil, err
			}
		}
		tr.span("traceio.encode", id, t0, len(block))
	}
	t0 := tr.now()
	err = fw.Close()
	tr.span("traceio.encode", id, t0, 0)
	return buf.Bytes(), err
}

func ladderDecode(tr *tracer, id int32, frames []byte, want int) error {
	fr, err := traceio.NewFrameReader(bytes.NewReader(frames))
	if err != nil {
		return err
	}
	defer fr.Release()
	buf := make([]trace.Event, eventBlock)
	got := 0
	for {
		t0 := tr.now()
		n, err := fr.ReadBatch(buf)
		tr.span("traceio.decode", id, t0, n)
		got += n
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
	}
	if got != want {
		return fmt.Errorf("ladder decode: %d events, encoded %d", got, want)
	}
	return nil
}

// ladderTransport pumps a stream's frames through a loopback TCP
// connection into a reader that discards them, and returns the process
// CPU it took: the socket share of the serve path.
func ladderTransport(frames []byte) (int64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	var wg sync.WaitGroup
	var rerr error
	wg.Add(1)
	cpu0 := cpuNs()
	go func() {
		defer wg.Done()
		conn, err := ln.Accept()
		if err != nil {
			rerr = err
			return
		}
		defer conn.Close()
		r := bufio.NewReaderSize(conn, 1<<16)
		_, rerr = io.Copy(io.Discard, r)
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return 0, err
	}
	for off := 0; off < len(frames); off += 1 << 16 {
		if _, err := conn.Write(frames[off:min(off+1<<16, len(frames))]); err != nil {
			conn.Close()
			wg.Wait()
			return 0, err
		}
	}
	conn.Close()
	wg.Wait()
	return cpuNs() - cpu0, rerr
}

func ladderEtrc(tr *tracer, id int32, evs []trace.Event) error {
	blob, err := encodeEtrc(evs)
	if err != nil {
		return err
	}
	br, err := traceio.NewBinaryReader(bytes.NewReader(blob))
	if err != nil {
		return err
	}
	for done := false; !done; {
		t0 := tr.now()
		n := 0
		for ; n < eventBlock; n++ {
			_, err := br.Next()
			if err == io.EOF {
				done = true
				break
			}
			if err != nil {
				return err
			}
		}
		tr.span("traceio.etrc_decode", id, t0, n)
	}
	return nil
}

// ladderWindow windows the events in blocks of eventBlock, as Run's
// batched path drains them, and notes which block completed each window.
func ladderWindow(tr *tracer, id int32, cfg core.Config, evs []trace.Event) ([]window.Window, []int) {
	wdr := cfg.NewWindower()
	byTime, _ := wdr.(*window.ByTime)
	var wins []window.Window
	var chunkOf []int
	for i := 0; i < len(evs); i += eventBlock {
		block := evs[i:min(i+eventBlock, len(evs))]
		t0 := tr.now()
		for _, ev := range block {
			if w, ok := wdr.Add(ev); ok {
				wins = append(wins, w)
			}
			if byTime != nil {
				for {
					w, ok := byTime.Drain()
					if !ok {
						break
					}
					wins = append(wins, w)
				}
			}
		}
		tr.span("window", id, t0, len(block))
		for len(chunkOf) < len(wins) {
			chunkOf = append(chunkOf, i/eventBlock)
		}
	}
	t0 := tr.now()
	if w, ok := wdr.Flush(); ok {
		wins = append(wins, w)
		chunkOf = append(chunkOf, len(evs)/eventBlock+1)
	}
	tr.span("window", id, t0, 0)
	return wins, chunkOf
}

func ladderPMF(tr *tracer, id int32, learned *core.Learned, wins []window.Window) {
	f := learned.Featurizer
	dst := make([]float64, f.FeatureDim())
	cnt := make([]float64, f.Dim)
	for _, w := range wins {
		t0 := tr.now()
		f.FeaturesInto(dst, cnt, w)
		tr.span("pmf", id, t0, 1)
	}
}

// decision is what the later stages need of one window's verdict.
type decision struct {
	tripped, anomalous bool
	gateDist, lof      float64
	features           []float64 // tripped windows only
}

func ladderCore(tr *tracer, id int32, in *ladderInput, wins []window.Window) ([]decision, error) {
	mon, err := core.NewMonitor(in.cfg, in.learned)
	if err != nil {
		return nil, err
	}
	decs := make([]decision, len(wins))
	for i, w := range wins {
		t0 := tr.now()
		d := mon.ProcessWindow(w)
		name := "core.quiet"
		if d.GateTripped {
			name = "core.trip"
		}
		tr.span(name, id, t0, 1)
		decs[i] = decision{tripped: d.GateTripped, anomalous: d.Anomalous, gateDist: d.GateDist, lof: d.LOF}
		if d.GateTripped {
			decs[i].features = append([]float64(nil), d.Features...)
		}
	}
	return decs, nil
}

// groups collects the tripped windows' indices by the event block that
// completed them: the queries one batched Run step scores together.
func groups(decs []decision, chunkOf []int) [][]int {
	var out [][]int
	last := -1
	for i, d := range decs {
		if !d.tripped {
			continue
		}
		if chunkOf[i] != last || len(out) == 0 {
			out = append(out, nil)
			last = chunkOf[i]
		}
		out[len(out)-1] = append(out[len(out)-1], i)
	}
	return out
}

// ladderLOF scores the tripped windows as the workload's path does:
// ScoreBatch per event block on the fast serve path, Score per query
// otherwise. Before each call it times the distance kernel alone on the
// same queries (the batched log-table kernel, or the exact row kernel),
// so that rows and score are measured under the same conditions. It
// returns the number of scoring calls and how many scores differ from
// the ones ProcessWindow computed.
func ladderLOF(tr *tracer, id int32, in *ladderInput, decs []decision, chunkOf []int) (int64, int) {
	model := in.learned.Model
	rows, dim, n := model.Rows(), model.Dim(), model.Len()
	sc := model.NewScorer()
	bad := 0
	var calls int64
	if !(in.serve && in.cfg.FastKernels && in.cfg.LOFDistance.Name == "symkl") {
		f := distance.RowsOf(in.cfg.LOFDistance)
		out := make([]float64, n)
		for _, d := range decs {
			if !d.tripped {
				continue
			}
			if calls == exactQueryCap {
				break
			}
			t0 := tr.now()
			f(d.features, rows, dim, out)
			tr.span("distance.rows", id, t0, 1)
			t0 = tr.now()
			s := sc.Score(d.features)
			tr.span("lof.score", id, t0, 1)
			calls++
			if s != d.lof {
				bad++
			}
		}
		return calls, bad
	}
	logs := distance.NewLogRows(rows, dim)
	var qs [][]float64
	var qflat, qlogs, dists, out []float64
	for _, g := range groups(decs, chunkOf) {
		qs = qs[:0]
		qflat = qflat[:0]
		for _, i := range g {
			qs = append(qs, decs[i].features)
			qflat = append(qflat, decs[i].features...)
		}
		qlogs = append(qlogs[:0], make([]float64, len(qflat))...)
		dists = append(dists[:0], make([]float64, len(g)*n)...)
		out = append(out[:0], make([]float64, len(g))...)
		t0 := tr.now()
		distance.QueryLogs(qflat, qlogs)
		logs.SymKLRowsBatch(qflat, qlogs, len(g), dists)
		tr.span("distance.rows", id, t0, len(g))
		t0 = tr.now()
		sc.ScoreBatch(qs, out)
		tr.span("lof.score", id, t0, len(g))
		calls++
		for k, i := range g {
			if out[k] != decs[i].lof {
				bad++
			}
		}
	}
	return calls, bad
}

// ladderReplay times the benchmark's own event generation, which the
// end-to-end CPU includes: replaying the segment as the clients do.
func ladderReplay(tr *tracer, id int32, n int, seg *segment) {
	if seg == nil {
		return
	}
	rd := newReplay(seg, int64(n))
	for done := false; !done; {
		t0 := tr.now()
		k := 0
		for ; k < eventBlock; k++ {
			if _, err := rd.Next(); err != nil {
				done = true
				break
			}
		}
		tr.span("bench.replay", id, t0, k)
	}
}

// ladderSizes times traceio.EncodedSize, the per-event byte accounting
// both paths do (serve at ingest, core.Run through its SizeAccountant).
func ladderSizes(tr *tracer, id int32, evs []trace.Event) {
	var total int
	for i := 0; i < len(evs); i += eventBlock {
		block := evs[i:min(i+eventBlock, len(evs))]
		t0 := tr.now()
		for k, ev := range block {
			prev := ev.TS
			if i+k > 0 {
				prev = evs[i+k-1].TS
			}
			total += traceio.EncodedSize(ev, prev, i+k == 0)
		}
		tr.span("traceio.size", id, t0, len(block))
	}
	sizeSink += total
}

// sizeSink keeps the size loop from being optimised away.
var sizeSink int

// ladderObs times Histogram.ObserveNs over one value per event, spread
// over the histogram's range as the serve path's decode, queue-wait and
// end-to-end observations are.
func ladderObs(tr *tracer, id int32, events int) {
	var h obs.Histogram
	for i := 0; i < events; i += eventBlock {
		n := min(eventBlock, events-i)
		t0 := tr.now()
		for k := 0; k < n; k++ {
			h.ObserveNs(int64(100 + ((i+k)*7919)%5_000_000))
		}
		tr.span("obs.observe", id, t0, n)
	}
}

func ladderAlert(tr *tracer, id int32, stream string, decs []decision) (int64, error) {
	p := alert.NewPipeline(alert.Options{
		Sinks: []alert.Sink{alert.NewSlogSink(slog.New(slog.DiscardHandler))},
	})
	s := p.Register(stream, "default")
	for i := 0; i < len(decs); i += alertBlock {
		block := decs[i:min(i+alertBlock, len(decs))]
		t0 := tr.now()
		for k, d := range block {
			s.Observe(alert.Observation{GateTripped: d.tripped, Anomalous: d.anomalous,
				GateDist: d.gateDist, LOF: d.lof, WindowIndex: i + k})
		}
		tr.span("alert.observe", id, t0, len(block))
	}
	s.Close()
	if !p.Drain(10 * time.Second) {
		return 0, fmt.Errorf("ladder alert queue did not drain")
	}
	b := p.Books()
	if err := b.Balanced(); err != nil {
		return 0, err
	}
	return b.Fired + b.Resolved, p.Close()
}

// ladderRecorder records the anomalous windows as the workload does: a
// per-stream .etrc file sink on the serve path, ContextSink(2, 2) over a
// StreamSink offline, where every window is observed.
func ladderRecorder(tr *tracer, id int32, in *ladderInput, stream, dir string, wins []window.Window, decs []decision) (int64, int64, error) {
	var sink recorder.Sink
	var ctx *recorder.ContextSink
	if in.serve {
		factory, err := recorder.NewDirFactory(subdir(dir, "ladder-rec"), -1)
		if err != nil {
			return 0, 0, err
		}
		if sink, err = factory(stream); err != nil {
			return 0, 0, err
		}
	} else {
		ss, err := recorder.NewStreamSink(io.Discard, -1)
		if err != nil {
			return 0, 0, err
		}
		ctx = recorder.NewContextSink(ss, 2, 2)
		sink = ctx
	}
	for i, w := range wins {
		if ctx != nil {
			t0 := tr.now()
			err := ctx.Observe(w)
			tr.span("recorder.record", id, t0, 0)
			if err != nil {
				return 0, 0, err
			}
		}
		if decs[i].anomalous {
			t0 := tr.now()
			err := sink.Record(w)
			tr.span("recorder.record", id, t0, 0)
			if err != nil {
				return 0, 0, err
			}
		}
	}
	t0 := tr.now()
	err := sink.Close()
	tr.span("recorder.record", id, t0, 0)
	return int64(sink.WindowsRecorded()), sink.BytesWritten(), err
}

// ladderStore appends the stream's first gate trips to a fresh anomaly
// store, each with its two preceding windows, as the daemon does.
func ladderStore(tr *tracer, id int32, in *ladderInput, stream, dir string, wins []window.Window, decs []decision) (int64, int64, error) {
	st, err := anomalystore.Open(subdir(dir, "ladder-store"), anomalystore.Options{})
	if err != nil {
		return 0, 0, err
	}
	var n int64
	for i, d := range decs {
		if !d.tripped {
			continue
		}
		if n == storeCapPerStream {
			break
		}
		ctx := wins[max(0, i-2) : i+1]
		t0 := tr.now()
		_, err := st.Append(anomalystore.Incident{
			Stream: stream, Model: "default",
			Wall:  time.Now(),
			Score: d.lof, GateDist: d.gateDist, Alpha: in.cfg.Alpha, Anomalous: d.anomalous,
			WindowIndex: wins[i].Index, Start: wins[i].Start, End: wins[i].End,
			Windows: ctx,
		})
		tr.span("anomalystore.append", id, t0, 1)
		if err != nil {
			st.Close()
			return 0, 0, err
		}
		n++
	}
	bytes := st.Stats().Bytes
	return n, bytes, st.Close()
}
