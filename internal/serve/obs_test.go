package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand/v2"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"enduratrace/internal/core"
	"enduratrace/internal/mediasim"
	"enduratrace/internal/obs"
	"enduratrace/internal/trace"
)

// TestLoggerTimestamps pins the slog migration's headline fix: both log
// formats must stamp every line with wall-clock time. (The pre-slog
// logger was built with flag 0 — no timestamps — so serve logs could not
// be correlated with client logs or packet captures.)
func TestLoggerTimestamps(t *testing.T) {
	cfg, learned := fixture(t)
	year := time.Now().UTC().Format("2006")

	for _, format := range []string{"text", "json"} {
		var buf bytes.Buffer
		logger, err := NewLogger(&buf, format)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := New(Options{Cfg: cfg, Learned: learned, Logger: logger})
		if err != nil {
			t.Fatal(err)
		}
		// A non-directory registry cannot reload; the failure is logged.
		if _, err := srv.Reload(); err == nil {
			t.Fatal("Reload on a non-directory registry succeeded")
		}
		line := strings.TrimSpace(buf.String())
		if line == "" {
			t.Fatalf("%s: reload failure logged nothing", format)
		}
		if !strings.Contains(line, "reload failed") {
			t.Fatalf("%s: log line %q does not mention the failure", format, line)
		}
		switch format {
		case "text":
			if !strings.Contains(line, "time="+year) {
				t.Fatalf("text log line has no timestamp: %q", line)
			}
		case "json":
			var rec struct {
				Time time.Time `json:"time"`
				Msg  string    `json:"msg"`
			}
			if err := json.Unmarshal([]byte(line), &rec); err != nil {
				t.Fatalf("json log line does not parse: %q: %v", line, err)
			}
			if rec.Time.IsZero() {
				t.Fatalf("json log line has no timestamp: %q", line)
			}
		}
	}

	if _, err := NewLogger(&bytes.Buffer{}, "yaml"); err == nil {
		t.Fatal("NewLogger accepted an unknown format")
	}
}

// TestQueuePathZeroAlloc is the allocation gate for the instrumented
// queue: PushBatch, Next (with queue-wait observation and arrival
// tracking) and the decision-side drain must not allocate in steady
// state — latency accounting may not cost the event path its
// allocation-free property.
func TestQueuePathZeroAlloc(t *testing.T) {
	q := newEventQueue(64, Block)
	var pipe obs.Pipeline
	q.instrument(&pipe)
	evs := []trace.Event{{TS: time.Millisecond, Type: 1, Arg: 64}}

	var seq uint64
	step := func() {
		seq++
		q.PushBatch(evs, obs.Now(), 500, seq, 0)
		if _, err := q.Next(); err != nil {
			t.Fatal(err)
		}
		q.observeArrivals(obs.Now())
	}
	step() // warm the cond/rings
	if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
		t.Errorf("instrumented push/pop/drain allocates %v/op, want 0", allocs)
	}
	if got := pipe.QueueWait.Snapshot().Count(); got == 0 {
		t.Error("queue-wait histogram observed nothing")
	}
	if got := pipe.E2E.Snapshot().Count(); got == 0 {
		t.Error("e2e histogram observed nothing")
	}
}

// perEventObserver observes every stage value on its own: one ObserveNs
// per event per stage, with every popped event's arrival time held until
// the next decision. It is the reference the per-run path must reproduce
// exactly.
type perEventObserver struct {
	pipe     obs.Pipeline
	arrivals []int64
}

func (r *perEventObserver) decoded(share int64, n int) {
	for i := 0; i < n; i++ {
		r.pipe.Decode.ObserveNs(share)
	}
}

func (r *perEventObserver) popped(now int64, enqs []int64) {
	for _, enq := range enqs {
		r.pipe.QueueWait.ObserveNs(now - enq)
		r.arrivals = append(r.arrivals, enq)
	}
}

func (r *perEventObserver) decided(now int64) {
	for _, enq := range r.arrivals {
		r.pipe.E2E.ObserveNs(now - enq)
	}
	r.arrivals = r.arrivals[:0]
}

// TestPerRunObservationMatchesPerEvent records one stream's decode shares,
// arrival times, pops and decisions, feeds them through the serve path's
// per-run observation (ObserveNsN per ingest batch, the instrumented
// queue's ReadBatch/Next, observeArrivals) and through the per-event
// reference, and requires the two pipelines' snapshots to be identical.
// The stream has batches split across pops, several batches per pop,
// single-event pops through Next, waits that clamp (arrival stamped after
// the pop) or overflow, and decisions at arbitrary points.
func TestPerRunObservationMatchesPerEvent(t *testing.T) {
	rng := rand.New(rand.NewPCG(12, 34))
	var pipe obs.Pipeline
	var ref perEventObserver
	q := newEventQueue(4096, Block)
	q.instrument(&pipe)

	var queued []int64 // arrival times of queued events, FIFO
	dst := make([]trace.Event, 512)
	offsets := []int64{-5_000, 0, 1, 999, 2_000, 250_000, int64(30 * time.Second)}
	pop := func() {
		if rng.IntN(4) == 0 {
			if _, err := q.Next(); err != nil {
				t.Fatal(err)
			}
			_, now := q.LastTimes()
			ref.popped(now, queued[:1])
			queued = queued[1:]
			return
		}
		k, err := q.ReadBatch(dst[:1+rng.IntN(len(dst))])
		if err != nil {
			t.Fatal(err)
		}
		_, now := q.LastTimes()
		ref.popped(now, queued[:k])
		queued = queued[k:]
	}
	decide := func() {
		now := obs.Now()
		q.observeArrivals(now)
		ref.decided(now)
	}

	var seq uint64
	var sent int
	for step := 0; step < 2000; step++ {
		n := 1 + rng.IntN(256)
		evs := make([]trace.Event, n)
		for i := range evs {
			evs[i] = trace.Event{TS: time.Duration(seq) + time.Duration(i+1), Type: trace.EventType(i % 5)}
		}
		enq := obs.Now() - offsets[rng.IntN(len(offsets))] - rng.Int64N(1_000_000)
		share := rng.Int64N(3_000) - 3 // a few negative shares clamp too
		pipe.Decode.ObserveNsN(share, n)
		ref.decoded(share, n)
		if !q.PushBatch(evs, enq, share, seq+1, 64) {
			t.Fatal("PushBatch returned false on an open queue")
		}
		for range n {
			queued = append(queued, enq)
		}
		seq += uint64(n)
		sent += n
		for len(queued) > 3000 || (len(queued) > 0 && rng.IntN(3) == 0) {
			pop()
			if rng.IntN(5) == 0 {
				decide()
			}
		}
	}
	for len(queued) > 0 {
		pop()
	}
	decide()

	got, want := pipe.Snapshot(), ref.pipe.Snapshot()
	for _, st := range []struct {
		name      string
		got, want obs.Snapshot
	}{
		{"decode", got.Decode, want.Decode},
		{"queue-wait", got.QueueWait, want.QueueWait},
		{"e2e", got.E2E, want.E2E},
	} {
		if !reflect.DeepEqual(st.got, st.want) {
			t.Errorf("%s: per-run snapshot %+v, per-event %+v", st.name, st.got, st.want)
		}
		if c := st.got.Count(); c != uint64(sent) {
			t.Errorf("%s: count %d, want %d events", st.name, c, sent)
		}
	}
}

// TestE2ECountsEveryEventOfAHugeWindow: with count windows of 100 000
// events, one window holds more events than the arrival buffer holds
// runs, and the e2e histogram must still count every event scored. The
// selftest asserts decode, queue wait and e2e _count against the books.
func TestE2ECountsEveryEventOfAHugeWindow(t *testing.T) {
	const windowEvents = 100_000
	cfg := core.NewConfig(mediasim.NumEventTypes)
	cfg.WindowDuration = 0
	cfg.WindowCount = windowEvents
	cfg.K = 3
	cfg.FastKernels = true
	ref := mediasim.DefaultConfig()
	ref.Duration = 500 * time.Second // ~1 kHz: five reference windows
	ref.Seed = 9
	sim, err := mediasim.New(ref)
	if err != nil {
		t.Fatal(err)
	}
	learned, err := core.Learn(cfg, sim)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Selftest(context.Background(), SelftestOptions{
		Cfg:      cfg,
		Learned:  learned,
		Clients:  1,
		Duration: 150 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.EventsSent <= windowEvents {
		t.Fatalf("client sent %d events, want more than one %d-event window", rep.EventsSent, windowEvents)
	}
	if rep.EventsObserved != uint64(rep.EventsSent) {
		t.Fatalf("e2e histogram observed %d events, %d scored", rep.EventsObserved, rep.EventsSent)
	}
}

// TestWriteMetricsHistograms: the scrape must expose the four pipeline
// stage families as valid Prometheus histograms (the validator enforces
// bucket monotonicity and the +Inf == _count invariant), plus the runtime
// gauges and the stall gauge.
func TestWriteMetricsHistograms(t *testing.T) {
	cfg, learned := fixture(t)
	srv, err := New(Options{Cfg: cfg, Learned: learned})
	if err != nil {
		t.Fatal(err)
	}
	pipe := srv.pipelineFor("default")
	for i := 1; i <= 1000; i++ {
		d := time.Duration(i) * 10 * time.Microsecond
		pipe.Decode.Observe(d)
		pipe.QueueWait.Observe(d / 2)
		pipe.Score.Observe(d / 4)
		pipe.E2E.Observe(d * 2)
	}
	pipe.E2E.Observe(100 * time.Second) // lands in the overflow bin

	var buf bytes.Buffer
	if err := srv.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	if _, err := ValidatePrometheusText(buf.Bytes()); err != nil {
		t.Fatalf("scrape does not validate: %v", err)
	}
	for _, want := range []string{
		`# TYPE enduratrace_pipeline_decode_seconds histogram`,
		`# TYPE enduratrace_pipeline_queue_wait_seconds histogram`,
		`# TYPE enduratrace_pipeline_score_seconds histogram`,
		`# TYPE enduratrace_pipeline_e2e_seconds histogram`,
		`enduratrace_pipeline_e2e_seconds_bucket{model="default",le="+Inf"} 1001`,
		`enduratrace_pipeline_e2e_seconds_count{model="default"} 1001`,
		`enduratrace_streams_stalled 0`,
		`# TYPE enduratrace_goroutines gauge`,
		`# TYPE enduratrace_heap_alloc_bytes gauge`,
		`# TYPE enduratrace_gc_pause_seconds_total counter`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("scrape is missing %q", want)
		}
	}
}

// TestValidatePrometheusTextHistogramInvariants: the validator must
// reject expositions whose histogram families break the format's
// invariants, not just malformed lines.
func TestValidatePrometheusTextHistogramInvariants(t *testing.T) {
	cases := []struct {
		name, body, wantErr string
	}{
		{"non-cumulative buckets", `# TYPE h histogram
h_bucket{le="1"} 5
h_bucket{le="2"} 3
h_bucket{le="+Inf"} 5
h_sum 1
h_count 5
`, "not cumulative"},
		{"missing +Inf", `# TYPE h histogram
h_bucket{le="1"} 5
h_sum 1
h_count 5
`, "+Inf"},
		{"count mismatch", `# TYPE h histogram
h_bucket{le="1"} 5
h_bucket{le="+Inf"} 5
h_sum 1
h_count 7
`, "_count"},
		{"missing sum", `# TYPE h histogram
h_bucket{le="1"} 5
h_bucket{le="+Inf"} 5
h_count 5
`, "_sum"},
		{"duplicate bucket", `# TYPE h histogram
h_bucket{le="1"} 5
h_bucket{le="1"} 5
h_bucket{le="+Inf"} 5
h_sum 1
h_count 5
`, "duplicate"},
	}
	for _, c := range cases {
		if _, err := ValidatePrometheusText([]byte(c.body)); err == nil ||
			!strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: err = %v, want mention of %q", c.name, err, c.wantErr)
		}
	}
	// A well-formed histogram with two label sets must pass.
	good := `# TYPE h histogram
h_bucket{model="a",le="1"} 2
h_bucket{model="a",le="+Inf"} 3
h_sum{model="a"} 1.5
h_count{model="a"} 3
h_bucket{le="+Inf",model="b"} 0
h_sum{model="b"} 0
h_count{model="b"} 0
`
	if n, err := ValidatePrometheusText([]byte(good)); err != nil || n != 7 {
		t.Fatalf("good histogram: n=%d err=%v", n, err)
	}
}

// TestDebugFlightEndpoint: the admin mux must serve the flight recorder's
// books and records, and 404 with an explanation when sampling is
// disabled. Also covers the pprof gate: the profile endpoints exist only
// with EnablePprof.
func TestDebugFlightEndpoint(t *testing.T) {
	cfg, learned := fixture(t)
	srv, err := New(Options{Cfg: cfg, Learned: learned, EnablePprof: true})
	if err != nil {
		t.Fatal(err)
	}
	srv.flight.Add(obs.Record{Stream: "s1", Model: "default", Seq: 256, E2ENs: 12345})

	ts := httptest.NewServer(srv.adminMux())
	defer ts.Close()

	var rep flightReport
	if err := getJSON(ts.URL+"/debug/flight", &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Stats.Every != DefaultFlightEvery || rep.Stats.Capacity != DefaultFlightCap {
		t.Fatalf("flight stats %+v, want every=%d cap=%d", rep.Stats, DefaultFlightEvery, DefaultFlightCap)
	}
	if len(rep.Records) != 1 || rep.Records[0].Stream != "s1" || rep.Records[0].E2ENs != 12345 {
		t.Fatalf("flight records %+v", rep.Records)
	}
	if body, err := getBody(ts.URL + "/debug/pprof/cmdline"); err != nil || len(body) == 0 {
		t.Fatalf("pprof cmdline: %v (%d bytes)", err, len(body))
	}

	// Disabled sampling: no recorder, endpoint explains itself; pprof off
	// by default.
	srvOff, err := New(Options{Cfg: cfg, Learned: learned, FlightEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if srvOff.Flight() != nil {
		t.Fatal("negative FlightEvery still built a recorder")
	}
	tsOff := httptest.NewServer(srvOff.adminMux())
	defer tsOff.Close()
	if _, err := getBody(tsOff.URL + "/debug/flight"); err == nil {
		t.Fatal("GET /debug/flight succeeded with sampling disabled")
	}
	if _, err := getBody(tsOff.URL + "/debug/pprof/cmdline"); err == nil {
		t.Fatal("pprof served without EnablePprof")
	}
}
