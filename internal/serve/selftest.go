package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"enduratrace/internal/alert"
	"enduratrace/internal/anomalystore"
	"enduratrace/internal/core"
	"enduratrace/internal/mediasim"
	"enduratrace/internal/obs"
	"enduratrace/internal/perturb"
	"enduratrace/internal/recorder"
	"enduratrace/internal/trace"
	"enduratrace/internal/traceio"
	"enduratrace/internal/window"
)

// SelftestOptions configures the loopback load generator.
type SelftestOptions struct {
	// Cfg and Learned as in Options (the single-model path).
	Cfg     core.Config
	Learned *core.Learned
	// Models, when non-nil, serves from this registry instead of
	// Cfg/Learned — the multi-model selftest. ClientModels assigns client
	// i the model name ClientModels[i%len(ClientModels)]: an empty string
	// makes that client send a version 1 frame header (no model field, the
	// pre-registry wire format) and be served by the default model; a
	// non-empty name is sent in a version 2 header. Each client's expected
	// window count is computed with its resolved model's windowing config.
	Models       *core.ModelRegistry
	ClientModels []string
	// ReloadMidRun POSTs /reload to the admin endpoint once the server has
	// scored at least one window with clients still streaming, proving a
	// hot swap under load loses and double-counts nothing (the final books
	// are still checked exactly). Requires a reloadable Models registry
	// (core.LoadModelDir).
	ReloadMidRun bool
	// Clients is the number of concurrent loopback streams (default 4).
	Clients int
	// Duration is each client's simulated horizon (default 30s of trace
	// time; the wall time is however fast the wire and the model go).
	Duration time.Duration
	// SeedBase seeds client i with SeedBase+i (default 100).
	SeedBase int64
	// Factor, when > 1, perturbs each client's pipeline periodically so
	// the streams actually contain anomalies to record.
	Factor float64
	// RejectClients adds this many deliberately doomed clients, each naming
	// a model the registry does not hold. They must all be refused at
	// registration, and the selftest asserts the refusals land in
	// StatsReport.StreamsRejected — the books-balance check for the
	// rejection path.
	RejectClients int
	// Anomalies attaches an anomaly store to the server (see
	// Options.Anomalies). The selftest then asserts that every gate trip
	// was persisted (AnomalyIncidents == GateTrips) with zero store errors.
	// The caller owns and closes the store.
	Anomalies *anomalystore.Store
	// Alerts attaches an alerting pipeline (see Options.Alerts). The
	// selftest then drains the dispatch queue once every stream has
	// closed and asserts the delivery books balance (alert.Books.Balanced)
	// — and, with Anomalies also set, that every transition was persisted
	// (AlertTransitions == fired + resolved) with zero store errors. The
	// caller owns and closes the pipeline.
	Alerts *alert.Pipeline
	// QueueLen, Backpressure, Sinks, Logger as in Options.
	QueueLen     int
	Backpressure Backpressure
	Sinks        recorder.SinkFactory
	Logger       *slog.Logger
}

// ClientReport is one loopback client's send-side accounting.
type ClientReport struct {
	Stream string `json:"stream"`
	// Model is the resolved model name the client's stream was served by
	// (the registry default for v1-framed clients); HeaderV is the frame
	// header version the client sent (1 or 2).
	Model   string `json:"model"`
	HeaderV int    `json:"header_v"`
	Events  int64  `json:"events"`
	Windows int64  `json:"windows"`
}

// SelftestReport is the end-to-end result: send-side counts, the admin
// /stats view fetched over real HTTP, and the per-stream finals. In
// multi-model mode the per-model window counts scraped off /metrics and
// the mid-run reload report are included.
type SelftestReport struct {
	Clients        int                `json:"clients"`
	WallS          float64            `json:"wall_s"`
	EventsSent     int64              `json:"events_sent"`
	WindowsSent    int64              `json:"windows_sent"`
	EventsPerS     float64            `json:"events_per_s"`
	WindowsPerS    float64            `json:"windows_per_s"`
	Stats          StatsReport        `json:"stats"`
	PerClient      []ClientReport     `json:"per_client"`
	Results        []StreamResult     `json:"results"`
	MetricsSamples int                `json:"metrics_samples"`
	ModelWindows   map[string]int64   `json:"model_windows,omitempty"`
	Reload         *core.ReloadReport `json:"reload,omitempty"`
	// Event→decision latency over every event scored, from the server's
	// e2e pipeline histograms (all models merged). EventsObserved is that
	// histogram's total count — with Block backpressure it must equal
	// EventsSent, the proof that latency accounting loses no event.
	EventsObserved uint64  `json:"events_observed"`
	LatencyP50Ms   float64 `json:"latency_p50_ms"`
	LatencyP99Ms   float64 `json:"latency_p99_ms"`
	LatencyP999Ms  float64 `json:"latency_p999_ms"`
	// Alerts is the alerting pipeline's final ledger, set when
	// SelftestOptions.Alerts attached one (asserted balanced).
	Alerts *alert.Books `json:"alerts,omitempty"`
}

// Selftest starts a server on loopback, fans opts.Clients simulated
// mediasim traces through real TCP sockets, waits for every stream to
// drain, fetches /stats over the admin HTTP endpoint, shuts the server
// down and cross-checks the books: the server must have scored exactly
// the windows the clients sent, every stream must have closed cleanly,
// and every sink must have flushed. Any mismatch is an error — this is
// the end-to-end proof that the serving path loses nothing.
func Selftest(ctx context.Context, opts SelftestOptions) (*SelftestReport, error) {
	if opts.Clients <= 0 {
		opts.Clients = 4
	}
	if opts.Duration <= 0 {
		opts.Duration = 30 * time.Second
	}
	if opts.SeedBase == 0 {
		opts.SeedBase = 100
	}

	srv, err := New(Options{
		Models:       opts.Models,
		Cfg:          opts.Cfg,
		Learned:      opts.Learned,
		QueueLen:     opts.QueueLen,
		Backpressure: opts.Backpressure,
		Sinks:        opts.Sinks,
		Anomalies:    opts.Anomalies,
		Alerts:       opts.Alerts,
		Logger:       opts.Logger,
	})
	if err != nil {
		return nil, err
	}
	if err := srv.Listen("127.0.0.1:0", "127.0.0.1:0"); err != nil {
		return nil, err
	}
	serveCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(serveCtx) }()
	adminURL := "http://" + srv.AdminAddr().String()

	// Resolve each client's model up front: the client needs the model's
	// windowing config to predict the exact window count the server must
	// score, and the resolved name to assert the per-model /metrics rows.
	clientModel := make([]string, opts.Clients) // requested (may be "")
	clientResolved := make([]string, opts.Clients)
	clientCfg := make([]core.Config, opts.Clients)
	for i := 0; i < opts.Clients; i++ {
		if len(opts.ClientModels) > 0 {
			clientModel[i] = opts.ClientModels[i%len(opts.ClientModels)]
		}
		nm, err := srv.Models().Resolve(clientModel[i])
		if err != nil {
			return nil, fmt.Errorf("serve: selftest client %d: %w", i, err)
		}
		clientResolved[i], clientCfg[i] = nm.Name, nm.Cfg
	}

	// The reload-under-load choreography: every client sends the first
	// half of its trace, flushes, and parks on the gate; with the whole
	// fleet provably mid-stream the prober POSTs /reload, then opens the
	// gate and the clients send their second halves — so the swap happens
	// with every stream live and in flight. The final books checks below
	// then prove it dropped and double-counted nothing.
	var gate chan struct{}
	var reload *core.ReloadReport
	reloadErr := make(chan error, 1)
	if opts.ReloadMidRun {
		gate = make(chan struct{})
		go func() {
			defer close(gate)
			deadline := obs.Now() + (60 * time.Second).Nanoseconds()
			for {
				var stats StatsReport
				if err := getJSON(adminURL+"/stats", &stats); err == nil &&
					stats.Windows > 0 && stats.StreamsLive == opts.Clients {
					break
				}
				if obs.Now() > deadline {
					reloadErr <- fmt.Errorf("serve: selftest reload: server never under load")
					return
				}
				time.Sleep(5 * time.Millisecond)
			}
			var rep core.ReloadReport
			if err := postJSON(adminURL+"/reload", &rep); err != nil {
				reloadErr <- fmt.Errorf("serve: selftest POST /reload: %w", err)
				return
			}
			reload = &rep
			reloadErr <- nil
		}()
	} else {
		reloadErr <- nil
	}

	// The doomed clients run first: each names a model that cannot exist,
	// must be refused at registration, and must observe the refusal as the
	// server closing the connection. Their count is asserted against
	// StatsReport.StreamsRejected after the run — a rejection the books
	// don't show is exactly the accounting bug the reject path had.
	for i := 0; i < opts.RejectClients; i++ {
		if err := runRejectClient(srv.TraceAddr().String(), fmt.Sprintf("selftest-reject-%02d", i)); err != nil {
			return nil, fmt.Errorf("serve: selftest reject client %d: %w", i, err)
		}
	}

	start := obs.Now()
	reports := make([]ClientReport, opts.Clients)
	errs := make([]error, opts.Clients)
	var wg sync.WaitGroup
	for i := 0; i < opts.Clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := fmt.Sprintf("selftest-%02d", i)
			rep, err := runClient(srv.TraceAddr().String(), name, clientCfg[i], clientModel[i], opts, opts.SeedBase+int64(i), gate)
			rep.Model = clientResolved[i]
			reports[i], errs[i] = rep, err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("serve: selftest client %d: %w", i, err)
		}
	}
	if err := <-reloadErr; err != nil {
		return nil, err
	}

	if err := awaitClosedStreams(ctx, adminURL, opts.Clients); err != nil {
		return nil, err
	}
	wall := time.Duration(obs.Now() - start)

	var stats StatsReport
	if err := getJSON(adminURL+"/stats", &stats); err != nil {
		return nil, fmt.Errorf("serve: selftest /stats: %w", err)
	}
	var health healthReport
	if err := getJSON(adminURL+"/healthz", &health); err != nil {
		return nil, fmt.Errorf("serve: selftest /healthz: %w", err)
	}
	if health.Status != "ok" {
		return nil, fmt.Errorf("serve: selftest health %q", health.Status)
	}
	// Scrape /metrics over real HTTP with every stream folded into the
	// per-model totals: the body must parse as Prometheus text, and the
	// per-model window rows are cross-checked against the send-side books
	// below.
	metricsBody, err := getBody(adminURL + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("serve: selftest /metrics: %w", err)
	}
	nSamples, err := ValidatePrometheusText(metricsBody)
	if err != nil {
		return nil, fmt.Errorf("serve: selftest /metrics is not valid Prometheus text: %w", err)
	}
	modelWindows, err := scrapeModelWindows(metricsBody)
	if err != nil {
		return nil, fmt.Errorf("serve: selftest /metrics: %w", err)
	}
	// Merge every model's stage histograms for the latency report and the
	// latency books. All streams have drained and closed, so the
	// snapshots are final.
	var decode, queueWait, e2e obs.Snapshot
	for _, p := range srv.pipelines() {
		decode.Merge(p.Decode.Snapshot())
		queueWait.Merge(p.QueueWait.Snapshot())
		e2e.Merge(p.E2E.Snapshot())
	}

	cancel()
	if err := <-serveErr; err != nil {
		return nil, fmt.Errorf("serve: selftest server: %w", err)
	}

	rep := &SelftestReport{
		Clients:        opts.Clients,
		WallS:          wall.Seconds(),
		Stats:          stats,
		PerClient:      reports,
		Results:        srv.Results(),
		MetricsSamples: nSamples,
		ModelWindows:   modelWindows,
		Reload:         reload,
	}
	for _, c := range reports {
		rep.EventsSent += c.Events
		rep.WindowsSent += c.Windows
	}
	if wall > 0 {
		rep.EventsPerS = float64(rep.EventsSent) / wall.Seconds()
		rep.WindowsPerS = float64(rep.WindowsSent) / wall.Seconds()
	}
	rep.EventsObserved = e2e.Count()
	rep.LatencyP50Ms = e2e.Quantile(0.50) * 1e3
	rep.LatencyP99Ms = e2e.Quantile(0.99) * 1e3
	rep.LatencyP999Ms = e2e.Quantile(0.999) * 1e3

	// Latency books: every stage observes each event exactly once, in
	// runs of equal values — decode as it is ingested, queue wait as it is
	// popped, e2e at the decision on its window. Decode's count must equal
	// the events sent; queue wait's and e2e's the events scored, which is
	// the events sent less the counted drops (none under Block).
	scored := uint64(rep.EventsSent - stats.DroppedEvents)
	for _, b := range []struct {
		stage     string
		got, want uint64
	}{
		{"decode", decode.Count(), uint64(rep.EventsSent)},
		{"queue-wait", queueWait.Count(), scored},
		{"e2e", rep.EventsObserved, scored},
	} {
		if b.got != b.want {
			return rep, fmt.Errorf("serve: selftest %s histogram observed %d events, want %d (sent %d, dropped %d)",
				b.stage, b.got, b.want, rep.EventsSent, stats.DroppedEvents)
		}
	}

	// The cross-check: nothing sent may be missing from the books. Under
	// DropOldest, configured-and-counted drops legitimately lower the
	// scored window count — the books must still balance to "not more
	// than sent, and short only when drops are on record".
	if opts.Backpressure == DropOldest && stats.DroppedEvents > 0 {
		if stats.Windows > rep.WindowsSent {
			return rep, fmt.Errorf("serve: selftest scored %d windows > %d sent",
				stats.Windows, rep.WindowsSent)
		}
	} else if stats.Windows != rep.WindowsSent {
		return rep, fmt.Errorf("serve: selftest scored %d windows, clients sent %d",
			stats.Windows, rep.WindowsSent)
	}
	if stats.StreamsClosed != opts.Clients || stats.StreamsLive != 0 {
		return rep, fmt.Errorf("serve: selftest streams closed=%d live=%d, want %d/0",
			stats.StreamsClosed, stats.StreamsLive, opts.Clients)
	}
	byStream := make(map[string]ClientReport, len(reports))
	for _, c := range reports {
		byStream[c.Stream] = c
	}
	for _, res := range rep.Results {
		c, ok := byStream[res.ID]
		if !ok {
			return rep, fmt.Errorf("serve: selftest unexpected stream %q", res.ID)
		}
		if res.Model != c.Model {
			return rep, fmt.Errorf("serve: selftest stream %q served by model %q, client resolved %q",
				res.ID, res.Model, c.Model)
		}
		if !res.Clean {
			return rep, fmt.Errorf("serve: selftest stream %q did not close cleanly: %s", res.ID, res.Err)
		}
		if res.DroppedEvents > 0 && opts.Backpressure == DropOldest {
			if int64(res.Windows) > c.Windows {
				return rep, fmt.Errorf("serve: selftest stream %q scored %d windows > %d sent",
					res.ID, res.Windows, c.Windows)
			}
		} else if int64(res.Windows) != c.Windows {
			return rep, fmt.Errorf("serve: selftest stream %q scored %d windows, client sent %d",
				res.ID, res.Windows, c.Windows)
		}
	}

	// Per-model books off the /metrics labels: each model's cumulative
	// window row must equal the windows sent by the clients resolved to
	// it (same drop-oldest caveat as the aggregate check above).
	wantByModel := make(map[string]int64)
	for _, c := range reports {
		wantByModel[c.Model] += c.Windows
	}
	for model, want := range wantByModel {
		got, ok := modelWindows[model]
		if !ok {
			return rep, fmt.Errorf("serve: selftest /metrics has no windows_total row for model %q", model)
		}
		if opts.Backpressure == DropOldest && stats.DroppedEvents > 0 {
			if got > want {
				return rep, fmt.Errorf("serve: selftest model %q scored %d windows > %d sent", model, got, want)
			}
		} else if got != want {
			return rep, fmt.Errorf("serve: selftest model %q scored %d windows, clients sent %d", model, got, want)
		}
	}
	if opts.ReloadMidRun && (reload == nil || reload.Generation < 1) {
		return rep, fmt.Errorf("serve: selftest reload-under-load did not record a successful reload")
	}

	// Rejection books: every doomed client must be on record, as an
	// unknown-model refusal, and nothing else may have been refused.
	if stats.StreamsRejected != int64(opts.RejectClients) ||
		stats.RejectedUnknownModel != int64(opts.RejectClients) {
		return rep, fmt.Errorf("serve: selftest rejected %d streams (%d unknown-model), want %d",
			stats.StreamsRejected, stats.RejectedUnknownModel, opts.RejectClients)
	}

	// Alert books: with a pipeline attached, every stream has closed (so
	// the state machines are quiet), the dispatch queue must drain, and
	// the delivery ledger must balance — fired + resolved == deduped +
	// rate-limited + queue-dropped + enqueued, with every enqueued
	// notification in exactly one per-sink bucket.
	if opts.Alerts != nil {
		if !opts.Alerts.Drain(10 * time.Second) {
			return rep, fmt.Errorf("serve: selftest alert queue did not drain")
		}
		b := opts.Alerts.Books()
		rep.Alerts = &b
		if err := b.Balanced(); err != nil {
			return rep, fmt.Errorf("serve: selftest %w", err)
		}
		if stats.AlertsFiring != 0 {
			return rep, fmt.Errorf("serve: selftest %d streams still firing after close", stats.AlertsFiring)
		}
		if opts.Anomalies != nil {
			if stats.AlertStoreErrors != 0 {
				return rep, fmt.Errorf("serve: selftest alert store reported %d append errors",
					stats.AlertStoreErrors)
			}
			if want := b.Fired + b.Resolved; stats.AlertTransitions != want {
				return rep, fmt.Errorf("serve: selftest persisted %d alert transitions, pipeline emitted %d",
					stats.AlertTransitions, want)
			}
		}
	}

	// Anomaly store books: with a store attached, every gate trip must
	// have been persisted as an incident and no append may have failed.
	// Alert transitions (window-free records) ride the same store.
	if opts.Anomalies != nil {
		if stats.AnomalyStoreErrors != 0 {
			return rep, fmt.Errorf("serve: selftest anomaly store reported %d append errors",
				stats.AnomalyStoreErrors)
		}
		if stats.AnomalyIncidents != stats.GateTrips {
			return rep, fmt.Errorf("serve: selftest persisted %d incidents, server tripped %d gates",
				stats.AnomalyIncidents, stats.GateTrips)
		}
		if st := opts.Anomalies.Stats(); st.Appended != stats.AnomalyIncidents+stats.AlertTransitions {
			return rep, fmt.Errorf("serve: selftest store holds %d appended records, server counted %d incidents + %d alert transitions",
				st.Appended, stats.AnomalyIncidents, stats.AlertTransitions)
		}
	}
	return rep, nil
}

// runRejectClient dials the server, names a model no registry holds, and
// waits for the server to refuse the stream by closing the connection (the
// read unblocks with EOF). The rejection counter is bumped before the
// server closes the socket, so the caller may assert it immediately.
func runRejectClient(addr, name string) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	fw, err := traceio.NewFrameWriterModel(conn, name, "selftest-no-such-model")
	if err != nil {
		return err
	}
	if err := fw.Flush(); err != nil { // push the header to the server
		return err
	}
	//lint:ignore monotime net deadlines are wall-clock time.Time by API contract
	conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	var buf [1]byte
	if _, err := conn.Read(buf[:]); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		return fmt.Errorf("server did not close the rejected stream (read err %v)", err)
	}
	return nil
}

// runClient streams one simulated pipeline run to the server, counting
// events and (via a local windower identical to the server's) the windows
// the server must end up scoring. model selects the frame-header version:
// "" sends a v1 header (served by the default model), a name sends v2.
// A non-nil gate makes the client flush and park at its trace midpoint
// until the gate closes — the reload-under-load choreography.
func runClient(addr, name string, cfg core.Config, model string, opts SelftestOptions, seed int64, gate <-chan struct{}) (ClientReport, error) {
	rep := ClientReport{Stream: name, HeaderV: 1}
	if model != "" {
		rep.HeaderV = 2
	}
	sc := mediasim.DefaultConfig()
	sc.Duration = opts.Duration
	sc.Seed = seed
	if opts.Factor > 1 {
		load, err := perturb.Periodic(opts.Factor, opts.Duration/4, opts.Duration/2,
			opts.Duration/10, opts.Duration)
		if err != nil {
			return rep, err
		}
		sc.Load = load
	}
	sim, err := mediasim.New(sc)
	if err != nil {
		return rep, err
	}

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return rep, err
	}
	defer conn.Close()
	fw, err := traceio.NewFrameWriterModel(conn, name, model)
	if err != nil {
		return rep, err
	}

	// Tee: every event goes to the socket and to a local windower with the
	// exact server-side windowing semantics (window.Stream mirrors
	// Monitor.Run's Add/Drain/Flush loop), so the expected window count is
	// computed, not guessed.
	wdr := cfg.NewWindower()
	tee := &teeReader{r: sim, w: fw, events: &rep.Events, gate: gate, pauseAt: opts.Duration / 2}
	err = window.Stream(tee, wdr, func(window.Window) error {
		rep.Windows++
		return nil
	})
	if err != nil {
		return rep, err
	}
	if err := fw.Close(); err != nil {
		return rep, err
	}
	return rep, nil
}

// teeReader forwards every event it yields to a trace writer (the wire).
// With a gate set, the first event at or past pauseAt flushes the wire
// and blocks until the gate closes, leaving the stream live and half-sent.
type teeReader struct {
	r       interface{ Next() (trace.Event, error) }
	w       *traceio.FrameWriter
	events  *int64
	gate    <-chan struct{}
	pauseAt time.Duration
	paused  bool
}

func (t *teeReader) Next() (trace.Event, error) {
	ev, err := t.r.Next()
	if err != nil {
		return ev, err
	}
	if t.gate != nil && !t.paused && ev.TS >= t.pauseAt {
		t.paused = true
		if err := t.w.Flush(); err != nil {
			return ev, err
		}
		<-t.gate
	}
	if err := t.w.Write(ev); err != nil {
		return ev, err
	}
	*t.events++
	return ev, nil
}

// awaitClosedStreams polls /stats until every client stream has drained
// and closed, or the context/timeout gives up.
func awaitClosedStreams(ctx context.Context, adminURL string, want int) error {
	deadline := obs.Now() + (60 * time.Second).Nanoseconds()
	for {
		var stats StatsReport
		if err := getJSON(adminURL+"/stats", &stats); err == nil {
			if stats.StreamsClosed >= want && stats.StreamsLive == 0 {
				return nil
			}
		}
		if obs.Now() > deadline {
			return fmt.Errorf("serve: selftest streams did not drain within 60s")
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(20 * time.Millisecond):
		}
	}
}

func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// postJSON POSTs an empty body and decodes the JSON response.
func postJSON(url string, v any) error {
	resp, err := http.Post(url, "", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("POST %s: %s: %s", url, resp.Status, strings.TrimSpace(string(body)))
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// getBody fetches a URL's body.
func getBody(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return io.ReadAll(resp.Body)
}

// scrapeModelWindows extracts the enduratrace_windows_total{model="X"}
// samples from a /metrics body.
func scrapeModelWindows(body []byte) (map[string]int64, error) {
	out := make(map[string]int64)
	const prefix = `enduratrace_windows_total{model="`
	for _, line := range strings.Split(string(body), "\n") {
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		rest := line[len(prefix):]
		end := strings.Index(rest, `"`)
		if end < 0 {
			return nil, fmt.Errorf("malformed metric line %q", line)
		}
		model := rest[:end]
		fields := strings.Fields(rest[end+2:])
		if len(fields) == 0 {
			return nil, fmt.Errorf("malformed metric line %q", line)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("malformed metric value in %q: %w", line, err)
		}
		out[model] = int64(v)
	}
	return out, nil
}
