// Command perfbench is enduratrace's end-to-end benchmark. It runs one
// named workload against the system's public entry points, checks the
// outputs against a reference computation, and prints every metric with
// its unit and sample count; the last stdout line is a JSON object with
// keys correct, attempted, failed and metrics.
//
//	perfbench --workload steady|incident|offline --seed N --seconds S --trace 0|1
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it also
// replays the workload's inputs through each layer's public functions,
// one layer at a time, and prints the per-layer metrics instead. See
// README.md for the workloads, the metrics and how they relate.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"enduratrace/internal/trace"
)

type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	short    bool
	rate     float64
	workdir  string
}

// inputs is everything a run feeds the system, generated from the seed
// before any timing starts.
type inputs struct {
	ref       []trace.Event // clean reference run for core.Learn
	streams   []*segment    // serve workloads: one segment per stream
	perStream int64         // events each stream sends (closed loop: a cap)
	offline   *segment      // offline workload: the monitored trace
	// offlineEvents is the offline trace materialized.
	offlineEvents []trace.Event
}

func main() {
	var o options
	var traceFlag int
	var secs float64
	flag.StringVar(&o.workload, "workload", "", "steady, incident or offline")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&secs, "seconds", 10, "measured run length in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1: traced run printing the per-layer metrics")
	flag.Float64Var(&o.rate, "incident-rate", 100000, "incident's offered load in events/s, all streams together")
	flag.StringVar(&o.workdir, "workdir", ".bench_build", "directory for temporary files and spans")
	flag.Parse()
	o.seconds = time.Duration(secs * float64(time.Second))
	o.trace = traceFlag == 1
	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run executes one benchmark run and writes its report to out.
func run(o options, out io.Writer) error {
	switch o.workload {
	case "steady", "incident", "offline":
	default:
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds <= 0 || o.rate <= 0 {
		return errors.New("--seconds and --incident-rate must be positive")
	}
	dir, err := os.MkdirTemp(o.workdir, "run-"+o.workload+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	meta := newRunMeta(o)
	fmt.Fprintf(os.Stderr, "perfbench: %s seed=%d seconds=%g trace=%v on %q (nproc %d, GOMAXPROCS %d, GOAMD64 %s, %s)\n",
		o.workload, o.seed, o.seconds.Seconds(), o.trace, meta.CPU, meta.NProc, meta.GOMAXPROCS, meta.GOAMD64, meta.GoVersion)

	var wr *workloadResult
	if o.workload == "offline" {
		wr, err = runOfflineWorkload(o, dir)
	} else {
		wr, err = runServeWorkload(o, dir)
	}
	if err != nil {
		return err
	}
	if o.trace {
		lr, err := runLadder(o, dir, wr)
		if err != nil {
			return err
		}
		for k, v := range lr.extra {
			wr.extra[k] = v
		}
		wr.problems = append(wr.problems, lr.problems...)
		wr.metrics = lr.metrics
	}
	res := result{
		Correct:   len(wr.problems) == 0,
		Attempted: wr.attempted,
		Failed:    wr.failed + int64(len(wr.problems)),
	}
	for _, p := range wr.problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", p)
	}
	last := endToEndMetrics
	if o.trace {
		last = wr.metrics.names
	}
	return emit(out, meta, wr.metrics, last, wr.extra, res, wr.problems)
}

// workloadResult is an end-to-end run's outcome.
type workloadResult struct {
	metrics   *metrics
	extra     map[string]any
	problems  []string
	attempted int64
	failed    int64
	// Carried to the traced run.
	cpuNsPerEvent float64
	gcNsPerEvent  float64 // the runtime's GC share of cpuNsPerEvent
	learnS        float64 // median core.Learn time of the set-ups
	serve         *serveRun
	offline       *offlineRun
}

var tmpSeq atomic.Int64

func subdir(dir, name string) string {
	return filepath.Join(dir, fmt.Sprintf("%s-%d", name, tmpSeq.Add(1)))
}
