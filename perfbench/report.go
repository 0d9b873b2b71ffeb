package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	rtmetrics "runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one reported figure: its value, unit and the number of
// samples it was computed from.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// metrics is an insertion-ordered set of named figures.
type metrics struct {
	names []string
	by    map[string]metric
}

func newMetrics() *metrics { return &metrics{by: make(map[string]metric)} }

func (m *metrics) set(name string, value float64, unit string, samples int) {
	if _, ok := m.by[name]; !ok {
		m.names = append(m.names, name)
	}
	if math.IsNaN(value) || math.IsInf(value, 0) {
		value = 0 // JSON has no NaN; a figure with no samples reads 0
	}
	m.by[name] = metric{Value: value, Unit: unit, Samples: samples}
}

func (m *metrics) get(name string) float64 { return m.by[name].Value }

// runMeta is recorded with every result.
type runMeta struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"run_seconds"`
	Trace      bool    `json:"trace"`
	Short      bool    `json:"short"`
	CPU        string  `json:"cpu_model"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GOAMD64    string  `json:"goamd64"`
	GoVersion  string  `json:"go_version"`
	RateEvS    float64 `json:"incident_rate_events_per_s"`
}

func newRunMeta(o options) runMeta {
	m := runMeta{
		Workload:   o.workload,
		Seed:       o.seed,
		Seconds:    o.seconds.Seconds(),
		Trace:      o.trace,
		Short:      o.short,
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOAMD64:    "v1",
		GoVersion:  runtime.Version(),
		RateEvS:    o.rate,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "GOAMD64" {
				m.GOAMD64 = s.Value
			}
		}
	}
	return m
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// result is the benchmark's last stdout line; emit fills Metrics.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEndMetrics are the figures the last line carries with --trace 0,
// as BENCHMARK.json declares them. The decision-latency percentiles and
// failed_frac are printed and kept in the report line but not declared:
// on a shared disk the fsync tail moves decide_p50_ms and decide_p99_ms
// by several times from run to run, and failed_frac is 0 whenever the
// run is correct (its terms are the result's attempted and failed).
var endToEndMetrics = []string{
	"events_per_s", "cpu_ns_per_event", "reduction_x", "recall", "precision",
	"setup_s", "peak_rss_mb",
}

// emit prints the human table and the detailed report line, then the
// result object, holding the named metrics only, as the last line of w.
func emit(w io.Writer, meta runMeta, m *metrics, last []string, extra map[string]any, res result, problems []string) error {
	declared := make(map[string]bool, len(last))
	for _, name := range last {
		declared[name] = true
	}
	for _, name := range m.names {
		mt := m.by[name]
		mark := ""
		if !declared[name] {
			mark = " [reported, not declared]"
		}
		fmt.Fprintf(w, "%-36s %14.6g %-6s (n=%d)%s\n", name, mt.Value, mt.Unit, mt.Samples, mark)
	}
	detail := map[string]any{"meta": meta, "metrics": m.by, "problems": problems}
	for k, v := range extra {
		detail[k] = v
	}
	b, err := json.Marshal(map[string]any{"report": detail})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(b))
	res.Metrics = make(map[string]valueUnit, len(last))
	for _, name := range last {
		mt, ok := m.by[name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", name)
		}
		res.Metrics[name] = valueUnit{mt.Value, mt.Unit}
	}
	b, err = json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// cpuNs returns the process's user+system CPU time in nanoseconds.
func cpuNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// peakMem samples the memory the Go runtime holds for the process —
// everything it has mapped minus what it has released to the OS — every
// 5 ms, and keeps the peak. It leaves out the benchmark's own inputs and
// timestamp tables, which live off the Go heap (see offHeap), so that it
// measures the system under test and not how much input a run replays.
type peakMem struct {
	stop    chan struct{}
	done    chan struct{}
	peak    uint64
	samples int
}

// startPeakMem collects garbage and returns freed memory to the OS, so
// that what set-up left behind does not count, then starts sampling.
func startPeakMem() *peakMem {
	debug.FreeOSMemory()
	p := &peakMem{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		s := []rtmetrics.Sample{
			{Name: "/memory/classes/total:bytes"},
			{Name: "/memory/classes/heap/released:bytes"},
		}
		sample := func() {
			rtmetrics.Read(s)
			if held := s[0].Value.Uint64() - s[1].Value.Uint64(); held > p.peak {
				p.peak = held
			}
			p.samples++
		}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for sample(); ; sample() {
			select {
			case <-p.stop:
				sample()
				return
			case <-tick.C:
			}
		}
	}()
	return p
}

// end takes a last sample, stops sampling and returns the peak in MB and
// the number of samples it is the maximum of.
func (p *peakMem) end() (mb float64, samples int) {
	close(p.stop)
	<-p.done
	return float64(p.peak) / (1 << 20), p.samples
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// nsQuantileMs is quantile over nanosecond samples, in milliseconds.
func nsQuantileMs(ns []int64, q float64) float64 {
	xs := make([]float64, len(ns))
	for i, v := range ns {
		xs[i] = float64(v) / 1e6
	}
	return quantile(xs, q)
}

func seconds(ns int64) float64 { return time.Duration(ns).Seconds() }

// gcCPUNs returns the runtime's estimate of the CPU time spent in garbage
// collection so far, in nanoseconds.
func gcCPUNs() int64 {
	s := []rtmetrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	rtmetrics.Read(s)
	if s[0].Value.Kind() != rtmetrics.KindFloat64 {
		return 0
	}
	return int64(s[0].Value.Float64() * 1e9)
}
