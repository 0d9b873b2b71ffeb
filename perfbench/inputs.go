package main

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"syscall"
	"time"
	"unsafe"

	"enduratrace/internal/mediasim"
	"enduratrace/internal/perturb"
	"enduratrace/internal/trace"
)

// Perturbation schedule of the perturbed workloads (incident, offline):
// factor 3, 10 s perturbed out of every 20 s, the first one 5 s into a
// segment. Segments start and end in a clean phase, so a replayed segment
// continues the schedule seamlessly.
const (
	perturbFactor = 3
	perturbPeriod = 20 * time.Second
	perturbLen    = 10 * time.Second
	perturbFirst  = 5 * time.Second
	// warmCut is simulated and dropped before every segment: the
	// pipeline's prebuffering transient is not part of playback.
	warmCut = 5 * time.Second
	// Scoring slack and warm-up, as in the eval harness.
	scoreSlack  = 5 * time.Second
	scoreWarmup = 5 * time.Second
)

// segment is one pre-simulated stretch of playback. A stream replays it
// end to end any number of times, each replay shifted by period, so the
// simulator stays out of the timed region however many events are sent.
// Events are stored without pointers and off the Go heap (see offHeap).
type segment struct {
	raw    []rawEvent
	pool   payloadPool
	period time.Duration
	// truth holds the perturbations of one replay, in segment time.
	truth []perturb.Interval
}

// rawEvent is a trace.Event whose payload is a length into the shared
// payload pool.
type rawEvent struct {
	ts      time.Duration
	arg     uint32
	typ     trace.EventType
	payload uint16
}

func (s *segment) len() int { return len(s.raw) }

// event returns event i shifted by shift.
func (s *segment) event(i int, shift time.Duration) trace.Event {
	r := s.raw[i]
	ev := trace.Event{TS: r.ts + shift, Type: r.typ, Arg: uint64(r.arg)}
	if r.payload > 0 {
		ev.Payload = s.pool[:r.payload:r.payload]
	}
	return ev
}

// events materializes one replay of the segment.
func (s *segment) events() []trace.Event {
	out := make([]trace.Event, len(s.raw))
	for i := range s.raw {
		out[i] = s.event(i, 0)
	}
	return out
}

// payloadPool backs every event payload: payload bytes are opaque to the
// detector and only their length reaches the encoded size, so one seeded
// buffer replaces the simulator's per-event allocations and keeps the
// inputs small.
type payloadPool []byte

func newPayloadPool(seed int64) payloadPool {
	p := make([]byte, 4096)
	rand.New(rand.NewSource(seed)).Read(p)
	return p
}

// simulate runs the pipeline simulator for warmCut+length of trace time
// and returns the events after the warm-up cut, shifted to start at 0.
func simulate(seed int64, length time.Duration, perturbed bool, pool payloadPool) (*segment, error) {
	cfg := mediasim.DefaultConfig()
	cfg.Seed = seed
	cfg.Duration = warmCut + length
	seg := &segment{period: length, pool: pool}
	if perturbed {
		load, err := perturb.Periodic(perturbFactor, warmCut+perturbFirst, perturbPeriod,
			perturbLen, cfg.Duration)
		if err != nil {
			return nil, err
		}
		cfg.Load = load
		for _, iv := range load.Spans {
			seg.truth = append(seg.truth, perturb.Interval{Start: iv.Start - warmCut, End: iv.End - warmCut})
		}
	}
	sim, err := mediasim.New(cfg)
	if err != nil {
		return nil, err
	}
	seg.raw = make([]rawEvent, 0, int(length.Seconds()*1100))
	for {
		ev, err := sim.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if ev.TS < warmCut {
			continue
		}
		if len(ev.Payload) > len(pool) || ev.Arg > math.MaxUint32 {
			return nil, fmt.Errorf("event %v does not fit the compact segment form", ev)
		}
		seg.raw = append(seg.raw, rawEvent{ts: ev.TS - warmCut, arg: uint32(ev.Arg), typ: ev.Type,
			payload: uint16(len(ev.Payload))})
	}
	if len(seg.raw) == 0 {
		return nil, fmt.Errorf("simulation seed %d produced no events", seed)
	}
	raw, err := offHeap[rawEvent](len(seg.raw))
	if err != nil {
		return nil, err
	}
	copy(raw, seg.raw)
	seg.raw = raw
	return seg, nil
}

// replay yields a segment's events over and over, each pass shifted by
// the segment's period, up to limit events (negative: unbounded). It is a
// Next-only trace.Reader.
type replay struct {
	seg   *segment
	limit int64
	n     int64
	i     int
	shift time.Duration
}

func newReplay(seg *segment, limit int64) *replay { return &replay{seg: seg, limit: limit} }

func (r *replay) Next() (trace.Event, error) {
	if r.limit >= 0 && r.n >= r.limit {
		return trace.Event{}, io.EOF
	}
	if r.i == len(r.seg.raw) {
		r.i = 0
		r.shift += r.seg.period
	}
	ev := r.seg.event(r.i, r.shift)
	r.i++
	r.n++
	return ev, nil
}

// truthUntil repeats the segment's schedule over every replay that
// starts before horizon.
func (s *segment) truthUntil(horizon time.Duration) []perturb.Interval {
	var out []perturb.Interval
	for shift := time.Duration(0); shift < horizon; shift += s.period {
		for _, iv := range s.truth {
			out = append(out, perturb.Interval{Start: iv.Start + shift, End: iv.End + shift})
		}
	}
	return out
}

// nextOnly hides a reader's ReadBatch, forcing Monitor.Run's per-event
// loop.
type nextOnly struct{ r trace.Reader }

func (n nextOnly) Next() (trace.Event, error) { return n.r.Next() }

// Seeds of the simulated runs. The reference run is the deployment's
// training data and the same for every benchmark seed: most of the
// seed-to-seed spread of clean playback's reduction factor comes from
// redrawing the model, not the traffic. The benchmark seed draws the
// monitored streams and the offline trace.
const refSeed = 1

func streamSeed(seed int64, i int) int64 { return seed*1000 + 10 + int64(i) }
func offlineSeed(seed int64) int64       { return seed*1000 + 20 }

// roundUp rounds d up to a whole number of perturbation periods.
func roundUp(d time.Duration) time.Duration {
	n := (d + perturbPeriod - 1) / perturbPeriod
	if n < 1 {
		n = 1
	}
	return n * perturbPeriod
}

// offHeap returns a zeroed slice of n pointer-free Ts in anonymous memory
// outside the Go heap, so that the benchmark's own inputs and timestamp
// tables neither raise the collector's heap goal nor get scanned while
// the system under test runs. Untouched pages stay unbacked. The memory
// lives as long as the process.
func offHeap[T any](n int) ([]T, error) {
	var zero T
	size := int(unsafe.Sizeof(zero)) * n
	if size == 0 {
		return nil, nil
	}
	b, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mapping %d bytes: %w", size, err)
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n), nil
}
