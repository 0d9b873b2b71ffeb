package serve

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"enduratrace/internal/obs"
	"enduratrace/internal/trace"
)

// Backpressure selects what an ingester does when a stream's bounded
// event queue is full.
type Backpressure int

const (
	// Block stalls the ingest goroutine until the scorer catches up; the
	// stall propagates to the client through TCP flow control, so a slow
	// model slows the sender instead of losing data.
	Block Backpressure = iota
	// DropOldest discards the oldest queued event to admit the new one,
	// bounding client-visible latency at the cost of holes in the scored
	// stream; the drop count is reported per stream.
	DropOldest
)

// String implements fmt.Stringer with the flag spelling.
func (b Backpressure) String() string {
	switch b {
	case Block:
		return "block"
	case DropOldest:
		return "drop-oldest"
	default:
		return fmt.Sprintf("Backpressure(%d)", int(b))
	}
}

// ParseBackpressure parses the -backpressure flag value.
func ParseBackpressure(s string) (Backpressure, error) {
	switch s {
	case "block":
		return Block, nil
	case "drop-oldest":
		return DropOldest, nil
	default:
		return 0, fmt.Errorf("serve: unknown backpressure policy %q (want block or drop-oldest)", s)
	}
}

// eventQueue is the bounded handoff between a stream's ingest goroutine
// (socket → decode) and its scoring goroutine (window → gate → LOF →
// record). It implements trace.BatchReader on the consumer side (so
// core.Monitor.Run drains it in whole-batch passes); Next and ReadBatch
// return io.EOF once the queue is closed and drained, so a run over the
// queue terminates cleanly whatever ended ingestion.
//
// All four counters move under the queue mutex and are read together via
// Counters(), so any observer sees a consistent snapshot obeying
//
//	ingested == scored + dropped + depth
//
// at all times — in particular, drops observed mid-drain always equal the
// drops in the final per-stream totals. (An earlier revision bumped the
// scored counter outside the lock, so a concurrent /stats read could
// catch an event that had left the buffer but was not yet counted
// anywhere; TestEventQueueCountersConsistentUnderRace pins the fix.)
type eventQueue struct {
	mu       sync.Mutex
	notFull  sync.Cond
	notEmpty sync.Cond
	buf      []trace.Event // ring buffer
	head     int
	n        int
	closed   bool
	policy   Backpressure

	dropped  int64 //enduratrace:guarded-by mu
	ingested int64 //enduratrace:guarded-by mu
	scored   int64 //enduratrace:guarded-by mu

	// Instrumentation (instrument() turns it on; nil/zero otherwise).
	// meta rides the ring in parallel with buf: per-event enqueue
	// timestamp, decode duration, stream ordinal and flight-sample flag.
	meta []evMeta
	pipe *obs.Pipeline // per-model stage histograms (QueueWait observed at pop)

	// lastPushNs/lastPopNs feed the stall watchdog: the monotonic time
	// (obs.Now) of the most recent enqueue and dequeue. Atomics so the
	// admin endpoints can read them against a live queue.
	lastPushNs atomic.Int64
	lastPopNs  atomic.Int64

	// Consumer-side state, owned by the scoring goroutine (the only
	// caller of Next, ReadBatch, observeArrivals and takeFlight): the
	// arrival runs of events popped since the last window decision
	// (drained into the E2E histogram by the decision callback), the most
	// recent flight-sampled event awaiting its window's decision, and the
	// scratch metadata slice ReadBatch copies into under the lock so the
	// observation work can happen after unlock.
	pending     []arrivalRun
	flightSlot  poppedMeta
	hasFlight   bool
	flightSkips int
	popMetas    []evMeta
}

// evMeta is the per-event instrumentation carried through the ring.
type evMeta struct {
	enqNs    int64 // obs.Now at enqueue (arrival: decode complete)
	decodeNs int64 // time spent obtaining the event off the socket
	seq      uint64
	flight   bool
}

// poppedMeta is an evMeta plus what the pop itself measured.
type poppedMeta struct {
	evMeta
	waitNs int64 // time spent queued
}

// arrivalRun is n consecutively popped events that share one enqueue
// timestamp. Every event of one PushBatch carries the same enqNs, so a
// window's arrivals are a handful of runs however many events it holds.
type arrivalRun struct {
	enqNs int64
	n     int
}

// pendingCap bounds the consumer-side arrival buffer in runs, not events:
// a window of any size stays exact unless its events arrived in more than
// 64k separate pushes, and only then does the excess go missing from the
// E2E histogram (the other stage histograms still see every event).
const pendingCap = 65536

// instrument attaches the per-model stage histograms and allocates the
// metadata ring. Must be called before the first PushBatch.
func (q *eventQueue) instrument(pipe *obs.Pipeline) {
	q.pipe = pipe
	q.meta = make([]evMeta, len(q.buf))
	q.pending = make([]arrivalRun, 0, 64)
	now := obs.Now()
	q.lastPushNs.Store(now)
	q.lastPopNs.Store(now)
}

func newEventQueue(capacity int, policy Backpressure) *eventQueue {
	if capacity <= 0 {
		capacity = 1024
	}
	q := &eventQueue{buf: make([]trace.Event, capacity), policy: policy}
	q.notFull.L = &q.mu
	q.notEmpty.L = &q.mu
	return q
}

// PushBatch enqueues evs under one mutex acquisition instead of one per
// event, filling the metadata ring in the same critical section: event i
// carries sequence firstSeq+i, the shared arrival timestamp enqNs (the
// whole batch became visible at the same ReadBatch return) and the
// per-event decode share decodeNsPerEv. Under Block the batch is admitted
// in capacity-sized chunks, waking the consumer between chunks, so a
// batch larger than the queue cannot deadlock; under DropOldest each
// admitted event evicts the oldest. Returns false once the queue is
// closed — events admitted before the close stay counted and consumable.
//
//enduratrace:zeroalloc
func (q *eventQueue) PushBatch(evs []trace.Event, enqNs, decodeNsPerEv int64, firstSeq uint64, flightEvery uint64) bool {
	for len(evs) > 0 {
		q.mu.Lock()
		if q.policy == Block {
			for q.n == len(q.buf) && !q.closed {
				q.notFull.Wait()
			}
		}
		if q.closed {
			q.mu.Unlock()
			return false
		}
		k := len(evs)
		if q.policy == Block {
			if free := len(q.buf) - q.n; k > free {
				k = free
			}
		}
		for i := 0; i < k; i++ {
			if q.n == len(q.buf) { // DropOldest: make room
				q.head = (q.head + 1) % len(q.buf)
				q.n--
				q.dropped++
			}
			j := (q.head + q.n) % len(q.buf)
			q.buf[j] = evs[i]
			if q.meta != nil {
				seq := firstSeq + uint64(i)
				q.meta[j] = evMeta{
					enqNs:    enqNs,
					decodeNs: decodeNsPerEv,
					seq:      seq,
					flight:   flightEvery > 0 && seq%flightEvery == 0,
				}
			}
			q.n++
			q.ingested++
		}
		if q.meta != nil {
			q.lastPushNs.Store(enqNs)
		}
		q.mu.Unlock()
		q.notEmpty.Signal()
		evs = evs[k:]
		firstSeq += uint64(k)
	}
	return true
}

// Close stops ingestion; queued events remain consumable (the drain).
// Idempotent.
func (q *eventQueue) Close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.notEmpty.Broadcast()
	q.notFull.Broadcast()
}

// Next implements trace.Reader for the scoring side.
//
//enduratrace:zeroalloc
func (q *eventQueue) Next() (trace.Event, error) {
	q.mu.Lock()
	for q.n == 0 && !q.closed {
		q.notEmpty.Wait()
	}
	if q.n == 0 {
		q.mu.Unlock()
		return trace.Event{}, io.EOF
	}
	ev := q.buf[q.head]
	q.buf[q.head] = trace.Event{} // drop payload reference
	var m evMeta
	if q.meta != nil {
		m = q.meta[q.head]
	}
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	// Count inside the lock: the event must never be invisible to a
	// concurrent Counters() — gone from the buffer yet not scored.
	q.scored++
	q.mu.Unlock()
	q.notFull.Signal()
	if q.meta != nil {
		now := obs.Now()
		q.lastPopNs.Store(now)
		q.popped(now, m.enqNs, 1)
		if m.flight {
			q.noteFlight(m, now)
		}
	}
	return ev, nil
}

// ReadBatch implements trace.BatchReader for the scoring side: it pops
// every immediately available event (up to len(dst)) under one mutex
// acquisition, blocking only when the queue is empty and open. Counter
// discipline matches Next — scored moves inside the lock — while the
// observation work happens after unlock on metadata copied out under the
// lock: QueueWait and the pending arrivals once per run of equal enqueue
// times, the flight slot per sampled event.
//
//enduratrace:zeroalloc
func (q *eventQueue) ReadBatch(dst []trace.Event) (int, error) {
	q.mu.Lock()
	for q.n == 0 && !q.closed {
		q.notEmpty.Wait()
	}
	if q.n == 0 {
		q.mu.Unlock()
		return 0, io.EOF
	}
	k := len(dst)
	if k > q.n {
		k = q.n
	}
	var metas []evMeta
	if q.meta != nil {
		if cap(q.popMetas) < k {
			//lint:ignore zeroalloc amortized scratch growth: reused across calls, steady-state zero
			q.popMetas = make([]evMeta, k)
		}
		metas = q.popMetas[:k]
	}
	for i := 0; i < k; i++ {
		dst[i] = q.buf[q.head]
		q.buf[q.head] = trace.Event{} // drop payload reference
		if metas != nil {
			metas[i] = q.meta[q.head]
		}
		q.head = (q.head + 1) % len(q.buf)
	}
	q.n -= k
	q.scored += int64(k)
	q.mu.Unlock()
	q.notFull.Signal()
	if metas != nil {
		now := obs.Now()
		q.lastPopNs.Store(now)
		for i := 0; i < len(metas); {
			enq := metas[i].enqNs
			j := i + 1
			for j < len(metas) && metas[j].enqNs == enq {
				j++
			}
			q.popped(now, enq, j-i)
			for ; i < j; i++ {
				if metas[i].flight {
					q.noteFlight(metas[i], now)
				}
			}
		}
	}
	return k, nil
}

// popped observes the queue wait of n events enqueued at enqNs and popped
// at now, and appends them to the pending arrivals: onto the last run
// when it shares enqNs (a batch split across pops), else as a new run.
// Past pendingCap runs the arrivals are dropped; QueueWait still saw them.
func (q *eventQueue) popped(now, enqNs int64, n int) {
	q.pipe.QueueWait.ObserveNsN(now-enqNs, n)
	if last := len(q.pending) - 1; last >= 0 && q.pending[last].enqNs == enqNs {
		q.pending[last].n += n
	} else if len(q.pending) < pendingCap {
		q.pending = append(q.pending, arrivalRun{enqNs: enqNs, n: n})
	}
}

// noteFlight parks a flight-sampled pop until its window's decision,
// counting a previous sample that never saw its decision as skipped.
func (q *eventQueue) noteFlight(m evMeta, now int64) {
	if q.hasFlight {
		q.flightSkips++
	}
	q.flightSlot = poppedMeta{evMeta: m, waitNs: now - m.enqNs}
	q.hasFlight = true
}

// observeArrivals records into the E2E histogram the latency from arrival
// to now of every event popped since the previous call, one observation
// per arrival run. The scoring goroutine calls it at each window decision,
// which is what makes E2E's _count equal the number of events scored.
func (q *eventQueue) observeArrivals(now int64) {
	for _, r := range q.pending {
		q.pipe.E2E.ObserveNsN(now-r.enqNs, r.n)
	}
	q.pending = q.pending[:0]
}

// takeFlight returns the most recent flight-sampled pop since the
// previous call, if any, plus how many earlier samples were overwritten
// before their window's decision (skipped). Consumer-side only, like
// observeArrivals.
func (q *eventQueue) takeFlight() (m poppedMeta, skipped int, ok bool) {
	skipped = q.flightSkips
	q.flightSkips = 0
	if !q.hasFlight {
		return poppedMeta{}, skipped, false
	}
	q.hasFlight = false
	return q.flightSlot, skipped, true
}

// LastTimes reports the obs.Now timestamps of the most recent enqueue and
// dequeue, for the stall watchdog. Zero values mean the queue is not
// instrumented.
func (q *eventQueue) LastTimes() (pushNs, popNs int64) {
	return q.lastPushNs.Load(), q.lastPopNs.Load()
}

// QueueCounters is one consistent observation of a queue's books.
type QueueCounters struct {
	Ingested int64
	Scored   int64
	Dropped  int64
	Depth    int
}

// Counters returns the queue's books as one atomic observation: at every
// instant Ingested == Scored + Dropped + Depth.
func (q *eventQueue) Counters() QueueCounters {
	q.mu.Lock()
	defer q.mu.Unlock()
	return QueueCounters{Ingested: q.ingested, Scored: q.scored, Dropped: q.dropped, Depth: q.n}
}

// Depth reports the current queue occupancy.
func (q *eventQueue) Depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.n
}
