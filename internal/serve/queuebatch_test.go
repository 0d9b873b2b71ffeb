package serve

import (
	"io"
	"sync"
	"testing"
	"time"

	"enduratrace/internal/obs"
	"enduratrace/internal/trace"
)

// evEq compares the scalar fields (the tests carry no payloads).
func evEq(a, b trace.Event) bool {
	return a.TS == b.TS && a.Type == b.Type && a.Arg == b.Arg
}

// TestPushBatchMatchesSingleEventPushes: a batch push must leave the queue
// in the same observable state as the equivalent sequence of one-event
// pushes — same events in the same order, same sequence numbers, same
// flight samples, balanced books.
func TestPushBatchMatchesSingleEventPushes(t *testing.T) {
	const n = 100
	const flightEvery = 8
	evs := make([]trace.Event, n)
	for i := range evs {
		evs[i] = trace.Event{TS: time.Duration(i + 1), Type: trace.EventType(i % 5), Arg: uint64(i)}
	}

	drain := func(q *eventQueue) (out []trace.Event, flights []uint64) {
		for {
			ev, err := q.Next()
			if err == io.EOF {
				return out, flights
			}
			out = append(out, ev)
			if fm, _, ok := q.takeFlight(); ok {
				flights = append(flights, fm.seq)
			}
		}
	}

	qa := newEventQueue(n, Block)
	qa.instrument(&obs.Pipeline{})
	for i := range evs {
		qa.PushBatch(evs[i:i+1], obs.Now(), 10, uint64(i+1), flightEvery)
	}
	qa.Close()
	wantEvs, wantFlights := drain(qa)

	qb := newEventQueue(n, Block)
	qb.instrument(&obs.Pipeline{})
	if !qb.PushBatch(evs, obs.Now(), 10, 1, flightEvery) {
		t.Fatal("PushBatch returned false on an open queue")
	}
	qb.Close()
	gotEvs, gotFlights := drain(qb)

	if len(gotEvs) != len(wantEvs) {
		t.Fatalf("batched queue drained %d events, per-event %d", len(gotEvs), len(wantEvs))
	}
	for i := range wantEvs {
		if !evEq(gotEvs[i], wantEvs[i]) {
			t.Fatalf("event %d differs: %+v vs %+v", i, gotEvs[i], wantEvs[i])
		}
	}
	if len(gotFlights) != len(wantFlights) {
		t.Fatalf("flight samples: batched %v, per-event %v", gotFlights, wantFlights)
	}
	for i := range wantFlights {
		if gotFlights[i] != wantFlights[i] {
			t.Fatalf("flight sample %d: seq %d vs %d", i, gotFlights[i], wantFlights[i])
		}
	}
	ca, cb := qa.Counters(), qb.Counters()
	if ca != cb {
		t.Fatalf("books differ: per-event %+v, batched %+v", ca, cb)
	}
}

// TestPushBatchDropOldestBooks: a batch wider than a DropOldest queue must
// evict exactly the surplus, keep the newest events in order, and balance.
func TestPushBatchDropOldestBooks(t *testing.T) {
	const capacity, n = 8, 20
	q := newEventQueue(capacity, DropOldest)
	evs := make([]trace.Event, n)
	for i := range evs {
		evs[i] = trace.Event{TS: time.Duration(i + 1)}
	}
	q.PushBatch(evs, 0, 0, 1, 0)
	c := q.Counters()
	if c.Ingested != n || c.Dropped != n-capacity || c.Depth != capacity {
		t.Fatalf("books after wide batch: %+v (want ingested %d, dropped %d, depth %d)",
			c, n, n-capacity, capacity)
	}
	q.Close()
	for i := 0; i < capacity; i++ {
		ev, err := q.Next()
		if err != nil {
			t.Fatal(err)
		}
		if want := evs[n-capacity+i]; !evEq(ev, want) {
			t.Fatalf("survivor %d is %+v, want %+v", i, ev, want)
		}
	}
	if _, err := q.Next(); err != io.EOF {
		t.Fatalf("drained queue returned %v, want EOF", err)
	}
}

// TestPushBatchBlockLargerThanCapacity: under Block a batch wider than the
// queue is admitted in chunks against a concurrent ReadBatch consumer —
// nothing dropped, nothing reordered, no deadlock.
func TestPushBatchBlockLargerThanCapacity(t *testing.T) {
	const capacity, n = 8, 1000
	q := newEventQueue(capacity, Block)
	evs := make([]trace.Event, n)
	for i := range evs {
		evs[i] = trace.Event{TS: time.Duration(i + 1), Arg: uint64(i)}
	}
	got := make(chan []trace.Event)
	go func() {
		var out []trace.Event
		dst := make([]trace.Event, 16)
		for {
			k, err := q.ReadBatch(dst)
			out = append(out, dst[:k]...)
			if err == io.EOF {
				got <- out
				return
			}
		}
	}()
	if !q.PushBatch(evs, 0, 0, 1, 0) {
		t.Fatal("PushBatch returned false on an open queue")
	}
	q.Close()
	out := <-got
	if len(out) != n {
		t.Fatalf("consumer saw %d events, want %d", len(out), n)
	}
	for i := range out {
		if !evEq(out[i], evs[i]) {
			t.Fatalf("event %d is %+v, want %+v", i, out[i], evs[i])
		}
	}
	c := q.Counters()
	if c.Dropped != 0 || c.Scored != n || c.Ingested != n {
		t.Fatalf("block batch books: %+v", c)
	}
}

// TestPushBatchReadBatchCountersConsistentUnderRace is the batched twin of
// the drop-accounting audit: a producer pushing batches into a tiny
// DropOldest queue, a consumer draining it batch-wise, and observers
// snapshotting the books concurrently. Every observation must satisfy
// ingested == scored + dropped + depth, and the final totals must balance.
func TestPushBatchReadBatchCountersConsistentUnderRace(t *testing.T) {
	const batches, perBatch = 500, 64
	q := newEventQueue(16, DropOldest)
	q.instrument(&obs.Pipeline{})

	var wg sync.WaitGroup
	stopObs := make(chan struct{})
	for o := 0; o < 4; o++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stopObs:
					return
				default:
				}
				c := q.Counters()
				if c.Ingested != c.Scored+c.Dropped+int64(c.Depth) {
					t.Errorf("inconsistent books: %+v", c)
					return
				}
			}
		}()
	}

	var consumed int64
	consumerDone := make(chan struct{})
	go func() {
		defer close(consumerDone)
		dst := make([]trace.Event, 32)
		for {
			k, err := q.ReadBatch(dst)
			consumed += int64(k)
			q.observeArrivals(obs.Now())
			q.takeFlight()
			if err == io.EOF {
				return
			}
		}
	}()

	evs := make([]trace.Event, perBatch)
	var seq uint64
	for b := 0; b < batches; b++ {
		for i := range evs {
			evs[i] = trace.Event{TS: time.Duration(int(seq) + i + 1)}
		}
		if !q.PushBatch(evs, obs.Now(), 1, seq+1, 4) {
			t.Error("queue closed under the producer")
			break
		}
		seq += perBatch
	}
	q.Close()
	<-consumerDone
	close(stopObs)
	wg.Wait()

	final := q.Counters()
	if final.Ingested != batches*perBatch {
		t.Fatalf("ingested %d, want %d", final.Ingested, batches*perBatch)
	}
	if final.Depth != 0 {
		t.Fatalf("depth %d after drain, want 0", final.Depth)
	}
	if final.Scored != consumed {
		t.Fatalf("scored counter %d != %d events the consumer saw", final.Scored, consumed)
	}
	if final.Scored+final.Dropped != final.Ingested {
		t.Fatalf("final books do not balance: %+v", final)
	}
}

// TestQueueBatchZeroAllocSteadyState: once warm, a PushBatch/ReadBatch
// round trip on an instrumented queue allocates nothing — the metadata
// ring, the pop scratch and the pending arrivals all reuse their buffers.
func TestQueueBatchZeroAllocSteadyState(t *testing.T) {
	const batch = 128
	q := newEventQueue(1024, Block)
	q.instrument(&obs.Pipeline{})
	evs := make([]trace.Event, batch)
	for i := range evs {
		evs[i] = trace.Event{TS: time.Duration(i + 1)}
	}
	dst := make([]trace.Event, batch)
	var seq uint64
	round := func() {
		q.PushBatch(evs, obs.Now(), 1, seq+1, 16)
		seq += batch
		for popped := 0; popped < batch; {
			k, err := q.ReadBatch(dst)
			if err != nil {
				t.Fatal(err)
			}
			popped += k
		}
		q.observeArrivals(obs.Now())
		q.takeFlight()
	}
	round() // warm the pop scratch and pending buffers
	if avg := testing.AllocsPerRun(100, round); avg != 0 {
		t.Fatalf("steady-state batch round trip allocates %.1f times, want 0", avg)
	}
}
