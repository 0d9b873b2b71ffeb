package obs

import (
	"math"
	"math/big"
	"reflect"
	"sync"
	"testing"
	"time"
)

// refBucket is the definition bucketIdx implements, in exact integer
// arithmetic: the smallest i with ns <= 1000·2^((i+1)/4), i.e. with
// ns^4 <= 1000^4·2^(i+1), or NumBounds when no bound covers ns.
func refBucket(ns int64) int {
	if ns <= 0 {
		return 0
	}
	x := big.NewInt(ns)
	x.Mul(x, x)
	x.Mul(x, x)
	for i := 0; i < NumBounds; i++ {
		lim := new(big.Int).Lsh(big.NewInt(1e12), uint(i+1))
		if x.Cmp(lim) <= 0 {
			return i
		}
	}
	return NumBounds
}

// TestBucketIdx pins the bucket mapping: every observation must land in
// the smallest bucket whose bound is >= the value, out-of-range values in
// the clamp bins, so no latency is ever invisible.
func TestBucketIdx(t *testing.T) {
	for _, tc := range []struct {
		ns   int64
		want int
	}{
		{math.MinInt64, 0},   // clock glitch → first bin
		{0, 0},               // clock glitch → first bin
		{1, 0},               // 1ns → first bin
		{1000, 0},            // exactly 1µs, under bound[0] (1.19µs)
		{1189, 0},            // floor(bound[0])
		{1190, 1},            // just above bound[0], under bound[1] (1.41µs)
		{2000, 3},            // exactly bound[3] = 1µs·2^(4/4)
		{2001, 4},            // just above it
		{16_777_216_000, 95}, // exactly the last bound, 1µs·2^24
		{16_777_216_001, NumBounds},
		{1 << 62, NumBounds}, // far beyond the last bound → overflow bin
		{math.MaxInt64, NumBounds},
	} {
		if got := bucketIdx(tc.ns); got != tc.want {
			t.Errorf("bucketIdx(%d) = %d, want %d", tc.ns, got, tc.want)
		}
	}

	// Against the exact math/big definition at every point where either
	// could change value: each integer bound and the integer after it,
	// and both sides of every sub-octave edge the lookup table is keyed
	// on. Between those points both are constant, so agreement here is
	// agreement everywhere.
	check := func(ns int64) {
		t.Helper()
		if got, want := bucketIdx(ns), refBucket(ns); got != want {
			t.Fatalf("bucketIdx(%d) = %d, exact reference %d", ns, got, want)
		}
	}
	for i := 0; i < NumBounds; i++ {
		if got := float64(thrNs[i]) / 1e9; math.Abs(got-boundsS[i]) > 1e-9*boundsS[i]+1e-9 {
			t.Fatalf("thrNs[%d] = %d ns, float bound %g s", i, thrNs[i], boundsS[i])
		}
		check(thrNs[i])
		check(thrNs[i] + 1)
	}
	for b := 4; b < 63; b++ {
		for m := int64(0); m < 1<<subBits; m++ {
			lo := int64(1)<<(b-1) | m<<(b-1-subBits)
			check(lo - 1)
			check(lo)
		}
	}
	for ns := int64(1); ns < int64(40*time.Second); ns = ns*3/2 + 1 {
		check(ns)
	}
}

func TestBoundsAscending(t *testing.T) {
	bs := Bounds()
	if len(bs) != NumBounds {
		t.Fatalf("len(Bounds()) = %d, want %d", len(bs), NumBounds)
	}
	for i := 1; i < len(bs); i++ {
		if bs[i] <= bs[i-1] {
			t.Fatalf("bounds not ascending at %d: %g <= %g", i, bs[i], bs[i-1])
		}
	}
	if bs[0] != 0.001/1e6*math.Pow(2, 0.25) {
		// First bound is 1µs·2^(1/4) ≈ 1.19µs.
		want := 1e-6 * math.Pow(2, 0.25)
		if math.Abs(bs[0]-want) > 1e-15 {
			t.Fatalf("bounds[0] = %g, want %g", bs[0], want)
		}
	}
}

func TestHistogramCountSumQuantile(t *testing.T) {
	var h Histogram
	// 1000 observations spread uniformly over 1ms..100ms.
	for i := 0; i < 1000; i++ {
		h.Observe(time.Millisecond + time.Duration(i)*99*time.Microsecond)
	}
	s := h.Snapshot()
	if s.Count() != 1000 {
		t.Fatalf("Count = %d, want 1000", s.Count())
	}
	p50 := s.Quantile(0.5)
	if p50 < 0.035 || p50 > 0.075 {
		t.Fatalf("p50 = %g, want ~0.05 (±bucket resolution)", p50)
	}
	p99 := s.Quantile(0.99)
	if p99 < 0.08 || p99 > 0.13 {
		t.Fatalf("p99 = %g, want ~0.1", p99)
	}
	if got, want := s.SumSeconds(), 1000*0.001+99e-6*999*1000/2; math.Abs(got-want)/want > 1e-9 {
		t.Fatalf("SumSeconds = %g, want %g", got, want)
	}
}

// TestObserveNsNMatchesRepeatedObserveNs: n observations of one value
// recorded at once must leave exactly the snapshot n single observations
// leave, including clamped non-positive values, the overflow bin, n == 0
// and a sum that wraps.
func TestObserveNsNMatchesRepeatedObserveNs(t *testing.T) {
	var runs, singles Histogram
	for _, tc := range []struct {
		ns int64
		n  int
	}{
		{0, 3},
		{-5, 2},
		{math.MinInt64, 1},
		{1, 7},
		{1189, 4},
		{1190, 4},
		{2000, 9},
		{137_000, 1000},
		{int64(20 * time.Second), 5}, // overflow bin
		{123_456, 0},                 // records nothing
		{-1, -3},                     // records nothing
		{math.MaxInt64 / 3, 4},       // the sum wraps
	} {
		runs.ObserveNsN(tc.ns, tc.n)
		for i := 0; i < tc.n; i++ {
			singles.ObserveNs(tc.ns)
		}
		if a, b := runs.Snapshot(), singles.Snapshot(); !reflect.DeepEqual(a, b) {
			t.Fatalf("after ObserveNsN(%d, %d): snapshot %+v, per-observation %+v", tc.ns, tc.n, a, b)
		}
	}
	if s := runs.Snapshot(); s.Count() != 3+2+1+7+4+4+9+1000+5+4 || s.Counts[NumBounds] != 5+4 {
		t.Fatalf("count %d, overflow %d", s.Count(), s.Counts[NumBounds])
	}
}

func TestHistogramOverflowVisible(t *testing.T) {
	var h Histogram
	h.Observe(100 * time.Second) // beyond the last bound (~16.8s)
	s := h.Snapshot()
	if s.Counts[NumBounds] != 1 {
		t.Fatalf("overflow bin = %d, want 1", s.Counts[NumBounds])
	}
	if s.Count() != 1 {
		t.Fatalf("Count = %d, want 1 (overflow must be counted)", s.Count())
	}
}

func TestSnapshotMerge(t *testing.T) {
	var a, b Histogram
	a.Observe(time.Millisecond)
	a.Observe(2 * time.Millisecond)
	b.Observe(time.Second)
	sa, sb := a.Snapshot(), b.Snapshot()
	var m Snapshot
	m.Merge(sa)
	m.Merge(sb)
	if m.Count() != 3 {
		t.Fatalf("merged Count = %d, want 3", m.Count())
	}
	if m.SumNs != sa.SumNs+sb.SumNs {
		t.Fatalf("merged SumNs = %d, want %d", m.SumNs, sa.SumNs+sb.SumNs)
	}
}

// TestHistogramConcurrentObserveSnapshot is the race gate: many writers
// hammering Observe and ObserveNsN while readers take snapshots must be race-clean (run
// under -race) and lose no observations.
func TestHistogramConcurrentObserveSnapshot(t *testing.T) {
	var h Histogram
	const (
		writers = 8
		perW    = 10000
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Two concurrent snapshot readers.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := h.Snapshot()
				if c := s.Count(); c > writers*perW {
					t.Errorf("snapshot Count %d exceeds writes", c)
					return
				}
				_ = s.Quantile(0.99)
			}
		}()
	}
	// Half the writers observe one value at a time, half in runs of
	// varying length; either way each writer records perW observations.
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if w%2 == 0 {
				for i := 0; i < perW; i++ {
					h.ObserveNs(int64(w*1000 + i + 1))
				}
				return
			}
			for i := 0; i < perW; {
				n := min(1+i%13, perW-i)
				h.ObserveNsN(int64(w*1000+i+1), n)
				i += n
			}
		}(w)
	}
	// Wait for writers, then stop readers.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		s := h.Snapshot()
		if s.Count() == writers*perW {
			break
		}
		select {
		case <-done:
		case <-time.After(time.Millisecond):
		}
		if s := h.Snapshot(); s.Count() == writers*perW {
			break
		}
	}
	close(stop)
	<-done
	if c := h.Snapshot().Count(); c != writers*perW {
		t.Fatalf("final Count = %d, want %d", c, writers*perW)
	}
}

// TestObserveZeroAlloc is half of the satellite allocation gate: recording
// a latency sample must not allocate (the other half lives in core and
// serve, over the real ProcessWindow and queue paths).
func TestObserveZeroAlloc(t *testing.T) {
	var h Histogram
	if allocs := testing.AllocsPerRun(1000, func() {
		h.Observe(137 * time.Microsecond)
	}); allocs != 0 {
		t.Fatalf("Observe allocates %v times per call, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		h.ObserveNsN(137_000, 64)
	}); allocs != 0 {
		t.Fatalf("ObserveNsN allocates %v times per call, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		_ = Now()
	}); allocs != 0 {
		t.Fatalf("Now allocates %v times per call, want 0", allocs)
	}
}

func TestFlightRing(t *testing.T) {
	f := NewFlight(4, 3)
	if f.EveryN() != 4 {
		t.Fatalf("EveryN = %d", f.EveryN())
	}
	for i := 1; i <= 5; i++ {
		f.Add(Record{Seq: uint64(i)})
	}
	recs := f.Records()
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3", len(recs))
	}
	// Oldest first after wrap: 3, 4, 5.
	for i, want := range []uint64{3, 4, 5} {
		if recs[i].Seq != want {
			t.Fatalf("record %d seq = %d, want %d", i, recs[i].Seq, want)
		}
	}
	st := f.Stats()
	if st.Sampled != 5 || st.Capacity != 3 || st.Every != 4 {
		t.Fatalf("stats = %+v", st)
	}
	f.NoteSkipped()
	if f.Stats().Skipped != 1 {
		t.Fatalf("skipped = %d, want 1", f.Stats().Skipped)
	}
}

func TestQuantileEmptyAndClamp(t *testing.T) {
	var s Snapshot
	if q := s.Quantile(0.5); q != 0 {
		t.Fatalf("empty quantile = %g, want 0", q)
	}
	var h Histogram
	h.Observe(time.Millisecond)
	snap := h.Snapshot()
	if q := snap.Quantile(-1); q < 0 {
		t.Fatalf("clamped quantile negative: %g", q)
	}
	if q := snap.Quantile(2); q <= 0 {
		t.Fatalf("clamped quantile = %g", q)
	}
}
