package stats

import (
	"sync"
	"testing"
	"time"
)

func TestHistogramBucketing(t *testing.T) {
	h := NewHistogram()
	h.Observe(500 * time.Nanosecond) // bucket 0: < 1µs
	h.Observe(time.Microsecond)      // [1µs, 2µs)
	h.Observe(3 * time.Microsecond)  // [2µs, 4µs)
	h.Observe(10 * time.Second)
	if h.Count() != 4 {
		t.Fatalf("Count = %d, want 4", h.Count())
	}
	want := 500*time.Nanosecond + time.Microsecond + 3*time.Microsecond + 10*time.Second
	if h.Sum() != want {
		t.Fatalf("Sum = %v, want %v", h.Sum(), want)
	}
	s := h.Snapshot()
	if s.Counts[0] != 1 || s.Counts[1] != 1 || s.Counts[2] != 1 {
		t.Fatalf("low buckets wrong: %v", s.Counts[:4])
	}
	var total int64
	for _, c := range s.Counts {
		total += c
	}
	if total != 4 {
		t.Fatalf("bucket total = %d, want 4", total)
	}
}

func TestHistogramQuantileBounds(t *testing.T) {
	h := NewHistogram()
	for i := 0; i < 90; i++ {
		h.Observe(10 * time.Microsecond) // bucket [8µs, 16µs)
	}
	for i := 0; i < 10; i++ {
		h.Observe(5 * time.Millisecond)
	}
	p50 := h.Quantile(0.5)
	if p50 != 16*time.Microsecond {
		t.Fatalf("p50 = %v, want 16µs bucket bound", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 5*time.Millisecond || p99 > 16*time.Millisecond {
		t.Fatalf("p99 = %v, want within one bucket of 5ms", p99)
	}
	if h.Quantile(0) == 0 {
		t.Fatal("q=0 with observations should report the first bucket bound")
	}
	if got := h.Quantile(1); got < p99 {
		t.Fatalf("q=1 (%v) below p99 (%v)", got, p99)
	}
}

func TestHistogramQuantileMonotone(t *testing.T) {
	h := NewHistogram()
	for d := time.Microsecond; d < time.Second; d *= 3 {
		h.Observe(d)
	}
	prev := time.Duration(0)
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
		v := h.Quantile(q)
		if v < prev {
			t.Fatalf("quantile %v = %v below previous %v", q, v, prev)
		}
		prev = v
	}
}

func TestHistogramExtremes(t *testing.T) {
	h := NewHistogram()
	h.Observe(-time.Second)     // clamped to bucket 0
	h.Observe(1000 * time.Hour) // overflow bucket
	s := h.Snapshot()
	if s.Counts[0] != 1 {
		t.Fatal("negative duration not clamped to first bucket")
	}
	if s.Counts[len(s.Counts)-1] != 1 {
		t.Fatal("huge duration not in overflow bucket")
	}
	if h.Quantile(1) != BucketBound(histBuckets) {
		t.Fatalf("overflow quantile = %v", h.Quantile(1))
	}
}

func TestHistogramNilSafe(t *testing.T) {
	var h *Histogram
	h.Observe(time.Second)
	if h.Count() != 0 || h.Sum() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil histogram not zero")
	}
	if s := h.Snapshot(); s.Count != 0 || s.Bounds != nil {
		t.Fatal("nil snapshot not empty")
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewHistogram()
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(i) * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if h.Count() != workers*per {
		t.Fatalf("Count = %d, want %d", h.Count(), workers*per)
	}
	s := h.Snapshot()
	var total int64
	for _, c := range s.Counts {
		total += c
	}
	if total != workers*per {
		t.Fatalf("bucket total = %d, want %d", total, workers*per)
	}
}

// TestHistogramMergeIsThePooledDistribution: merging per-engine
// histograms gives exactly the histogram of all their observations, for
// durations and for counts.
func TestHistogramMergeIsThePooledDistribution(t *testing.T) {
	a, b, pooled, merged := NewHistogram(), NewHistogram(), NewHistogram(), NewHistogram()
	ca, cb, cpooled, cmerged := NewCountHistogram(), NewCountHistogram(), NewCountHistogram(), NewCountHistogram()
	for i := 0; i < 200; i++ {
		h, c := a, ca
		if i%3 == 0 {
			h, c = b, cb
		}
		d := time.Duration(i*i) * time.Microsecond
		h.Observe(d)
		pooled.Observe(d)
		c.Observe(int64(i))
		cpooled.Observe(int64(i))
	}
	merged.Merge(a)
	merged.Merge(b)
	merged.Merge(nil)
	cmerged.Merge(ca)
	cmerged.Merge(cb)
	cmerged.Merge(nil)
	if merged.Count() != pooled.Count() || merged.Sum() != pooled.Sum() ||
		cmerged.Count() != cpooled.Count() || cmerged.Sum() != cpooled.Sum() {
		t.Fatalf("merged totals differ from pooled: %d/%v vs %d/%v", merged.Count(), merged.Sum(), pooled.Count(), pooled.Sum())
	}
	for _, q := range []float64{0, 0.5, 0.9, 0.99, 1} {
		if merged.Quantile(q) != pooled.Quantile(q) || cmerged.Quantile(q) != cpooled.Quantile(q) {
			t.Fatalf("q=%v: merged %v/%d, pooled %v/%d", q, merged.Quantile(q), cmerged.Quantile(q), pooled.Quantile(q), cpooled.Quantile(q))
		}
	}
}

// HistogramSnapshot is a point-in-time copy of a histogram, suitable for
// rendering (per-bucket counts are non-cumulative; Bounds[i] is the
// exclusive upper bound of Counts[i], with the final bucket unbounded).
type HistogramSnapshot struct {
	Count  int64
	Sum    time.Duration
	Bounds []time.Duration
	Counts []int64
}

// Snapshot copies the histogram's current state. Taken without locking,
// so concurrent Observes may make Count differ from the bucket total by
// a few in-flight observations.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Count:  h.count.Load(),
		Sum:    time.Duration(h.sum.Load()),
		Bounds: make([]time.Duration, histBuckets+1),
		Counts: make([]int64, histBuckets+1),
	}
	for i := range h.buckets {
		s.Bounds[i] = BucketBound(i)
		s.Counts[i] = h.buckets[i].Load()
	}
	return s
}
