package stats

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// histBuckets is the number of finite log-scale buckets. Bucket 0 holds
// durations below 1µs; bucket i (i ≥ 1) holds [2^(i-1)µs, 2^i µs), so
// the largest finite upper bound is 2^(histBuckets-1) µs ≈ 134s. One
// extra overflow bucket catches anything slower.
const histBuckets = 28

// histBase is the lower resolution limit of the histogram.
const histBase = time.Microsecond

// Histogram accumulates durations into fixed log-scale (powers-of-two
// microseconds) buckets. All updates are single atomic adds, so Observe
// is safe and cheap to call from many goroutines with no locking — the
// serving hot path records every engine stage through one of these.
//
// Like Collector, a nil *Histogram is valid and free: every method
// no-ops or returns zero.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64 // nanoseconds
	buckets [histBuckets + 1]atomic.Int64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// bucketIdx maps a duration to its bucket.
func bucketIdx(d time.Duration) int {
	if d < 0 {
		d = 0
	}
	i := bits.Len64(uint64(d / histBase))
	if i > histBuckets {
		i = histBuckets
	}
	return i
}

// BucketBound returns the exclusive upper bound of bucket i; the last
// bucket is unbounded and reports the largest finite bound.
func BucketBound(i int) time.Duration {
	if i >= histBuckets {
		i = histBuckets - 1
	}
	if i < 0 {
		i = 0
	}
	return histBase << i
}

// NumBuckets returns the total bucket count, including the overflow
// bucket.
func (h *Histogram) NumBuckets() int { return histBuckets + 1 }

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	h.count.Add(1)
	h.sum.Add(int64(d))
	h.buckets[bucketIdx(d)].Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the total observed duration.
func (h *Histogram) Sum() time.Duration {
	if h == nil {
		return 0
	}
	return time.Duration(h.sum.Load())
}

// Quantile returns an upper bound for the q-quantile (q in [0, 1]) of
// the observed durations: the upper bound of the first bucket whose
// cumulative count reaches q·Count. Returns 0 when nothing has been
// observed. The answer is exact to within one power-of-two bucket.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := int64(q * float64(total))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		if cum >= target {
			return BucketBound(i)
		}
	}
	return BucketBound(histBuckets)
}

// Mean returns the average observed duration, or 0 with no observations.
func (h *Histogram) Mean() time.Duration {
	if h == nil {
		return 0
	}
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sum.Load() / n)
}

// Merge adds o's observations into h, bucket by bucket (every Histogram
// has the same geometry, so counts add): a server reports one latency
// distribution over the histograms of all its engines. o may be live:
// as with Snapshot, Count can then differ from the bucket total by the
// few observations in flight.
func (h *Histogram) Merge(o *Histogram) {
	if h == nil || o == nil {
		return
	}
	h.count.Add(o.count.Load())
	h.sum.Add(o.sum.Load())
	for i := range h.buckets {
		h.buckets[i].Add(o.buckets[i].Load())
	}
}

// Reset clears all observations. Concurrent Observes may be partially
// lost; Reset is intended for between-run bookkeeping, not hot paths.
func (h *Histogram) Reset() {
	if h == nil {
		return
	}
	h.count.Store(0)
	h.sum.Store(0)
	for i := range h.buckets {
		h.buckets[i].Store(0)
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
