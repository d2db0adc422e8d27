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

// Merge adds o's observations into h, bucket by bucket (every Histogram
// has the same geometry, so counts add): a server reports one latency
// distribution over the histograms of all its engines. o may be live:
// Count can then differ from the bucket total by the few observations
// in flight.
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
