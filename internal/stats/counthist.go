package stats

import (
	"math/bits"
	"sync/atomic"
)

// countBuckets is the number of finite log-scale count buckets. Bucket 0
// holds the count 0, bucket i (i >= 1) holds [2^(i-1), 2^i), so the
// largest finite upper bound is 2^(countBuckets-1) ≈ 134M. One extra
// overflow bucket catches anything larger.
const countBuckets = 28

// CountHistogram accumulates non-negative integer counts (batch sizes,
// queue depths) into fixed power-of-two buckets. Like Histogram, every
// update is a pair of atomic adds, so Observe is safe and cheap from
// many goroutines, and a nil *CountHistogram is valid and free.
type CountHistogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [countBuckets + 1]atomic.Int64
}

// NewCountHistogram returns an empty count histogram.
func NewCountHistogram() *CountHistogram { return &CountHistogram{} }

// countBucketIdx maps a count to its bucket.
func countBucketIdx(v int64) int {
	if v < 0 {
		v = 0
	}
	i := bits.Len64(uint64(v))
	if i > countBuckets {
		i = countBuckets
	}
	return i
}

// CountBucketBound returns the exclusive upper bound of bucket i; the
// last bucket is unbounded and reports the largest finite bound.
func CountBucketBound(i int) int64 {
	if i >= countBuckets {
		i = countBuckets - 1
	}
	if i < 0 {
		i = 0
	}
	return int64(1) << i
}

// Observe records one count.
func (h *CountHistogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[countBucketIdx(v)].Add(1)
}

// Merge adds o's observations into h, bucket by bucket, like
// Histogram.Merge.
func (h *CountHistogram) Merge(o *CountHistogram) {
	if h == nil || o == nil {
		return
	}
	h.count.Add(o.count.Load())
	h.sum.Add(o.sum.Load())
	for i := range h.buckets {
		h.buckets[i].Add(o.buckets[i].Load())
	}
}

// Count returns the number of observations.
func (h *CountHistogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the total of all observed counts.
func (h *CountHistogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Mean returns the average observed count, or 0 with no observations.
func (h *CountHistogram) Mean() float64 {
	if h == nil {
		return 0
	}
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Quantile returns an upper bound for the q-quantile (q in [0, 1]) of
// the observed counts: the upper bound of the first bucket whose
// cumulative count reaches q·Count. Returns 0 when nothing has been
// observed. Exact to within one power-of-two bucket.
func (h *CountHistogram) Quantile(q float64) int64 {
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
			if i == 0 {
				return 0 // bucket 0 holds exactly the count 0
			}
			return CountBucketBound(i)
		}
	}
	return CountBucketBound(countBuckets)
}
