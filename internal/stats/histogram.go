package stats

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// histBuckets is the number of finite log-scale buckets. Bucket 0 holds
// values below one unit; bucket i (i ≥ 1) holds [2^(i-1), 2^i) units, so
// the largest finite upper bound is 2^(histBuckets-1) units (≈ 134s for
// a duration, ≈ 134M for a count). One extra overflow bucket catches
// anything larger.
const histBuckets = 28

// histBase is the unit of a duration Histogram; a CountHistogram's unit
// is 1.
const histBase = time.Microsecond

// hist is the one implementation behind Histogram and CountHistogram:
// power-of-two buckets of a unit the front end passes in. Every update
// is a single atomic add per field, so observing is safe and cheap from
// many goroutines with no locking.
type hist struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [histBuckets + 1]atomic.Int64
}

// bucketIdx maps a value of the given unit to its bucket.
func bucketIdx(v, unit int64) int {
	if v < 0 {
		v = 0
	}
	i := bits.Len64(uint64(v / unit))
	if i > histBuckets {
		i = histBuckets
	}
	return i
}

// bound returns the exclusive upper bound of bucket i in the given unit;
// the overflow bucket reports the largest finite bound.
func bound(i int, unit int64) int64 {
	if i >= histBuckets {
		i = histBuckets - 1
	}
	if i < 0 {
		i = 0
	}
	return unit << i
}

func (h *hist) observe(v, unit int64) {
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bucketIdx(v, unit)].Add(1)
}

// quantile returns the first bucket whose cumulative count reaches
// q·count (q clamped to [0, 1]), or -1 when nothing was observed.
func (h *hist) quantile(q float64) int {
	total := h.count.Load()
	if total == 0 {
		return -1
	}
	q = min(max(q, 0), 1)
	target := max(int64(q*float64(total)), 1)
	var cum int64
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		if cum >= target {
			return i
		}
	}
	return histBuckets
}

// merge adds o's observations into h, bucket by bucket (every hist has
// the same geometry, so counts add). o may be live: count can then
// differ from the bucket total by the few observations in flight.
func (h *hist) merge(o *hist) {
	h.count.Add(o.count.Load())
	h.sum.Add(o.sum.Load())
	for i := range h.buckets {
		h.buckets[i].Add(o.buckets[i].Load())
	}
}

// Histogram accumulates durations into fixed log-scale (powers-of-two
// microseconds) buckets: the serving hot path records every engine
// operation through one of these. A nil *Histogram is valid and free:
// every method no-ops or returns zero.
type Histogram struct{ hist }

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// BucketBound returns the exclusive upper bound of bucket i; the last
// bucket is unbounded and reports the largest finite bound.
func BucketBound(i int) time.Duration { return time.Duration(bound(i, int64(histBase))) }

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if h != nil {
		h.observe(int64(d), int64(histBase))
	}
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
	i := h.quantile(q)
	if i < 0 {
		return 0
	}
	return BucketBound(i)
}

// Merge adds o's observations into h: a server reports one latency
// distribution over the histograms of all its engines, and an engine
// one stage over the histograms of its operations.
func (h *Histogram) Merge(o *Histogram) {
	if h != nil && o != nil {
		h.merge(&o.hist)
	}
}

// CountHistogram accumulates non-negative integer counts (batch sizes,
// queue depths) into the same power-of-two buckets with a unit of 1, so
// bucket 0 holds exactly the count 0. A nil *CountHistogram is valid
// and free.
type CountHistogram struct{ hist }

// NewCountHistogram returns an empty count histogram.
func NewCountHistogram() *CountHistogram { return &CountHistogram{} }

// CountBucketBound returns the exclusive upper bound of bucket i; the
// last bucket is unbounded and reports the largest finite bound.
func CountBucketBound(i int) int64 { return bound(i, 1) }

// Observe records one count.
func (h *CountHistogram) Observe(v int64) {
	if h != nil {
		h.observe(v, 1)
	}
}

// Merge adds o's observations into h, like Histogram.Merge.
func (h *CountHistogram) Merge(o *CountHistogram) {
	if h != nil && o != nil {
		h.merge(&o.hist)
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
// the observed counts, like Histogram.Quantile; a quantile in bucket 0
// is the count 0 itself.
func (h *CountHistogram) Quantile(q float64) int64 {
	if h == nil {
		return 0
	}
	i := h.quantile(q)
	if i <= 0 {
		return 0
	}
	return CountBucketBound(i)
}
