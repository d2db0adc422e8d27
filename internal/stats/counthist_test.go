package stats

import (
	"sync"
	"testing"
)

func TestCountHistogramBasics(t *testing.T) {
	h := NewCountHistogram()
	if h.Count() != 0 || h.Sum() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram not zero")
	}
	for _, v := range []int64{0, 1, 2, 3, 4, 100} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Sum() != 110 {
		t.Fatalf("sum = %d", h.Sum())
	}
	if got := h.Mean(); got < 18 || got > 19 {
		t.Fatalf("mean = %v", got)
	}
	// Median of {0,1,2,3,4,100}: the third observation (2) lands in
	// bucket [2,4), so the reported upper bound is 4.
	if got := h.Quantile(0.5); got != 4 {
		t.Fatalf("p50 = %d, want 4", got)
	}
	// The max (100) lands in [64,128).
	if got := h.Quantile(1); got != 128 {
		t.Fatalf("p100 = %d, want 128", got)
	}
}

func TestCountHistogramZeroBucket(t *testing.T) {
	h := NewCountHistogram()
	h.Observe(0)
	h.Observe(0)
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("all-zero p50 = %d, want 0", got)
	}
}

func TestCountHistogramNilSafe(t *testing.T) {
	var h *CountHistogram
	h.Observe(5)
	if h.Count() != 0 || h.Sum() != 0 || h.Mean() != 0 || h.Quantile(0.9) != 0 {
		t.Fatal("nil histogram must be free")
	}
}

func TestCountHistogramConcurrent(t *testing.T) {
	h := NewCountHistogram()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int64(0); i < 1000; i++ {
				h.Observe(i % 32)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("count = %d", h.Count())
	}
}

func TestCountBucketBoundMonotone(t *testing.T) {
	prev := int64(0)
	for i := 0; i < histBuckets; i++ {
		b := CountBucketBound(i)
		if b <= prev && i > 0 {
			t.Fatalf("bounds not increasing at %d: %d <= %d", i, b, prev)
		}
		prev = b
	}
	if CountBucketBound(histBuckets) != CountBucketBound(histBuckets-1) {
		t.Fatal("overflow bucket must report the largest finite bound")
	}
	if CountBucketBound(-1) != 1 {
		t.Fatalf("negative index bound = %d", CountBucketBound(-1))
	}
}
