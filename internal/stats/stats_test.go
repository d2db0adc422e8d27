package stats

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCollectorAccumulates(t *testing.T) {
	c := NewCollector()
	c.Observe(OpCacheStore, time.Second, 40)
	c.Observe(OpCacheStore, time.Second, 2)
	if c.Duration(OpCacheStore) != 2*time.Second || c.Items(OpCacheStore) != 42 || c.Calls(OpCacheStore) != 2 {
		t.Fatalf("Observe: duration %v, items %d, calls %d",
			c.Duration(OpCacheStore), c.Items(OpCacheStore), c.Calls(OpCacheStore))
	}
	// The op's histogram is its call count and wall time.
	if h := c.Hist(OpCacheStore); h.Count() != 2 || h.Sum() != 2*time.Second {
		t.Fatalf("histogram %d calls, %v", h.Count(), h.Sum())
	}
	if c.Calls(OpAttention) != 0 || c.Items(OpAttention) != 0 {
		t.Fatal("an unobserved op has calls or items")
	}
	c.Observe(OpAttention, time.Second, 1)
	if c.Total() != 3*time.Second {
		t.Fatalf("Total = %v", c.Total())
	}
}

func TestNilCollectorIsSafe(t *testing.T) {
	var c *Collector
	c.Observe(OpAttention, time.Second, 1)
	if c.Duration(OpAttention) != 0 || c.Items(OpAttention) != 0 || c.Calls(OpAttention) != 0 || c.Total() != 0 {
		t.Fatal("nil collector returned nonzero")
	}
	if c.String() != "" || len(c.Durations()) != 0 || c.Hist(OpAttention) != nil {
		t.Fatal("nil collector rendered something")
	}
}

func TestCollectorResetAndDurations(t *testing.T) {
	c := NewCollector()
	c.Observe(OpNghLookup, time.Second, 3)
	c.Observe(OpFeatLookup, 0, 3) // observed, even in no time
	m := c.Durations()
	if len(m) != 2 || m[OpNghLookup] != time.Second {
		t.Fatalf("Durations = %v", m)
	}
	if _, ok := m[OpFeatLookup]; !ok {
		t.Fatal("Durations dropped an op observed in zero time")
	}
	m[OpNghLookup] = 0 // must not affect the collector
	if c.Duration(OpNghLookup) != time.Second {
		t.Fatal("Durations did not copy")
	}
}

func TestCollectorStringContainsOps(t *testing.T) {
	c := NewCollector()
	c.Observe(OpCacheLookup, time.Millisecond, 7)
	s := c.String()
	if !strings.Contains(s, "CacheLookup") || !strings.Contains(s, "7 items") || !strings.Contains(s, "1 calls") {
		t.Fatalf("String missing entries: %q", s)
	}
	if strings.Contains(s, "attention M") {
		t.Fatalf("String lists an unobserved op: %q", s)
	}
	for op := range NumOps {
		if op.String() == "" {
			t.Fatalf("op %d has no name", int(op))
		}
	}
}

func TestCollectorConcurrentUse(t *testing.T) {
	c := NewCollector()
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				c.Observe(OpAttention, time.Microsecond, 2)
			}
		}()
	}
	wg.Wait()
	if c.Calls(OpAttention) != 5000 || c.Items(OpAttention) != 10000 || c.Duration(OpAttention) != 5000*time.Microsecond {
		t.Fatalf("concurrent Observe lost updates: %d calls, %d items, %v",
			c.Calls(OpAttention), c.Items(OpAttention), c.Duration(OpAttention))
	}
}

func TestHitRateAverage(t *testing.T) {
	h := NewHitRate(10)
	h.Record(8, 10)
	h.Record(9, 10)
	if math.Abs(h.Average()-0.85) > 1e-9 {
		t.Fatalf("Average = %v", h.Average())
	}
	if h.Batches() != 2 {
		t.Fatalf("Batches = %d", h.Batches())
	}
}

func TestHitRateWindowed(t *testing.T) {
	h := NewHitRate(2)
	h.Record(10, 10) // 1.0
	h.Record(0, 10)  // 0.0
	h.Record(5, 10)  // 0.5
	w := h.Windowed()
	want := []float64{1.0, 0.5, 0.25}
	for i := range want {
		if math.Abs(w[i]-want[i]) > 1e-9 {
			t.Fatalf("Windowed[%d] = %v, want %v", i, w[i], want[i])
		}
	}
}

func TestHitRateZeroLookupBatch(t *testing.T) {
	h := NewHitRate(10)
	h.Record(0, 0)
	if h.Average() != 0 {
		t.Fatal("zero lookups should give 0 average")
	}
	if len(h.Windowed()) != 1 || h.Windowed()[0] != 0 {
		t.Fatal("zero-lookup batch should record a 0 rate")
	}
}

func TestHitRateNilSafe(t *testing.T) {
	var h *HitRate
	h.Record(1, 1)
	if h.Average() != 0 || h.Windowed() != nil || h.Batches() != 0 {
		t.Fatal("nil HitRate misbehaved")
	}
}

func TestHitRateWindowClamp(t *testing.T) {
	h := NewHitRate(0)
	h.Record(1, 2)
	if len(h.Windowed()) != 1 {
		t.Fatal("window<1 not clamped")
	}
}

// Batches returns the number of batches recorded.
func (h *HitRate) Batches() int {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.batches)
}
